/**
 * @file
 * Tests for the Chameleon baseline: competing-counter group swaps plus
 * the cache-mode NM slice.
 */

#include <gtest/gtest.h>

#include "baselines/chameleon.h"
#include "common/units.h"

namespace h2::baselines {
namespace {

mem::MemSystemParams
smallSys()
{
    mem::MemSystemParams p;
    p.nmBytes = 8 * MiB;
    p.fmBytes = 64 * MiB;
    return p;
}

/** Pure group-swap configuration: counter semantics are exact. */
ChameleonParams
chaParams(u32 k = 4)
{
    ChameleonParams p;
    p.competingK = k;
    p.cacheSliceBytes = 1 * MiB;
    p.cacheMode = false;
    return p;
}

/** Full configuration with the cache-mode slice enabled. */
ChameleonParams
chaCacheParams(u32 k = 4)
{
    ChameleonParams p = chaParams(k);
    p.cacheMode = true;
    return p;
}

TEST(Chameleon, FlatCapacityExcludesCacheSlice)
{
    Chameleon c(smallSys(), chaParams());
    EXPECT_EQ(c.flatCapacity(), (8 - 1 + 64) * MiB);
    EXPECT_EQ(c.name(), "CHA");
}

TEST(Chameleon, NativeSegmentsStartInNm)
{
    Chameleon c(smallSys(), chaParams());
    auto r = c.access(0, AccessType::Read, 0);
    EXPECT_TRUE(r.fromNm);
    EXPECT_TRUE(c.inNmSlot(0));
}

TEST(Chameleon, PersistentChallengerGetsPromoted)
{
    Chameleon c(smallSys(), chaParams(4));
    u64 nmGroupSegs = 7 * MiB / 2048;
    u64 fmSeg = nmGroupSegs; // first FM segment, group 0
    Addr addr = fmSeg * 2048;
    EXPECT_FALSE(c.inNmSlot(fmSeg));
    Tick t = 0;
    for (int i = 0; i < 6; ++i)
        c.access(addr, AccessType::Read, t += 100000);
    EXPECT_TRUE(c.inNmSlot(fmSeg));
    EXPECT_GE(c.swaps(), 1u);
    auto r = c.access(addr, AccessType::Read, t += 100000);
    EXPECT_TRUE(r.fromNm);
}

TEST(Chameleon, NmAccessesDefendTheIncumbent)
{
    Chameleon c(smallSys(), chaParams(4));
    u64 nmGroupSegs = 7 * MiB / 2048;
    Addr fmAddr = nmGroupSegs * 2048; // group 0 challenger
    Addr nmAddr = 0;                  // group 0 native
    Tick t = 0;
    // Interleave challenger and incumbent accesses 1:1 - the counter
    // never reaches K.
    for (int i = 0; i < 20; ++i) {
        c.access(fmAddr, AccessType::Read, t += 100000);
        c.access(nmAddr, AccessType::Read, t += 100000);
    }
    EXPECT_EQ(c.swaps(), 0u);
    EXPECT_FALSE(c.inNmSlot(nmGroupSegs));
}

TEST(Chameleon, DisplacedNativeStillServed)
{
    Chameleon c(smallSys(), chaParams(2));
    u64 nmGroupSegs = 7 * MiB / 2048;
    Addr fmAddr = nmGroupSegs * 2048;
    Tick t = 0;
    for (int i = 0; i < 4; ++i)
        c.access(fmAddr, AccessType::Read, t += 100000);
    ASSERT_TRUE(c.inNmSlot(nmGroupSegs));
    // The native segment 0 was displaced to the promoted segment's FM
    // home but must still be accessible (from FM).
    auto r = c.access(0, AccessType::Read, t += 100000);
    EXPECT_FALSE(r.fromNm);
}

TEST(Chameleon, SecondChallengerReplacesFirst)
{
    Chameleon c(smallSys(), chaParams(2));
    u64 nmGroupSegs = 7 * MiB / 2048;
    u64 segA = nmGroupSegs;               // group 0
    u64 segB = nmGroupSegs + nmGroupSegs; // also group 0
    Tick t = 0;
    for (int i = 0; i < 4; ++i)
        c.access(segA * 2048, AccessType::Read, t += 100000);
    ASSERT_TRUE(c.inNmSlot(segA));
    for (int i = 0; i < 8; ++i)
        c.access(segB * 2048, AccessType::Read, t += 100000);
    EXPECT_TRUE(c.inNmSlot(segB));
    EXPECT_FALSE(c.inNmSlot(segA));
    // All three segments remain reachable.
    c.access(segA * 2048, AccessType::Read, t += 100000);
    c.access(0, AccessType::Read, t += 100000);
}

TEST(Chameleon, DisplacedNativeCanWinItsSlotBack)
{
    // Regression: promoting the displaced native segment used to trip
    // the fmHomeOf(native) assertion.
    Chameleon c(smallSys(), chaParams(2));
    u64 nmGroupSegs = 7 * MiB / 2048;
    u64 challenger = nmGroupSegs; // group 0
    Tick t = 0;
    for (int i = 0; i < 4; ++i)
        c.access(challenger * 2048, AccessType::Read, t += 100000);
    ASSERT_TRUE(c.inNmSlot(challenger));
    // Now hammer the displaced native until it swaps back.
    for (int i = 0; i < 8; ++i)
        c.access(0, AccessType::Read, t += 100000);
    EXPECT_TRUE(c.inNmSlot(0));
    EXPECT_FALSE(c.inNmSlot(challenger));
    // Both remain reachable afterwards.
    c.access(challenger * 2048, AccessType::Read, t += 100000);
    c.access(0, AccessType::Read, t += 100000);
}

TEST(Chameleon, CacheModeAbsorbsFmReuse)
{
    Chameleon c(smallSys(), chaCacheParams(1000));
    u64 nmGroupSegs = 7 * MiB / 2048;
    Addr fmAddr = nmGroupSegs * 2048;
    Tick t = 0;
    // First touch only registers in the once-sketch; the second fill
    // brings the segment into the cache slice; the third hits.
    c.access(fmAddr, AccessType::Read, t += 100000);
    c.access(fmAddr + 64, AccessType::Read, t += 100000);
    auto r = c.access(fmAddr + 128, AccessType::Read, t += 100000);
    EXPECT_TRUE(r.fromNm); // cache-mode hit
    StatSet out;
    c.collectStats(out);
    EXPECT_GE(out.get("chameleon.cacheModeHits"), 1.0);
    EXPECT_GE(out.get("chameleon.cacheModeFills"), 1.0);
}

TEST(Chameleon, FirstTouchDoesNotFillCacheMode)
{
    Chameleon c(smallSys(), chaCacheParams(1000));
    u64 nmGroupSegs = 7 * MiB / 2048;
    Tick t = 0;
    // Stream over 100 distinct FM segments, one touch each: the cache
    // slice must stay unpolluted (no fills).
    for (u64 s = 0; s < 100; ++s)
        c.access((nmGroupSegs + s) * 2048, AccessType::Read, t += 100000);
    StatSet out;
    c.collectStats(out);
    EXPECT_DOUBLE_EQ(out.get("chameleon.cacheModeFills"), 0.0);
}

TEST(Chameleon, StreamingDoesNotTriggerSwaps)
{
    // 32 consecutive line touches per segment (a post-LLC stream) are
    // absorbed by the cache slice and must not earn group swaps.
    Chameleon c(smallSys(), chaCacheParams(14));
    u64 nmGroupSegs = 7 * MiB / 2048;
    Tick t = 0;
    for (u64 s = 0; s < 64; ++s)
        for (u64 line = 0; line < 32; ++line)
            c.access((nmGroupSegs + s) * 2048 + line * 64,
                     AccessType::Read, t += 100000);
    EXPECT_EQ(c.swaps(), 0u);
}

TEST(Chameleon, SwapChargesTraffic)
{
    Chameleon c(smallSys(), chaParams(2));
    u64 nmGroupSegs = 7 * MiB / 2048;
    Addr fmAddr = nmGroupSegs * 2048;
    Tick t = 0;
    u64 before = c.nmDevice().stats().totalBytes();
    for (int i = 0; i < 4; ++i)
        c.access(fmAddr, AccessType::Read, t += 100000);
    c.drainQueues(t);
    // The promotion moved 2 KB into the NM slot (plus cache-mode fills).
    EXPECT_GE(c.nmDevice().stats().totalBytes(), before + 4096);
}

TEST(Chameleon, StatsExported)
{
    Chameleon c(smallSys(), chaParams());
    c.access(0, AccessType::Read, 0);
    StatSet out;
    c.collectStats(out);
    EXPECT_TRUE(out.has("chameleon.swaps"));
    EXPECT_TRUE(out.has("chameleon.remapCacheMisses"));
}

} // namespace
} // namespace h2::baselines
