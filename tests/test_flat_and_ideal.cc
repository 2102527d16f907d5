/**
 * @file
 * Tests for the FM-only baseline and the IDEAL DRAM cache (Figure 2),
 * including the fetched-but-unused tracking behind Figure 1.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "baselines/flat_baseline.h"
#include "baselines/ideal_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "resident.h"

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

TEST(FlatBaseline, ServesEverythingFromFm)
{
    FlatBaseline b(smallSys());
    auto r = b.access(0, AccessType::Read, 0);
    EXPECT_FALSE(r.fromNm);
    EXPECT_GT(r.completeAt(), 0u);
    EXPECT_EQ(b.requests(), 1u);
    EXPECT_EQ(b.requestsFromNm(), 0u);
    EXPECT_FALSE(b.hasNm());
    EXPECT_EQ(b.flatCapacity(), 64 * MiB);
    EXPECT_EQ(b.name(), "BASELINE");
}

TEST(FlatBaseline, TrafficAndEnergyAccumulate)
{
    FlatBaseline b(smallSys());
    b.access(0, AccessType::Read, 0);
    b.access(4096, AccessType::Write, 100000);
    b.drainQueues(100000);
    EXPECT_EQ(b.fmDevice().stats().bytesRead, 64u);
    EXPECT_EQ(b.fmDevice().stats().bytesWritten, 64u);
    EXPECT_GT(b.dynamicEnergyPj(), 0.0);
}

TEST(FlatBaselineDeath, BeyondCapacity)
{
    FlatBaseline b(smallSys());
    EXPECT_DEATH(b.access(64 * MiB, AccessType::Read, 0), "capacity");
}

TEST(FlatBaselineDeath, HasNoNearMemory)
{
    // FM-only: there is no NM controller, so neither it nor the device
    // it would own can be handed out.
    FlatBaseline b(smallSys());
    const FlatBaseline &cb = b;
    EXPECT_DEATH((void)b.nmController(), "BASELINE has no near memory");
    EXPECT_DEATH((void)cb.nmController(), "BASELINE has no near memory");
    EXPECT_DEATH((void)b.nmDevice(), "BASELINE has no near memory");
}

/** Read the 16 lines that share line 0's set in the 16-way tag store
 *  (they lie NM / 16 bytes apart), starting at @p t; LRU then evicts
 *  line 0. */
void
evictLineZero(IdealCache &c, const mem::MemSystemParams &sys, Tick t)
{
    for (u64 k = 1; k <= 16; ++k)
        c.access(k * (sys.nmBytes / 16), AccessType::Read,
                 t + k * 1000000);
}

TEST(IdealCache, MissThenHit)
{
    IdealCache c(smallSys(), 256);
    auto miss = c.access(0, AccessType::Read, 0);
    EXPECT_FALSE(miss.fromNm);
    auto hit = c.access(0, AccessType::Read, miss.completeAt());
    EXPECT_TRUE(hit.fromNm);
    EXPECT_EQ(c.fills(), 1u);
    EXPECT_EQ(c.lineHits(), 1u);
}

TEST(IdealCache, LinePrefetchServesNeighbours)
{
    IdealCache c(smallSys(), 1024);
    c.access(0, AccessType::Read, 0);
    // The whole 1 KB line was fetched: neighbouring 64 B blocks hit.
    auto r = c.access(512, AccessType::Read, 1000000);
    EXPECT_TRUE(r.fromNm);
}

TEST(IdealCache, FillFetchesWholeLineFromFm)
{
    IdealCache c(smallSys(), 1024);
    c.access(0, AccessType::Read, 0);
    c.drainQueues(0);
    EXPECT_EQ(c.fmDevice().stats().bytesRead, 1024u);
    EXPECT_EQ(c.nmDevice().stats().bytesWritten, 1024u);
}

TEST(IdealCache, DirtyVictimWritesBackWholeLine)
{
    auto sys = smallSys();
    IdealCache c(sys, 256);
    c.access(0, AccessType::Write, 0);
    c.drainQueues(0);
    u64 fmWritesBefore = c.fmDevice().stats().bytesWritten;
    // The conflicting lines are clean; only line 0 writes back.
    evictLineZero(c, sys, 1000000);
    c.drainQueues(20000000);
    EXPECT_EQ(c.fmDevice().stats().bytesWritten, fmWritesBefore + 256);
}

TEST(IdealCache, WastedFetchTracking)
{
    auto sys = smallSys();
    IdealCache c(sys, 4096);
    // Touch one 64 B block of a 4 KB line, then evict it with other
    // singly-touched lines: every line wasted 63 of 64 fetched blocks.
    c.access(0, AccessType::Read, 0);
    evictLineZero(c, sys, 1000000);
    EXPECT_NEAR(c.wastedFetchFraction(), 63.0 / 64.0, 1e-9);
}

TEST(IdealCache, FullyUsedLinesWasteNothing)
{
    auto sys = smallSys();
    IdealCache c(sys, 256);
    // Use every 64 B block of 17 lines sharing a set: nothing fetched
    // is unused, whether the line is later evicted or still resident.
    for (u64 k = 0; k <= 16; ++k)
        for (u64 b = 0; b < 256; b += 64)
            c.access(k * (sys.nmBytes / 16) + b, AccessType::Read,
                     k * 1000000 + b * 1000);
    EXPECT_DOUBLE_EQ(c.wastedFetchFraction(), 0.0);
}

TEST(IdealCache, ResidentUnusedBlocksCountAsWaste)
{
    auto sys = smallSys();
    IdealCache c(sys, 256);
    // One resident line with 1 of 4 blocks used: 3/4 wasted.
    c.access(0, AccessType::Read, 0);
    EXPECT_DOUBLE_EQ(c.wastedFetchFraction(), 0.75);
}

TEST(IdealCache, WastedFetchFractionRestartsWithResetStats)
{
    auto sys = smallSys();
    IdealCache c(sys, 256);
    // Before the reset: line 0 (1 of 4 blocks used) is evicted by 16
    // singly-touched lines of its set, which stay resident.
    c.access(0, AccessType::Read, 0);
    evictLineZero(c, sys, 1000000);
    c.resetStats();
    // After it: 17 fully used lines of set 1 evict one of their own.
    Tick t = 100000000;
    for (u64 k = 0; k <= 16; ++k)
        for (u64 b = 0; b < 256; b += 64)
            c.access(256 + k * (sys.nmBytes / 16) + b, AccessType::Read,
                     t += 1000000);
    EXPECT_EQ(c.fills(), 17u);
    // Evicted since the reset: one line, nothing wasted. Resident: 16
    // lines wasting 3 of 4 blocks and 16 wasting none. The line
    // evicted before the reset counts no more.
    EXPECT_DOUBLE_EQ(c.wastedFetchFraction(), (16.0 * 3) / (4 + 32.0 * 4));
}

class WasteByLineSize : public ::testing::TestWithParam<u32>
{
};

TEST_P(WasteByLineSize, SparseAccessWastesMoreWithBiggerLines)
{
    // Random 64 B touches over a space much larger than the cache:
    // bigger lines must waste a larger fraction (the Figure 1 trend).
    auto sys = smallSys();
    IdealCache c(sys, GetParam());
    Rng rng(7);
    Tick t = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr a = (rng.below(sys.fmBytes / 64)) * 64;
        c.access(a, AccessType::Read, t += 20000);
    }
    double waste = c.wastedFetchFraction();
    if (GetParam() == 64)
        EXPECT_DOUBLE_EQ(waste, 0.0);
    else
        EXPECT_GT(waste, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Lines, WasteByLineSize,
                         ::testing::Values(64, 256, 1024, 4096));

TEST(IdealCache, ServedFromNmFractionGrowsWithReuse)
{
    IdealCache c(smallSys(), 256);
    Tick t = 0;
    for (int round = 0; round < 10; ++round)
        for (Addr a = 0; a < 64 * 1024; a += 64)
            c.access(a, AccessType::Read, t += 10000);
    double frac = double(c.requestsFromNm()) / double(c.requests());
    EXPECT_GT(frac, 0.8); // working set fits: mostly NM after round 1
}

TEST(IdealCache, ScatteredFillsAtPaperScaleStayResidentSmall)
{
    // The ideal cache at 1 GiB NM with 256 B lines has a 4M-line tag
    // store (48 MB of tags and meta words), and random page placement
    // scatters a run's fills across all of its sets. Resident memory
    // must follow the sets filled, not their spread: flat lanes would
    // hold one page (4 KiB, or a 2 MiB huge page) of tags and one of
    // meta words per fill, 32-48 MB for these 4096.
    mem::MemSystemParams mp;
    mp.nmBytes = 1024 * MiB;
    mp.fmBytes = 16384 * MiB;
    IdealCache c(mp, 256);
    Rng rng(2020);
    std::unordered_set<Addr> filled;
    Tick now = 0;
    u64 before = test::residentBytes();
    for (int i = 0; i < 4096; ++i) {
        Addr a = rng.below(mp.fmBytes / 256) * 256;
        now = c.access(a, AccessType::Read, now).completeAt();
        filled.insert(a);
    }
    EXPECT_LT(test::residentGrowth(before), 8 * MiB);
    ASSERT_EQ(c.fills(), filled.size());
    // About 4096 lines over 262,144 16-way sets: no set overflows, so
    // every filled line is still present.
    for (Addr a : filled) {
        auto r = c.access(a, AccessType::Read, now);
        ASSERT_TRUE(r.fromNm) << a;
        now = r.completeAt();
    }
}

TEST(IdealCache, NameIncludesLineSize)
{
    IdealCache c(smallSys(), 512, "IDEAL-512");
    EXPECT_EQ(c.name(), "IDEAL-512");
}

TEST(IdealCache, CollectStats)
{
    IdealCache c(smallSys(), 256);
    c.access(0, AccessType::Read, 0);
    StatSet out;
    c.collectStats(out);
    EXPECT_DOUBLE_EQ(out.get("cache.tags.misses"), 1.0);
    EXPECT_TRUE(out.has("cache.wastedFetchFraction"));
}

TEST(IdealCacheDeath, BadLineSize)
{
    // 96 is not a multiple of 64. Either the tag store's geometry
    // check or the cache's own 64 B multiple check fires first; both
    // are fatal.
    EXPECT_DEATH(IdealCache(smallSys(), 96),
                 "multiple of 64|not divisible");
}

} // namespace
} // namespace h2::baselines
