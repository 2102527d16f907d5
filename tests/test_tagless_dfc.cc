/**
 * @file
 * Tests for the Tagless DRAM cache (the registered "tagless" design)
 * and the Decoupled Fused Cache.
 */

#include <gtest/gtest.h>

#include <memory>

#include "baselines/dfc_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/runner.h"

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

/** The design that `--design tagless` builds. */
std::unique_ptr<mem::HybridMemory>
makeTagless()
{
    mem::EmptyLlcView llc;
    return sim::makeDesign("tagless", smallSys(), llc);
}

TEST(Tagless, PageGranularity)
{
    auto d = makeTagless();
    auto *c = dynamic_cast<IdealCache *>(d.get());
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->lineBytes(), 4096u);
    EXPECT_EQ(c->name(), "TAGLESS");
}

TEST(Tagless, PageFillOverFetches)
{
    auto d = makeTagless();
    mem::HybridMemory &c = *d;
    c.access(0, AccessType::Read, 0);
    c.drainQueues(0);
    // One 64 B request pulled a whole 4 KB page from FM.
    EXPECT_EQ(c.fmDevice().stats().bytesRead, 4096u);
}

TEST(Tagless, WholePageHitsAfterFill)
{
    auto d = makeTagless();
    mem::HybridMemory &c = *d;
    c.access(0, AccessType::Read, 0);
    for (Addr a = 64; a < 4096; a += 64) {
        auto r = c.access(a, AccessType::Read, 1000000 + a);
        EXPECT_TRUE(r.fromNm) << a;
    }
}

TEST(Tagless, NoTagLookupCost)
{
    // Per the paper, Tagless is modeled without any tag overheads: the
    // only NM traffic is data.
    auto d = makeTagless();
    mem::HybridMemory &c = *d;
    c.access(0, AccessType::Read, 0);
    c.drainQueues(0);
    EXPECT_EQ(c.nmDevice().stats().bytesWritten, 4096u);
    EXPECT_EQ(c.nmDevice().stats().bytesRead, 0u);
}

TEST(Dfc, DefaultLineIs1K)
{
    DfcCache c(smallSys());
    EXPECT_EQ(c.lineBytes(), 1024u);
    EXPECT_EQ(c.name(), "DFC-1024");
}

TEST(Dfc, TagCacheAbsorbsRepeatLookups)
{
    DfcCache c(smallSys());
    c.access(0, AccessType::Read, 0);
    u64 missesAfterFirst = c.tagCacheMisses();
    EXPECT_GE(missesAfterFirst, 1u);
    c.access(64, AccessType::Read, 1000000);
    c.access(128, AccessType::Read, 2000000);
    EXPECT_EQ(c.tagCacheMisses(), missesAfterFirst); // same 1 KB line
    EXPECT_GE(c.tagCacheHits(), 2u);
}

TEST(Dfc, TagStoreTrafficInNm)
{
    DfcCache c(smallSys());
    c.access(0, AccessType::Read, 0);
    c.drainQueues(0);
    StatSet out;
    c.collectStats(out);
    // One tag-store read (lookup miss) and one write (fill update).
    EXPECT_GE(out.get("dfc.tagReads"), 1.0);
    EXPECT_GE(out.get("dfc.tagWrites"), 1.0);
    // Tag traffic appears as NM reads beyond pure data movement.
    EXPECT_GT(c.nmDevice().stats().reads, 0u);
}

TEST(Dfc, TagCacheMissCostsLatency)
{
    // A cold DFC lookup pays an NM tag read before the FM fetch, so it
    // must be slower than the overhead-free IDEAL at equal line size.
    auto sys = smallSys();
    DfcCache dfc(sys);
    IdealCache ideal(sys, 1024);
    Tick tDfc = dfc.access(0, AccessType::Read, 0).completeAt();
    Tick tIdeal = ideal.access(0, AccessType::Read, 0).completeAt();
    EXPECT_GT(tDfc, tIdeal);
}

TEST(Dfc, CustomLineSize)
{
    DfcCache c(smallSys(), 128);
    EXPECT_EQ(c.lineBytes(), 128u);
    EXPECT_EQ(c.name(), "DFC-128");
    c.access(0, AccessType::Read, 0);
    c.drainQueues(0);
    EXPECT_EQ(c.fmDevice().stats().bytesRead, 128u);
}

TEST(Dfc, SmallLinesThrashTagCacheMore)
{
    // With 128 B lines there are 8x more tags than with 1 KB lines, so
    // a wide scan must produce more tag-cache misses.
    auto sys = smallSys();
    DfcCache small(sys, 128);
    DfcCache big(sys, 1024);
    Tick t = 0;
    Rng rng(3);
    for (int i = 0; i < 30000; ++i) {
        Addr a = rng.below(sys.fmBytes / 64) * 64;
        small.access(a, AccessType::Read, t);
        big.access(a, AccessType::Read, t);
        t += 20000;
    }
    EXPECT_GT(small.tagCacheMisses(), big.tagCacheMisses());
}

} // namespace
} // namespace h2::baselines
