/**
 * @file
 * Tests for the LGM baseline: watermark-driven interval migration with
 * LLC-guided bandwidth economizing.
 */

#include <gtest/gtest.h>

#include "baselines/lgm.h"
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

LgmParams
lgmParams(u32 watermark = 8)
{
    LgmParams p;
    p.watermark = watermark;
    p.intervalPs = 1 * psPerUs;
    return p;
}

/** An LlcView that reports a fixed number of resident lines. */
class FixedLlcView : public mem::LlcView
{
  public:
    explicit FixedLlcView(u32 lines) : n(lines) {}
    u32 residentLines(Addr, u64) const override { return n; }

  private:
    u32 n;
};

TEST(Lgm, FlatCapacityIsNmPlusFm)
{
    mem::EmptyLlcView llc;
    Lgm l(smallSys(), llc, lgmParams());
    EXPECT_EQ(l.flatCapacity(), 72 * MiB);
    EXPECT_EQ(l.name(), "LGM");
}

TEST(Lgm, HotFmSegmentMigratesPastWatermark)
{
    mem::EmptyLlcView llc;
    Lgm l(smallSys(), llc, lgmParams(8));
    Addr hot = 32 * MiB;
    u64 hotSeg = hot / 2048;
    EXPECT_FALSE(l.locate(hotSeg).inNm);
    Tick t = 0;
    for (int i = 0; i < 10; ++i)
        l.access(hot, AccessType::Read, t += 1000);
    l.access(0, AccessType::Read, 2 * psPerUs);
    EXPECT_TRUE(l.locate(hotSeg).inNm);
    EXPECT_EQ(l.migrations(), 1u);
}

TEST(Lgm, BelowWatermarkStaysInFm)
{
    mem::EmptyLlcView llc;
    Lgm l(smallSys(), llc, lgmParams(8));
    Addr warm = 32 * MiB;
    Tick t = 0;
    for (int i = 0; i < 5; ++i) // below the watermark
        l.access(warm, AccessType::Read, t += 1000);
    l.access(0, AccessType::Read, 2 * psPerUs);
    EXPECT_FALSE(l.locate(warm / 2048).inNm);
    EXPECT_EQ(l.migrations(), 0u);
}

TEST(Lgm, CountersResetEachInterval)
{
    mem::EmptyLlcView llc;
    Lgm l(smallSys(), llc, lgmParams(8));
    Addr warm = 32 * MiB;
    Tick t = 0;
    // 5 accesses in interval 1, 5 in interval 2: never 8 in one.
    for (int i = 0; i < 5; ++i)
        l.access(warm, AccessType::Read, t += 1000);
    for (int i = 0; i < 5; ++i)
        l.access(warm, AccessType::Read, psPerUs + i * 1000 + 1000);
    l.access(0, AccessType::Read, 3 * psPerUs);
    EXPECT_EQ(l.migrations(), 0u);
}

TEST(Lgm, DisplacedVictimRemainsReachable)
{
    mem::EmptyLlcView llc;
    Lgm l(smallSys(), llc, lgmParams(4));
    Addr hot = 32 * MiB;
    u64 hotSeg = hot / 2048;
    Tick t = 0;
    for (int i = 0; i < 6; ++i)
        l.access(hot, AccessType::Read, t += 1000);
    l.access(0, AccessType::Read, 2 * psPerUs);
    ASSERT_TRUE(l.locate(hotSeg).inNm);
    u64 nmLoc = l.locate(hotSeg).idx;
    // The displaced segment sits in the hot segment's old FM home.
    u64 displaced = nmLoc; // FIFO victim 0 held identity segment 0...
    (void)displaced;
    // Locate the displaced segment by its new FM location.
    u64 nmSegs = 8 * MiB / 2048;
    bool found = false;
    for (u64 seg = 0; seg < nmSegs && !found; ++seg) {
        auto loc = l.locate(seg);
        if (!loc.inNm && loc.idx == hotSeg - nmSegs)
            found = true;
    }
    EXPECT_TRUE(found);
    l.checkInvariants();
}

TEST(Lgm, LlcResidentLinesReduceMigrationTraffic)
{
    // With 16 of 32 lines LLC-resident, the migration moves half the
    // bytes of a full swap.
    FixedLlcView half(16);
    Lgm lHalf(smallSys(), half, lgmParams(4));
    mem::EmptyLlcView none;
    Lgm lFull(smallSys(), none, lgmParams(4));

    auto hammer = [](Lgm &l) {
        Addr hot = 32 * MiB;
        Tick t = 0;
        for (int i = 0; i < 6; ++i)
            l.access(hot, AccessType::Read, t += 1000);
        u64 before = l.fmDevice().stats().totalBytes();
        l.access(0, AccessType::Read, 2 * psPerUs);
        return l.fmDevice().stats().totalBytes() - before;
    };
    u64 fullBytes = hammer(lFull);
    u64 halfBytes = hammer(lHalf);
    EXPECT_LT(halfBytes, fullBytes);
    EXPECT_GT(lHalf.llcLinesSkipped(), 0u);
}

TEST(Lgm, MigrationCapRespected)
{
    mem::EmptyLlcView llc;
    LgmParams p = lgmParams(2);
    p.maxMigrationsPerInterval = 3;
    Lgm l(smallSys(), llc, p);
    Tick t = 0;
    // Make 10 segments hot within one interval.
    for (u64 s = 0; s < 10; ++s)
        for (int i = 0; i < 4; ++i)
            l.access(32 * MiB + s * 2048, AccessType::Read, t += 100);
    l.access(0, AccessType::Read, 2 * psPerUs);
    EXPECT_LE(l.migrations(), 3u);
    EXPECT_GT(l.migrations(), 0u);
    l.checkInvariants();
}

TEST(Lgm, MetadataChargedOnRemapCacheMiss)
{
    mem::EmptyLlcView llc;
    Lgm l(smallSys(), llc, lgmParams());
    Tick t = 0;
    for (u64 i = 0; i < 100; ++i)
        l.access(16 * MiB + i * 2048, AccessType::Read, t += 1000);
    StatSet out;
    l.collectStats(out);
    EXPECT_GT(out.get("lgm.metaReads"), 0.0);
    EXPECT_TRUE(out.has("lgm.llcLinesSkipped"));
}

} // namespace
} // namespace h2::baselines
