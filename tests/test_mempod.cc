/**
 * @file
 * Tests for the MemPod baseline: MEA-driven interval migration within
 * pods over a flat NM+FM space.
 */

#include <gtest/gtest.h>

#include "baselines/mempod.h"
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

MemPodParams
podParams()
{
    MemPodParams p;
    p.pods = 4;
    p.meaCounters = 8;
    p.intervalPs = 1 * psPerUs; // short intervals for testing
    p.requirePersistence = false; // single-interval unit tests
    return p;
}

TEST(MemPod, FlatCapacityIsNmPlusFm)
{
    MemPod m(smallSys(), podParams());
    EXPECT_EQ(m.flatCapacity(), 72 * MiB);
    EXPECT_EQ(m.name(), "MPOD");
}

TEST(MemPod, NmResidentServedFromNm)
{
    MemPod m(smallSys(), podParams());
    // Segment 0 starts NM-resident (identity mapping).
    auto r = m.access(0, AccessType::Read, 0);
    EXPECT_TRUE(r.fromNm);
}

TEST(MemPod, FmResidentServedFromFm)
{
    MemPod m(smallSys(), podParams());
    Addr fmAddr = 16 * MiB; // beyond the NM segments
    auto r = m.access(fmAddr, AccessType::Read, 0);
    EXPECT_FALSE(r.fromNm);
}

TEST(MemPod, HotSegmentMigratesAtIntervalBoundary)
{
    MemPod m(smallSys(), podParams());
    Addr hot = 32 * MiB; // FM-resident segment
    u64 hotSeg = hot / 2048;
    EXPECT_FALSE(m.locate(hotSeg).inNm);
    // Hammer it within one interval.
    Tick t = 0;
    for (int i = 0; i < 50; ++i)
        m.access(hot, AccessType::Read, t += 1000);
    // Cross the interval boundary.
    m.access(0, AccessType::Read, 2 * psPerUs);
    EXPECT_TRUE(m.locate(hotSeg).inNm);
    EXPECT_GE(m.migrations(), 1u);
    // And it is now served from NM.
    auto r = m.access(hot, AccessType::Read, 3 * psPerUs);
    EXPECT_TRUE(r.fromNm);
}

TEST(MemPod, DisplacedSegmentStillReachable)
{
    MemPod m(smallSys(), podParams());
    Addr hot = 32 * MiB;
    u64 hotSeg = hot / 2048;
    Tick t = 0;
    for (int i = 0; i < 50; ++i)
        m.access(hot, AccessType::Read, t += 1000);
    m.access(0, AccessType::Read, 2 * psPerUs);
    ASSERT_TRUE(m.locate(hotSeg).inNm);
    // Some NM segment was displaced into the hot segment's FM home;
    // the remap must remain a bijection over both.
    u64 nmLoc = m.locate(hotSeg).idx;
    // Find the displaced segment: it must map to hotSeg's old FM home.
    u64 displaced = ~u64(0);
    for (u64 seg = 0; seg < 8 * MiB / 2048; ++seg) {
        if (!m.locate(seg).inNm) {
            displaced = seg;
            break;
        }
    }
    ASSERT_NE(displaced, ~u64(0));
    EXPECT_EQ(m.locate(displaced).idx, hotSeg - 8 * MiB / 2048);
    EXPECT_NE(displaced, hotSeg);
    (void)nmLoc;
    m.checkInvariants();
}

TEST(MemPod, MigrationChargesSwapTraffic)
{
    MemPod m(smallSys(), podParams());
    Addr hot = 32 * MiB;
    Tick t = 0;
    for (int i = 0; i < 50; ++i)
        m.access(hot, AccessType::Read, t += 1000);
    m.drainQueues(t);
    u64 fmBytesBefore = m.fmDevice().stats().totalBytes();
    m.access(0, AccessType::Read, 2 * psPerUs);
    m.drainQueues(2 * psPerUs);
    // Swap = 2 KB read + 2 KB write on each device (at least).
    EXPECT_GE(m.fmDevice().stats().totalBytes(), fmBytesBefore + 4096);
}

TEST(MemPod, ColdSegmentsStayPut)
{
    MemPod m(smallSys(), podParams());
    Tick t = 0;
    // One access per segment: nothing is hot enough to matter, but
    // MemPod migrates anything the MEA tracked; spread accesses over
    // far more segments than MEA capacity so most entries decrement
    // away.
    for (u64 i = 0; i < 1000; ++i)
        m.access(16 * MiB + i * 2048, AccessType::Read, t += 100);
    m.access(0, AccessType::Read, 2 * psPerUs);
    // At most a few segments (MEA capacity x pods) can have migrated.
    EXPECT_LE(m.migrations(), u64(podParams().meaCounters) * 4);
}

TEST(MemPod, PersistenceFilterDefersOneShotBursts)
{
    MemPodParams p = podParams();
    p.requirePersistence = true;
    MemPod m(smallSys(), p);
    Addr hot = 32 * MiB;
    Tick t = 0;
    // Hot in interval 1 only: tracked, but not yet persistent.
    for (int i = 0; i < 50; ++i)
        m.access(hot, AccessType::Read, t += 1000);
    m.access(64 * 2048, AccessType::Read, 1 * psPerUs + 1);
    EXPECT_EQ(m.migrations(), 0u);
    // Hot again in interval 2: now it migrates at the next boundary.
    for (int i = 0; i < 50; ++i)
        m.access(hot, AccessType::Read, 1 * psPerUs + 2000 + i * 1000);
    m.access(64 * 2048, AccessType::Read, 2 * psPerUs + 1);
    EXPECT_GE(m.migrations(), 1u);
    EXPECT_TRUE(m.locate(hot / 2048).inNm);
}

TEST(MemPod, MigrationCapBoundsSwapBandwidth)
{
    MemPodParams p = podParams();
    p.maxMigrationsPerPodInterval = 2;
    p.minCountToMigrate = 1;
    MemPod m(smallSys(), p);
    Tick t = 0;
    // Make 8 segments of pod 0 hot within one interval.
    for (u64 s = 0; s < 8; ++s)
        for (int i = 0; i < 10; ++i)
            m.access(32 * MiB + s * 4 * 2048, AccessType::Read, t += 100);
    m.access(64 * 2048, AccessType::Read, 2 * psPerUs);
    EXPECT_LE(m.migrations(), 2u * 4); // cap x pods
    m.checkInvariants();
}

TEST(MemPod, RemapCacheMissesChargeMetadata)
{
    MemPod m(smallSys(), podParams());
    Tick t = 0;
    for (u64 i = 0; i < 100; ++i)
        m.access(16 * MiB + i * 2048, AccessType::Read, t += 1000);
    StatSet out;
    m.collectStats(out);
    EXPECT_GT(out.get("mempod.metaReads"), 0.0);
    EXPECT_GT(out.get("mempod.remapCacheMisses"), 0.0);
}

TEST(MemPod, StatsExported)
{
    MemPod m(smallSys(), podParams());
    m.access(0, AccessType::Read, 0);
    StatSet out;
    m.collectStats(out);
    EXPECT_TRUE(out.has("mempod.migrations"));
    EXPECT_TRUE(out.has("mempod.intervals"));
}

} // namespace
} // namespace h2::baselines
