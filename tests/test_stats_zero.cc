/**
 * @file
 * Zero-count stat hygiene: every `mem.avg*` (and queue) average must
 * render as exactly 0 — not NaN, not a stale numerator — when its
 * population is empty, even while sibling stats with traffic are
 * non-zero. One targeted test per stat class, plus the mix-math guard
 * that used to let a zero-intensity component poison every derived
 * intensity with non-finite values.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/flat_baseline.h"
#include "baselines/ideal_cache.h"
#include "common/units.h"
#include "workloads/workload_spec.h"

namespace h2 {
namespace {

mem::MemSystemParams
sys()
{
    mem::MemSystemParams p;
    p.nmBytes = 8 * MiB;
    p.fmBytes = 64 * MiB;
    return p;
}

baselines::DramCacheParams
cacheParams()
{
    baselines::DramCacheParams p;
    p.lineBytes = 64;
    return p;
}

void
expectZeroAndFinite(const StatSet &s, const char *key)
{
    ASSERT_TRUE(s.has(key)) << key;
    EXPECT_TRUE(std::isfinite(s.get(key))) << key;
    EXPECT_DOUBLE_EQ(s.get(key), 0.0) << key;
}

// With no traffic at all, every average must be 0 and finite — the
// whole family at once, so a newly added mem.avg* stat cannot regress
// silently.
TEST(ZeroCountStats, AllAveragesZeroBeforeAnyTraffic)
{
    baselines::FlatBaseline b(sys());
    StatSet s;
    b.collectStats(s);
    for (const char *key :
         {"mem.avgLatencyPs", "mem.avgNmLatencyPs",
          "mem.avgMissLatencyPs", "mem.avgWritebackLatencyPs",
          "mem.avgQueueDelayPs", "fmq.avgReadQueueDelayPs",
          "fmq.avgWriteQueueDelayPs"})
        expectZeroAndFinite(s, key);
}

// avgNmLatencyPs: reads exist, NM hits do not (FM-only baseline).
TEST(ZeroCountStats, AvgNmLatencyZeroWithoutNmHits)
{
    baselines::FlatBaseline b(sys());
    b.access(0, AccessType::Read, 0);
    b.access(4096, AccessType::Read, 1000000);
    StatSet s;
    b.collectStats(s);
    EXPECT_GT(s.get("mem.avgLatencyPs"), 0.0);
    expectZeroAndFinite(s, "mem.avgNmLatencyPs");
}

// avgWritebackLatencyPs: reads exist, writebacks do not.
TEST(ZeroCountStats, AvgWritebackLatencyZeroWithoutWritebacks)
{
    baselines::FlatBaseline b(sys());
    b.access(0, AccessType::Read, 0);
    StatSet s;
    b.collectStats(s);
    EXPECT_GT(s.get("mem.avgLatencyPs"), 0.0);
    expectZeroAndFinite(s, "mem.avgWritebackLatencyPs");
}

// avgMissLatencyPs: demand reads exist but every one hit NM (warm the
// cache, reset, then re-touch) — the miss denominator is 0 while the
// hit-side stats are live.
TEST(ZeroCountStats, AvgMissLatencyZeroWhenEveryReadHitsNm)
{
    baselines::IdealCache c(sys(), cacheParams());
    c.access(0, AccessType::Read, 0); // fill
    c.resetStats();
    auto r = c.access(0, AccessType::Read, 10000000);
    ASSERT_TRUE(r.fromNm);
    StatSet s;
    c.collectStats(s);
    EXPECT_GT(s.get("mem.avgLatencyPs"), 0.0);
    EXPECT_GT(s.get("mem.avgNmLatencyPs"), 0.0);
    expectZeroAndFinite(s, "mem.avgMissLatencyPs");
}

// The mix intensity math divides by each component's memRatio; a
// zero-intensity component used to propagate inf/NaN into the mix's
// memRatio and from there into every derived stat. Now it dies with a
// diagnostic instead of emitting garbage.
TEST(ZeroCountStatsDeath, MixRejectsZeroIntensityComponent)
{
    workloads::Workload a;
    a.name = "a";
    a.memRatio = 0.5;
    workloads::Workload b;
    b.name = "b";
    b.memRatio = 0.0;
    EXPECT_DEATH(workloads::mixWorkload({a, b}, 1),
                 "zero memory intensity");
}

} // namespace
} // namespace h2
