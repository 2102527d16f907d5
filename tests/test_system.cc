/**
 * @file
 * End-to-end tests: full systems (cores + hierarchy + memory design)
 * running synthetic workloads.
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/runner.h"
#include "sim/system.h"

namespace h2::sim {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig cfg = table1Config(32 * MiB, 256 * MiB);
    cfg.numCores = 2;
    cfg.instrPerCore = 30'000;
    cfg.seed = 7;
    return cfg;
}

workloads::Workload
tinyWorkload()
{
    // A memory-bound streaming workload shrunk to the tiny system:
    // every access touches a new 64 B line, so DRAM-cache line
    // prefetching and migration both have something to win.
    workloads::Workload w = workloads::findWorkload("lbm");
    w.footprintBytes = 16 * MiB;
    w.accessStride = 64;
    return w;
}

Metrics
runDesign(const std::string &spec, u64 seed = 7)
{
    SystemConfig cfg = tinyConfig();
    cfg.seed = seed;
    // Shrink Hybrid2's cache to fit the tiny NM.
    std::string fullSpec = spec;
    if (spec == "hybrid2")
        fullSpec = "hybrid2:cache=2";
    System sys(cfg, tinyWorkload(),
               [&](const mem::MemSystemParams &mp,
                   const mem::LlcView &llc) {
                   return makeDesign(fullSpec, mp, llc);
               });
    sys.run();
    return sys.metrics();
}

class AllDesigns : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllDesigns, RunsToCompletionWithSaneMetrics)
{
    Metrics m = runDesign(GetParam());
    EXPECT_GE(m.instructions, 2u * 30'000);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_GT(m.memAccesses, 0u);
    EXPECT_GT(m.llcMisses, 0u);
    EXPECT_GE(m.servedFromNm, 0.0);
    EXPECT_LE(m.servedFromNm, 1.0);
    EXPECT_GT(m.fmTrafficBytes + m.nmTrafficBytes, 0u);
    EXPECT_GT(m.dynamicEnergyPj, 0.0);
    EXPECT_GT(m.flatCapacityBytes, 0u);
}

TEST_P(AllDesigns, Deterministic)
{
    Metrics a = runDesign(GetParam(), 11);
    Metrics b = runDesign(GetParam(), 11);
    EXPECT_EQ(a.timePs, b.timePs);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.fmTrafficBytes, b.fmTrafficBytes);
    EXPECT_EQ(a.nmTrafficBytes, b.nmTrafficBytes);
}

INSTANTIATE_TEST_SUITE_P(Designs, AllDesigns,
                         ::testing::Values("baseline", "hybrid2", "mempod",
                                           "chameleon", "lgm", "tagless",
                                           "dfc", "ideal:256"));

/** Each number is counted once, so the detail keys that remain must
 *  agree with the top-level fields they break down. Run under NM
 *  pressure (2 MiB of NM, mcf), where the DRAM caches evict. */
class CountedOnce : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CountedOnce, DetailKeysAgreeWithTopLevelFieldsUnderPressure)
{
    SystemConfig cfg = table1Config(2 * MiB);
    cfg.numCores = 2;
    cfg.instrPerCore = 300'000;
    cfg.warmupInstrPerCore = 100'000;
    cfg.seed = 42;
    const std::string spec = GetParam();
    System sys(cfg, workloads::findWorkload("mcf"),
               [&](const mem::MemSystemParams &mp,
                   const mem::LlcView &llc) {
                   return makeDesign(spec, mp, llc);
               });
    sys.run();
    Metrics m = sys.metrics();
    const StatSet &d = m.detail;
    EXPECT_EQ(double(m.llcMisses), d.get("hier.llc.misses"));
    EXPECT_EQ(double(m.memRequests),
              d.get("mem.demandReads") + d.get("mem.writebacks"));
    EXPECT_DOUBLE_EQ(m.dynamicEnergyPj, d.get("nm.dynamicEnergyPj") +
                                            d.get("fm.dynamicEnergyPj"));
    if (d.has("cache.tags.hits")) {
        // The IdealCache designs: a request is served from NM exactly
        // when the tag store hits.
        EXPECT_GT(d.get("cache.tags.evictions"), 0.0);
        EXPECT_EQ(d.get("mem.requestsFromNm"), d.get("cache.tags.hits"));
    }
}

INSTANTIATE_TEST_SUITE_P(Pressure, CountedOnce,
                         ::testing::Values("ideal", "tagless", "dfc",
                                           "chameleon", "hybrid2:cache=1"));

TEST(SystemTest, BaselineHasNoNmTraffic)
{
    Metrics m = runDesign("baseline");
    EXPECT_EQ(m.nmTrafficBytes, 0u);
    EXPECT_DOUBLE_EQ(m.servedFromNm, 0.0);
}

TEST(SystemTest, CacheDesignsServeReuseFromNm)
{
    Metrics m = runDesign("ideal:256");
    EXPECT_GT(m.servedFromNm, 0.1);
}

TEST(SystemTest, DesignsWithNmBeatBaseline)
{
    // gcc-like random reuse over 16 MiB with a 32 MiB NM: any NM design
    // must not be slower than FM-only.
    Metrics base = runDesign("baseline");
    for (const char *spec : {"ideal:256", "hybrid2", "tagless"}) {
        Metrics m = runDesign(spec);
        EXPECT_LT(m.timePs, base.timePs) << spec;
    }
}

TEST(SystemTest, MetricsToStringMentionsDesign)
{
    Metrics m = runDesign("hybrid2");
    EXPECT_NE(m.toString().find("HYBRID2"), std::string::npos);
}

TEST(SystemTest, SeedChangesPlacement)
{
    Metrics a = runDesign("hybrid2", 1);
    Metrics b = runDesign("hybrid2", 2);
    // Different page placement and trace seeds: almost surely
    // different cycle counts.
    EXPECT_NE(a.timePs, b.timePs);
}

TEST(SystemTest, WarmupExcludedFromMetrics)
{
    SystemConfig cfg = tinyConfig();
    cfg.warmupInstrPerCore = 20'000;
    System sys(cfg, tinyWorkload(),
               [](const mem::MemSystemParams &mp,
                  const mem::LlcView &llc) {
                   return makeDesign("ideal:256", mp, llc);
               });
    sys.run();
    Metrics m = sys.metrics();
    // Measured instructions cover only the post-warmup phase.
    EXPECT_GE(m.instructions, 2u * 30'000);
    EXPECT_LT(m.instructions, 2u * 40'000);
    EXPECT_GT(m.cycles, 0u);
}

TEST(SystemTest, WarmupImprovesCacheServiceFraction)
{
    // A warmed cache serves a larger share of the measured requests
    // than a cold one on the same workload.
    auto runWarm = [](u64 warmup) {
        SystemConfig cfg = tinyConfig();
        cfg.warmupInstrPerCore = warmup;
        workloads::Workload w = workloads::findWorkload("xalanc");
        w.footprintBytes = 16 * MiB;
        System sys(cfg, w,
                   [](const mem::MemSystemParams &mp,
                      const mem::LlcView &llc) {
                       return makeDesign("ideal:256", mp, llc);
                   });
        sys.run();
        return sys.metrics().servedFromNm;
    };
    EXPECT_GE(runWarm(60'000), runWarm(0));
}

TEST(SystemTest, WarmupResetKeepsMemoryState)
{
    // Direct check of HybridMemory::resetStats semantics: counters
    // zero, cached state survives.
    mem::MemSystemParams mp;
    mp.nmBytes = 8 * MiB;
    mp.fmBytes = 64 * MiB;
    mem::EmptyLlcView llc;
    auto design = makeDesign("ideal:256", mp, llc);
    design->access(0, AccessType::Read, 0);
    design->resetStats();
    EXPECT_EQ(design->requests(), 0u);
    EXPECT_EQ(design->fmDevice().stats().totalBytes(), 0u);
    // The line is still cached: the next access hits NM without any
    // new FM traffic.
    auto r = design->access(0, AccessType::Read, 1000000);
    EXPECT_TRUE(r.fromNm);
    EXPECT_EQ(design->fmDevice().stats().totalBytes(), 0u);
}

TEST(SystemTest, MultithreadedWorkloadSharesSpace)
{
    SystemConfig cfg = tinyConfig();
    workloads::Workload w = workloads::findWorkload("cg.D");
    w.footprintBytes = 8 * MiB;
    System sys(cfg, w,
               [](const mem::MemSystemParams &mp,
                  const mem::LlcView &llc) {
                   return makeDesign("ideal:256", mp, llc);
               });
    sys.run();
    EXPECT_GT(sys.metrics().llcMisses, 0u);
}

} // namespace
} // namespace h2::sim
