/**
 * @file
 * Golden determinism guarantee: two SweepRunners must produce
 * bit-identical metrics for identical RunConfigs (same seed) and
 * different metrics for a different seed.
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"

namespace h2::sim {
namespace {

RunConfig
quickCfg(u64 seed = 42)
{
    RunConfig cfg;
    // NM must hold the default hybrid2 64 MiB DRAM-cache slice.
    cfg.nmBytes = 128 * MiB;
    cfg.fmBytes = 512 * MiB;
    cfg.instrPerCore = 30'000;
    cfg.numCores = 2;
    cfg.seed = seed;
    return cfg;
}

workloads::Workload
tinyWorkload()
{
    auto w = workloads::findWorkload("lbm");
    w.footprintBytes = 16 * MiB;
    w.accessStride = 64;
    return w;
}

/** Every field of Metrics, bit-for-bit (doubles compared exactly). */
void
expectBitIdentical(const Metrics &a, const Metrics &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.timePs, b.timePs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.servedFromNm, b.servedFromNm);
    EXPECT_EQ(a.nmTrafficBytes, b.nmTrafficBytes);
    EXPECT_EQ(a.fmTrafficBytes, b.fmTrafficBytes);
    EXPECT_EQ(a.dynamicEnergyPj, b.dynamicEnergyPj);
    EXPECT_EQ(a.flatCapacityBytes, b.flatCapacityBytes);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.detail.entries(), b.detail.entries());
}

class Determinism : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Determinism, SameSeedBitIdentical)
{
    const std::string design = GetParam();
    SweepRunner first(quickCfg());
    SweepRunner second(quickCfg());
    const Metrics &a = first.run(tinyWorkload(), design);
    const Metrics &b = second.run(tinyWorkload(), design);
    expectBitIdentical(a, b);
}

TEST_P(Determinism, DifferentSeedDiffers)
{
    const std::string design = GetParam();
    SweepRunner first(quickCfg(42));
    SweepRunner other(quickCfg(43));
    const Metrics &a = first.run(tinyWorkload(), design);
    const Metrics &b = other.run(tinyWorkload(), design);
    // A different trace seed must change the observed timing; if it
    // doesn't, the seed isn't reaching the trace generators.
    EXPECT_NE(a.timePs, b.timePs);
}

INSTANTIATE_TEST_SUITE_P(Designs, Determinism,
                         ::testing::Values("hybrid2", "baseline"),
                         [](const auto &paramInfo) {
                             return std::string(paramInfo.param);
                         });

} // namespace
} // namespace h2::sim
