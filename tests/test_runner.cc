/**
 * @file
 * Tests for design-spec parsing, design construction, and speedups
 * through the SweepRunner.
 */

#include <gtest/gtest.h>

#include "baselines/dfc_cache.h"
#include "baselines/ideal_cache.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "sim/sweep_runner.h"

namespace h2::sim {
namespace {

mem::MemSystemParams
smallMem()
{
    mem::MemSystemParams p;
    p.nmBytes = 16 * MiB;
    p.fmBytes = 64 * MiB;
    return p;
}

TEST(MakeDesign, AllHeads)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_EQ(makeDesign("baseline", mp, llc)->name(), "BASELINE");
    EXPECT_EQ(makeDesign("hybrid2:cache=2", mp, llc)->name(), "HYBRID2");
    EXPECT_EQ(makeDesign("tagless", mp, llc)->name(), "TAGLESS");
    EXPECT_EQ(makeDesign("dfc", mp, llc)->name(), "DFC-1024");
    EXPECT_EQ(makeDesign("dfc:512", mp, llc)->name(), "DFC-512");
    EXPECT_EQ(makeDesign("ideal:128", mp, llc)->name(), "IDEAL-128");
    EXPECT_EQ(makeDesign("mempod", mp, llc)->name(), "MPOD");
    EXPECT_EQ(makeDesign("chameleon", mp, llc)->name(), "CHA");
    EXPECT_EQ(makeDesign("lgm", mp, llc)->name(), "LGM");
}

TEST(MakeDesign, Hybrid2Options)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    auto d = makeDesign("hybrid2:cache=2,sector=4096,line=512", mp, llc);
    auto *dcmc = dynamic_cast<core::Dcmc *>(d.get());
    ASSERT_NE(dcmc, nullptr);
    EXPECT_EQ(dcmc->params().cacheBytes, 2 * MiB);
    EXPECT_EQ(dcmc->params().sectorBytes, 4096u);
    EXPECT_EQ(dcmc->params().lineBytes, 512u);
}

TEST(MakeDesign, Hybrid2Ablations)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    auto cacheOnly = makeDesign("hybrid2:cache=2,cacheonly", mp, llc);
    auto *d1 = dynamic_cast<core::Dcmc *>(cacheOnly.get());
    ASSERT_NE(d1, nullptr);
    EXPECT_TRUE(d1->params().migrateNone);
    EXPECT_TRUE(d1->params().freeRemap);

    auto migrAll = makeDesign("hybrid2:cache=2,migrall", mp, llc);
    EXPECT_TRUE(
        dynamic_cast<core::Dcmc *>(migrAll.get())->params().migrateAll);
    auto noRemap = makeDesign("hybrid2:cache=2,noremap", mp, llc);
    EXPECT_TRUE(
        dynamic_cast<core::Dcmc *>(noRemap.get())->params().freeRemap);
}

TEST(MakeDesign, LgmWatermark)
{
    mem::EmptyLlcView llc;
    auto d = makeDesign("lgm:watermark=99", smallMem(), llc);
    EXPECT_EQ(d->name(), "LGM");
}

TEST(MakeDesign, IdealDefaultLine)
{
    mem::EmptyLlcView llc;
    auto d = makeDesign("ideal", smallMem(), llc);
    auto *c = dynamic_cast<baselines::IdealCache *>(d.get());
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->lineBytes(), 256u);
}

TEST(MakeDesignDeath, UnknownSpec)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("bogus", mp, llc), "unknown design");
}

TEST(MakeDesignDeath, UnknownHybridOption)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("hybrid2:frobnicate", mp, llc),
                 "unknown hybrid2 option");
}

TEST(EvaluatedDesigns, MatchesFigure12Lineup)
{
    const auto &d = evaluatedDesigns();
    ASSERT_EQ(d.size(), 6u);
    EXPECT_EQ(d[0], "mempod");
    EXPECT_EQ(d[1], "chameleon");
    EXPECT_EQ(d[2], "lgm");
    EXPECT_EQ(d[3], "tagless");
    EXPECT_EQ(d[4], "dfc");
    EXPECT_EQ(d[5], "hybrid2");
}

/** Speedups and metrics through a one-job SweepRunner. */
struct RunnerTest : ::testing::Test
{
    static RunConfig
    quickCfg()
    {
        RunConfig cfg;
        cfg.nmBytes = 32 * MiB;
        cfg.fmBytes = 256 * MiB;
        cfg.instrPerCore = 20'000;
        cfg.numCores = 2;
        return cfg;
    }

    static workloads::Workload
    tinyWorkload()
    {
        auto w = workloads::findWorkload("lbm");
        w.footprintBytes = 16 * MiB;
        w.accessStride = 64; // new line per access: memory-bound
        return w;
    }
};

TEST_F(RunnerTest, BaselineSpeedupIsOne)
{
    SweepRunner r(quickCfg());
    EXPECT_DOUBLE_EQ(r.speedup(tinyWorkload(), "baseline"), 1.0);
}

TEST_F(RunnerTest, NmDesignSpeedupAboveOne)
{
    SweepRunner r(quickCfg());
    EXPECT_GT(r.speedup(tinyWorkload(), "ideal:256"), 1.0);
}

TEST_F(RunnerTest, DistinctDesignsDistinctMetrics)
{
    SweepRunner r(quickCfg());
    const Metrics &a = r.run(tinyWorkload(), "baseline");
    const Metrics &b = r.run(tinyWorkload(), "ideal:256");
    EXPECT_NE(a.design, b.design);
    EXPECT_NE(a.timePs, b.timePs);
}

TEST_F(RunnerTest, FmKnobReachesTheDevices)
{
    RunConfig cfg = quickCfg();
    EXPECT_EQ(cfg.fm, dram::FarMemTech::Dram); // default
    cfg.fm = dram::FarMemTech::Pcm;
    EXPECT_EQ(makeSystemConfig(cfg).mem.fmTech, dram::FarMemTech::Pcm);

    // End to end: the same memory-bound workload on the FM-only
    // baseline is slower on PCM (88-cycle array reads vs DDR4's 22)
    // and the PCM run carries the wear stats.
    Metrics dram = simulateOne(quickCfg(), tinyWorkload(), "baseline");
    Metrics pcm = simulateOne(cfg, tinyWorkload(), "baseline");
    EXPECT_GT(pcm.timePs, dram.timePs);
    EXPECT_TRUE(pcm.detail.has("fm.wearTotalBytes"));
    EXPECT_TRUE(pcm.detail.has("fm.maxBankWearDelta"));
    EXPECT_FALSE(dram.detail.has("fm.wearTotalBytes"));
}

} // namespace
} // namespace h2::sim
