/**
 * @file
 * Tests for the parallel sweep engine: any job count must produce
 * bit-identical Metrics for every (workload, design) pair, with a
 * deterministic result ordering regardless of completion order, and
 * must agree exactly with simulateOne, the pure reference it runs.
 *
 * This suite is also the ThreadSanitizer CI target (ci.yml `tsan` job):
 * it drives real concurrent simulations through the pool.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/units.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"

namespace h2::sim {
namespace {

RunConfig
quickCfg()
{
    RunConfig cfg;
    // NM must hold the default hybrid2 64 MiB DRAM-cache slice.
    cfg.nmBytes = 128 * MiB;
    cfg.fmBytes = 512 * MiB;
    cfg.instrPerCore = 20'000;
    cfg.numCores = 2;
    return cfg;
}

std::vector<workloads::Workload>
tinySuite()
{
    std::vector<workloads::Workload> suite;
    for (const char *name : {"lbm", "mcf", "cg.D"}) {
        auto w = workloads::findWorkload(name);
        w.footprintBytes = 16 * MiB;
        suite.push_back(w);
    }
    return suite;
}

const std::vector<std::string> &
tinySpecs()
{
    static const std::vector<std::string> specs = {
        "baseline", "hybrid2", "mempod", "dfc",
    };
    return specs;
}

/** @p a and @p b hold the same keys in the same order, and each
 *  outcome matches on ok, error and metrics (wallMs is wall clock). */
void
expectSameOutcomes(const std::map<std::string, RunOutcome> &a,
                   const std::map<std::string, RunOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
        ASSERT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.ok, ib->second.ok) << ia->first;
        EXPECT_EQ(ia->second.error, ib->second.error) << ia->first;
        EXPECT_EQ(ia->second.metrics, ib->second.metrics) << ia->first;
    }
}

TEST(SweepRunner, BitIdenticalAcrossJobCounts)
{
    SweepRunner serial(quickCfg(), 1);
    SweepRunner parallel(quickCfg(), 8);
    auto suite = tinySuite();
    serial.submitSweep(suite, tinySpecs());
    parallel.submitSweep(suite, tinySpecs());
    for (const auto &w : suite) {
        for (const auto &spec : tinySpecs()) {
            const Metrics &a = serial.run(w, spec);
            const Metrics &b = parallel.run(w, spec);
            EXPECT_EQ(a, b) << w.name << " under " << spec
                            << " diverged between jobs=1 and jobs=8";
        }
    }
    // Whole-map equality doubles as the ordering check: both maps
    // iterate in key order no matter which worker finished first.
    expectSameOutcomes(serial.outcomes(), parallel.outcomes());
}

TEST(SweepRunner, SubmitOrderDoesNotAffectResults)
{
    SweepRunner forward(quickCfg(), 4);
    SweepRunner backward(quickCfg(), 4);
    auto suite = tinySuite();
    auto specs = tinySpecs();
    forward.submitSweep(suite, specs);
    std::reverse(suite.begin(), suite.end());
    auto reversedSpecs = specs;
    std::reverse(reversedSpecs.begin(), reversedSpecs.end());
    backward.submitSweep(suite, reversedSpecs);
    expectSameOutcomes(forward.outcomes(), backward.outcomes());
}

TEST(SweepRunner, AgreesWithSerialRunner)
{
    SweepRunner sweep(quickCfg(), 4);
    auto suite = tinySuite();
    sweep.submitSweep(suite, tinySpecs());
    for (const auto &w : suite)
        for (const auto &spec : tinySpecs())
            EXPECT_EQ(simulateOne(quickCfg(), w, spec), sweep.run(w, spec));
}

TEST(SweepRunner, SpeedupMatchesSerialRunner)
{
    SweepRunner sweep(quickCfg(), 4);
    auto w = tinySuite().front();
    Metrics base = simulateOne(quickCfg(), w, "baseline");
    Metrics design = simulateOne(quickCfg(), w, "hybrid2");
    EXPECT_DOUBLE_EQ(double(base.timePs) / double(design.timePs),
                     sweep.speedup(w, "hybrid2"));
}

TEST(SweepRunner, DuplicateSubmitsAreMemoized)
{
    SweepRunner sweep(quickCfg(), 2);
    auto w = tinySuite().front();
    for (int i = 0; i < 10; ++i)
        sweep.submit(w, "baseline");
    sweep.waitAll();
    EXPECT_EQ(sweep.outcomes().size(), 1u);
    // Blocking getter returns the one cached entry.
    const Metrics &a = sweep.run(w, "baseline");
    const Metrics &b = sweep.run(w, "baseline");
    EXPECT_EQ(&a, &b);
}

TEST(SweepRunner, ZeroJobsPicksHardwareConcurrency)
{
    SweepRunner sweep(quickCfg(), 0);
    EXPECT_EQ(sweep.jobs(), ThreadPool::defaultConcurrency());
}

} // namespace
} // namespace h2::sim
