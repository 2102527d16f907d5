/**
 * @file
 * Capture → write → load → replay must be bit-identical: for synthetic
 * workloads (multi-program and multi-threaded) and a mix, in both the
 * text and binary formats, replaying a captured trace through a design
 * yields Metrics equal — field for field, doubles included — to the
 * direct synthetic run. This is the acceptance test for the trace
 * frontend (ISSUE 4).
 */

#include <gtest/gtest.h>

#include "sim/sweep_runner.h"
#include "workloads/trace_file.h"
#include "workloads/workload_spec.h"

namespace h2 {
namespace {

using workloads::TraceFormat;

sim::RunConfig
smallConfig()
{
    sim::RunConfig cfg;
    cfg.numCores = 2;
    cfg.instrPerCore = 20'000;
    cfg.warmupInstrPerCore = 5'000;
    cfg.seed = 7;
    return cfg;
}

/** Capture @p spec under @p cfg, replay it, and compare Metrics. */
void
expectRoundTripIdentical(const std::string &spec,
                         const std::string &design, TraceFormat format)
{
    sim::RunConfig cfg = smallConfig();
    workloads::Workload original =
        workloads::resolveWorkloadOrFatal(spec);
    sim::Metrics direct = sim::simulateOne(cfg, original, design);

    workloads::TraceData captured = workloads::captureTrace(
        original, cfg.numCores, cfg.seed,
        cfg.warmupInstrPerCore + cfg.instrPerCore);
    std::string path = ::testing::TempDir() + "h2_rt_" +
                       std::to_string(std::hash<std::string>{}(
                           spec + design)) +
                       (format == TraceFormat::Text ? ".txt" : ".bin");
    workloads::writeTraceFile(path, captured, format);

    std::string error;
    auto replayWl = workloads::resolveWorkload("trace:" + path, &error);
    ASSERT_TRUE(replayWl.has_value()) << error;
    EXPECT_EQ(replayWl->name, original.name);
    sim::Metrics replay = sim::simulateOne(cfg, *replayWl, design);

    EXPECT_EQ(direct, replay)
        << spec << " x " << design << " via "
        << (format == TraceFormat::Text ? "text" : "binary") << "\n"
        << "direct:\n" << direct.toString() << "replay:\n"
        << replay.toString();
}

// Three registry workloads spanning the suite's shapes — lbm
// (multi-program, streaming), mcf (multi-program, pointer-ish), cg.D
// (multi-threaded) — each through both formats (acceptance criterion).

TEST(TraceRoundTrip, LbmTextBitIdentical)
{
    expectRoundTripIdentical("lbm", "dfc", TraceFormat::Text);
}

TEST(TraceRoundTrip, LbmBinaryBitIdentical)
{
    expectRoundTripIdentical("lbm", "dfc", TraceFormat::Binary);
}

TEST(TraceRoundTrip, McfTextBitIdentical)
{
    expectRoundTripIdentical("mcf", "hybrid2", TraceFormat::Text);
}

TEST(TraceRoundTrip, McfBinaryBitIdentical)
{
    expectRoundTripIdentical("mcf", "hybrid2", TraceFormat::Binary);
}

TEST(TraceRoundTrip, CgMultithreadedTextBitIdentical)
{
    expectRoundTripIdentical("cg.D", "baseline", TraceFormat::Text);
}

TEST(TraceRoundTrip, CgMultithreadedBinaryBitIdentical)
{
    expectRoundTripIdentical("cg.D", "baseline", TraceFormat::Binary);
}

// A mix capture replays bit-identically too: the trace frontend is
// closed under every workload kind.

TEST(TraceRoundTrip, MixCaptureBinaryBitIdentical)
{
    expectRoundTripIdentical("mix:mcf+xalanc:2", "dfc",
                             TraceFormat::Binary);
}

// The memoizing runners must never alias a replay with its synthetic
// original (their Metrics agree today, but e.g. a different --instr
// would diverge via trace wrap-around).

TEST(TraceRoundTrip, ReplayDoesNotAliasSyntheticInRunner)
{
    sim::RunConfig cfg = smallConfig();
    workloads::Workload original =
        workloads::resolveWorkloadOrFatal("xalanc");
    workloads::TraceData captured = workloads::captureTrace(
        original, cfg.numCores, cfg.seed,
        cfg.warmupInstrPerCore + cfg.instrPerCore);
    std::string path = ::testing::TempDir() + "h2_rt_alias.bin";
    workloads::writeTraceFile(path, captured, TraceFormat::Binary);
    auto replayWl = workloads::resolveWorkload("trace:" + path, nullptr);
    ASSERT_TRUE(replayWl.has_value());
    EXPECT_EQ(replayWl->cacheName(), "trace:" + path);
    EXPECT_NE(replayWl->cacheName(), original.cacheName());

    sim::SweepRunner runner(cfg);
    const sim::Metrics &direct = runner.run(original, "dfc");
    const sim::Metrics &replay = runner.run(*replayWl, "dfc");
    // Distinct cache slots...
    EXPECT_NE(&direct, &replay);
    // ...holding equal results.
    EXPECT_EQ(direct, replay);
}

// A trace captured for a smaller budget than the run wraps around (with
// a warning) instead of dying — and, being a different input, produces
// different metrics than the un-wrapped synthetic run.

TEST(TraceRoundTrip, ShortTraceWrapsInsteadOfDying)
{
    sim::RunConfig cfg = smallConfig();
    workloads::Workload original =
        workloads::resolveWorkloadOrFatal("mcf");
    workloads::TraceData captured = workloads::captureTrace(
        original, cfg.numCores, cfg.seed,
        (cfg.warmupInstrPerCore + cfg.instrPerCore) / 4);
    std::string path = ::testing::TempDir() + "h2_rt_short.bin";
    workloads::writeTraceFile(path, captured, TraceFormat::Binary);
    auto replayWl = workloads::resolveWorkload("trace:" + path, nullptr);
    ASSERT_TRUE(replayWl.has_value());
    sim::Metrics replay = sim::simulateOne(cfg, *replayWl, "dfc");
    // Completes the full budget (modulo the final record's overshoot).
    EXPECT_GE(replay.instructions, 2 * cfg.instrPerCore);
}

// Replaying with a core count other than the capture's is a config
// error, not silent stream misassignment.

TEST(TraceRoundTrip, WrongCoreCountDies)
{
    workloads::Workload original =
        workloads::resolveWorkloadOrFatal("xalanc");
    workloads::TraceData captured =
        workloads::captureTrace(original, 2, 7, 2000);
    std::string path = ::testing::TempDir() + "h2_rt_cores.bin";
    workloads::writeTraceFile(path, captured, TraceFormat::Binary);
    auto replayWl = workloads::resolveWorkload("trace:" + path, nullptr);
    ASSERT_TRUE(replayWl.has_value());
    EXPECT_DEATH(replayWl->makeSource(0, 4, 7), "captured with 2");
}

} // namespace
} // namespace h2
