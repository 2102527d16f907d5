/**
 * @file
 * Fault-tolerant sweep execution: library-level fatals are capturable
 * (ScopedFatalCapture), a failing point fails only itself, and the
 * --run-timeout watchdog cancels runaway runs. Every recovery path is
 * driven by a real fault: a bad design spec, settings a design or
 * workload does not fit, a trace replayed on the wrong core count, an
 * invalid config, a watchdog expiry, a pending SIGINT.
 *
 * The death tests also pin the preserved CLI behavior: h2_fatal
 * without a capture still exits the process with code 1, and the
 * capacity-bound tests drive the h2sim binary to its exit 3.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/units.h"
#include "h2sim_cli.h"
#include "sim/experiment.h"
#include "sim/interrupt.h"
#include "sim/sweep_runner.h"
#include "workloads/trace_file.h"
#include "workloads/workload_registry.h"
#include "workloads/workload_spec.h"

namespace h2::sim {
namespace {

RunConfig
quickCfg()
{
    RunConfig cfg;
    cfg.nmBytes = 128 * MiB;
    cfg.fmBytes = 512 * MiB;
    cfg.instrPerCore = 20'000;
    cfg.numCores = 2;
    return cfg;
}

workloads::Workload
tinyWorkload(const char *name = "lbm")
{
    auto w = workloads::findWorkload(name);
    w.footprintBytes = 16 * MiB;
    return w;
}

TEST(FatalCapture, FatalThrowsUnderCapture)
{
    ScopedFatalCapture capture;
    try {
        h2_fatal("captured ", 42, " units");
        FAIL() << "h2_fatal returned";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("captured 42 units"),
                  std::string::npos);
    }
}

TEST(FatalCapture, NestedCapturesStayActive)
{
    ScopedFatalCapture outer;
    {
        ScopedFatalCapture inner;
    }
    // The outer capture is still active after the inner one unwinds.
    EXPECT_TRUE(ScopedFatalCapture::active());
    EXPECT_THROW(h2_fatal("still captured"), FatalError);
}

using FatalCaptureDeathTest = ::testing::Test;

TEST(FatalCaptureDeathTest, FatalWithoutCaptureExits1)
{
    // The CLI contract: an uncaptured fatal is an orderly exit(1) with
    // the message on stderr, never an abort or a thrown exception.
    EXPECT_EXIT(h2_fatal("plain fatal"), testing::ExitedWithCode(1),
                "fatal: plain fatal");
}

TEST(FatalCaptureDeathTest, CaptureDoesNotLeakAcrossScope)
{
    {
        ScopedFatalCapture capture;
    }
    EXPECT_FALSE(ScopedFatalCapture::active());
    EXPECT_EXIT(h2_fatal("after capture"), testing::ExitedWithCode(1),
                "fatal: after capture");
}

TEST(SweepFaultTolerance, BadDesignSpecFailsOnlyItsPoint)
{
    SweepRunner sweep(quickCfg(), 2);
    auto w = tinyWorkload();
    sweep.submit(w, "nosuchdesign");
    sweep.submit(w, "dfc");

    const RunOutcome &bad = sweep.outcome(w, "nosuchdesign");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("nosuchdesign"), std::string::npos);

    const RunOutcome &good = sweep.outcome(w, "dfc");
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_GT(good.metrics.instructions, 0u);
}

TEST(SweepFaultTolerance, UndersizedNmFailsOnlyItsPoint)
{
    // hybrid2's default 64 MiB DRAM cache does not fit in 64 MiB of NM
    // once the metadata region is reserved; dfc runs fine there.
    RunConfig cfg = quickCfg();
    cfg.nmBytes = 64 * MiB;
    SweepRunner sweep(cfg, 2);
    auto w = tinyWorkload();
    sweep.submit(w, "hybrid2");
    sweep.submit(w, "dfc");

    const RunOutcome &bad = sweep.outcome(w, "hybrid2");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("nm-mib 64"), std::string::npos) << bad.error;

    const RunOutcome &good = sweep.outcome(w, "dfc");
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_GT(good.metrics.instructions, 0u);
}

TEST(SweepFaultTolerance, DesignParamsThatDoNotFitFailOnlyTheirPoint)
{
    // A 1 MiB cache of 1 MiB sectors is one sector: not a whole number
    // of 16-way XTA sets.
    SweepRunner sweep(quickCfg(), 1);
    auto w = tinyWorkload();
    const RunOutcome &bad =
        sweep.outcome(w, "hybrid2:cache=1,sector=1048576,line=1048576");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("cache=1 MiB"), std::string::npos)
        << bad.error;
    EXPECT_TRUE(sweep.outcome(w, "hybrid2").ok);
}

TEST(SweepFaultTolerance, FootprintBeyondFmFailsOnlyItsPoint)
{
    SweepRunner sweep(quickCfg(), 1);
    auto big = tinyWorkload("mcf");
    big.footprintBytes = 2 * quickCfg().fmBytes;
    const RunOutcome &bad = sweep.outcome(big, "baseline");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("fm-mib"), std::string::npos) << bad.error;
    EXPECT_TRUE(sweep.outcome(tinyWorkload(), "baseline").ok);
}

/** The CSV report line of the point whose design spec is @p spec. */
std::string
csvRow(const std::string &output, const std::string &spec)
{
    size_t at = output.find(",\"" + spec + "\",");
    if (at == std::string::npos)
        return "";
    size_t begin = output.rfind('\n', at) + 1;
    return output.substr(begin, output.find('\n', at) - begin);
}

/** Capacity settings past a design's index bounds fail only that
 *  design's point: exit 3, an error naming fm-mib, and a healthy
 *  baseline point in the same sweep. */
void
expectOnlyTheseFail(const std::string &fmMib,
                    const std::vector<std::string> &failing,
                    const std::string &reason)
{
    std::string args = "--workload xalanc --cores 1 --instr 2000 "
                       "--format csv --fm-mib " + fmMib;
    for (const auto &d : failing)
        args += " --design " + d;
    CliRun r = runH2sim(args + " --design baseline");
    EXPECT_EQ(r.exitCode, 3) << r.output;
    for (const auto &d : failing) {
        std::string row = csvRow(r.output, d);
        EXPECT_NE(row.find(",\"" + d + "\",false,\""), std::string::npos)
            << r.output;
        EXPECT_NE(row.find(reason), std::string::npos) << row;
        EXPECT_NE(row.find("fm-mib"), std::string::npos) << row;
    }
    EXPECT_NE(csvRow(r.output, "baseline").find(",\"baseline\",true,\"\""),
              std::string::npos)
        << r.output;
}

TEST(SweepFaultTolerance, RemapIndexBeyond31BitsFailsOnlyItsPoints)
{
    // 8 TiB of FM is 2^32 2 KiB sectors: past the remap tables' 31-bit
    // indices in hybrid2, MemPod and LGM. Baseline has no remap table.
    expectOnlyTheseFail("8388608", {"hybrid2", "mempod", "lgm"},
                        "31 bits");
}

TEST(SweepFaultTolerance, FlatSpaceBeyond32BitTagsFailsOnlyItsPoint)
{
    // 512 MiB short of 64 TiB of FM: baseline's flat space (FM alone)
    // stays below Table 1's L1 tag range, Chameleon's (NM group
    // segments plus FM) crosses it.
    expectOnlyTheseFail("67108352", {"chameleon"}, "32-bit tags");
}

TEST(SweepFaultTolerance, RunThrowsFatalErrorForFailedPoint)
{
    SweepRunner sweep(quickCfg(), 1);
    auto w = tinyWorkload();
    EXPECT_THROW(sweep.run(w, "nosuchdesign"), FatalError);
    // The sweep object survives and still executes healthy points.
    EXPECT_TRUE(sweep.outcome(w, "baseline").ok);
}

TEST(SweepFaultTolerance, InvalidRunConfigFailsPointsNotProcess)
{
    RunConfig cfg = quickCfg();
    cfg.nmBytes = cfg.fmBytes; // NM must be smaller than FM
    SweepRunner sweep(cfg, 1);
    const RunOutcome &o = sweep.outcome(tinyWorkload(), "baseline");
    EXPECT_FALSE(o.ok);
    EXPECT_NE(o.error.find("invalid run config"), std::string::npos);
}

TEST(SweepFaultTolerance, TraceStreamMismatchFailsOnlyItsPoint)
{
    // Capture a one-stream trace, then sweep it with numCores=2: the
    // replay point fails with the stream-count fatal (captured), the
    // synthetic point is unaffected.
    auto base = tinyWorkload();
    workloads::TraceData data =
        workloads::captureTrace(base, 1, 42, 5'000);
    std::string path = testing::TempDir() + "one_stream.trace";
    workloads::writeTraceFile(path, data,
                              workloads::TraceFormat::Binary);

    std::string err;
    auto traceWl = workloads::resolveWorkload("trace:" + path, &err);
    ASSERT_TRUE(traceWl) << err;

    SweepRunner sweep(quickCfg(), 2);
    const RunOutcome &bad = sweep.outcome(*traceWl, "baseline");
    EXPECT_FALSE(bad.ok);
    const RunOutcome &good = sweep.outcome(base, "baseline");
    EXPECT_TRUE(good.ok) << good.error;
    std::remove(path.c_str());
}

TEST(SweepFaultTolerance, ExperimentCompletesAroundBadDesign)
{
    ExperimentSpec spec;
    spec.config = quickCfg();
    // A tiny footprint that fits quickCfg's capacities.
    spec.workloads = {tinyWorkload()};
    spec.designs = {"dfc", "nosuchdesign", "mempod"};
    spec.speedup = true;
    spec.jobs = 2;

    std::vector<RunRecord> records = runExperiment(spec);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_TRUE(records[0].outcome.ok) << records[0].outcome.error;
    EXPECT_TRUE(records[0].hasSpeedup);
    EXPECT_FALSE(records[1].outcome.ok);
    EXPECT_FALSE(records[1].hasSpeedup);
    EXPECT_NE(records[1].outcome.error.find("nosuchdesign"), std::string::npos);
    EXPECT_TRUE(records[2].outcome.ok) << records[2].outcome.error;
    EXPECT_TRUE(records[2].hasSpeedup);
}

TEST(Watchdog, RunTimeoutCancelsRunawayRun)
{
    RunConfig cfg = quickCfg();
    cfg.instrPerCore = 2'000'000'000; // hours, if left alone
    cfg.runTimeoutMs = 50;
    SweepRunner sweep(cfg, 1);
    const RunOutcome &o = sweep.outcome(tinyWorkload(), "baseline");
    EXPECT_FALSE(o.ok);
    EXPECT_TRUE(o.timedOut);
    EXPECT_NE(o.error.find("run timeout"), std::string::npos);
}

TEST(Interrupt, PendingInterruptMarksPointsInterrupted)
{
    requestInterrupt();
    SweepRunner sweep(quickCfg(), 1);
    const RunOutcome &o = sweep.outcome(tinyWorkload(), "baseline");
    clearInterruptForTest();
    EXPECT_FALSE(o.ok);
    EXPECT_TRUE(o.interrupted);
}

} // namespace
} // namespace h2::sim
