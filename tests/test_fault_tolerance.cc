/**
 * @file
 * Fault-tolerant sweep execution: library-level fatals are capturable
 * (ScopedFatalCapture), a failing point fails only itself, the
 * --run-timeout watchdog cancels runaway runs, --retries re-runs
 * failed points, and deterministic fault injection (sim/fault_plan.h)
 * drives every recovery path on demand.
 *
 * The death tests also pin the preserved CLI behavior: h2_fatal
 * without a capture still exits the process with code 1.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/log.h"
#include "common/units.h"
#include "sim/experiment.h"
#include "sim/fault_plan.h"
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
    EXPECT_TRUE(records[0].ok) << records[0].error;
    EXPECT_TRUE(records[0].hasSpeedup);
    EXPECT_FALSE(records[1].ok);
    EXPECT_FALSE(records[1].hasSpeedup);
    EXPECT_NE(records[1].error.find("nosuchdesign"), std::string::npos);
    EXPECT_TRUE(records[2].ok) << records[2].error;
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
    EXPECT_EQ(o.attempts, 1u);
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

TEST(FaultPlanParse, AcceptsFullGrammar)
{
    std::string err;
    auto plan = FaultPlan::parse(
        "fail=lbm|baseline,timeout=lbm|hybrid2,flaky=lbm|dfc:1024:2",
        &err);
    ASSERT_TRUE(plan) << err;
    EXPECT_EQ(plan->failKeys.count("lbm|baseline"), 1u);
    EXPECT_EQ(plan->timeoutKeys.count("lbm|hybrid2"), 1u);
    // The flaky count is after the final ':'; the key keeps its own.
    ASSERT_EQ(plan->flakyKeys.count("lbm|dfc:1024"), 1u);
    EXPECT_EQ(plan->flakyKeys.at("lbm|dfc:1024"), 2u);
}

TEST(FaultPlanParse, RejectsBadPlans)
{
    std::string err;
    EXPECT_FALSE(FaultPlan::parse("", &err));
    EXPECT_FALSE(FaultPlan::parse("explode=lbm|dfc", &err));
    EXPECT_NE(err.find("explode"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("fail", &err));
    EXPECT_FALSE(FaultPlan::parse("fail=", &err));
    EXPECT_FALSE(FaultPlan::parse("flaky=lbm|dfc", &err));
    EXPECT_FALSE(FaultPlan::parse("flaky=lbm|dfc:zero", &err));
    EXPECT_FALSE(FaultPlan::parse("flaky=lbm|dfc:0", &err));
}

TEST(FaultInjection, InjectedFailureFailsThePoint)
{
    RunConfig cfg = quickCfg();
    auto w = tinyWorkload();
    std::string err;
    auto plan = FaultPlan::parse("fail=" + SweepRunner::key(w, "baseline"),
                                 &err);
    ASSERT_TRUE(plan) << err;

    SweepRunner sweep(cfg, 1);
    sweep.setFaultPlan(&*plan);
    const RunOutcome &bad = sweep.outcome(w, "baseline");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("injected failure"), std::string::npos);
    // Other points are untouched by the plan.
    EXPECT_TRUE(sweep.outcome(w, "dfc").ok);
}

TEST(FaultInjection, FlakySucceedsWithEnoughRetries)
{
    RunConfig cfg = quickCfg();
    cfg.retries = 2;
    auto w = tinyWorkload();
    std::string err;
    auto plan = FaultPlan::parse(
        "flaky=" + SweepRunner::key(w, "baseline") + ":2", &err);
    ASSERT_TRUE(plan) << err;

    SweepRunner sweep(cfg, 1);
    sweep.setFaultPlan(&*plan);
    const RunOutcome &o = sweep.outcome(w, "baseline");
    EXPECT_TRUE(o.ok) << o.error;
    EXPECT_EQ(o.attempts, 3u);

    // A flaky-free retried point reports exactly one attempt, and its
    // metrics match an unretried run bit-for-bit.
    SweepRunner plain(quickCfg(), 1);
    EXPECT_EQ(o.metrics, plain.outcome(w, "baseline").metrics);
}

TEST(FaultInjection, FlakyFailsWithTooFewRetries)
{
    RunConfig cfg = quickCfg();
    cfg.retries = 1;
    auto w = tinyWorkload();
    std::string err;
    auto plan = FaultPlan::parse(
        "flaky=" + SweepRunner::key(w, "baseline") + ":2", &err);
    ASSERT_TRUE(plan) << err;

    SweepRunner sweep(cfg, 1);
    sweep.setFaultPlan(&*plan);
    const RunOutcome &o = sweep.outcome(w, "baseline");
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.attempts, 2u);
    EXPECT_NE(o.error.find("injected flaky failure"), std::string::npos);
}

TEST(FaultInjection, InjectedTimeoutReportsTimedOut)
{
    RunConfig cfg = quickCfg();
    cfg.runTimeoutMs = 30;
    auto w = tinyWorkload();
    std::string err;
    auto plan = FaultPlan::parse(
        "timeout=" + SweepRunner::key(w, "baseline"), &err);
    ASSERT_TRUE(plan) << err;

    SweepRunner sweep(cfg, 1);
    sweep.setFaultPlan(&*plan);
    const RunOutcome &o = sweep.outcome(w, "baseline");
    EXPECT_FALSE(o.ok);
    EXPECT_TRUE(o.timedOut);
}

TEST(FaultInjection, InjectedTimeoutWithoutWatchdogIsAnError)
{
    // No --run-timeout: the injection refuses to hang forever and
    // fails the point immediately instead.
    RunConfig cfg = quickCfg();
    auto w = tinyWorkload();
    std::string err;
    auto plan = FaultPlan::parse(
        "timeout=" + SweepRunner::key(w, "baseline"), &err);
    ASSERT_TRUE(plan) << err;

    SweepRunner sweep(cfg, 1);
    sweep.setFaultPlan(&*plan);
    const RunOutcome &o = sweep.outcome(w, "baseline");
    EXPECT_FALSE(o.ok);
    EXPECT_FALSE(o.timedOut);
    EXPECT_NE(o.error.find("needs --run-timeout"), std::string::npos);
}

} // namespace
} // namespace h2::sim
