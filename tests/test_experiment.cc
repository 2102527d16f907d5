/**
 * @file
 * Tests for the declarative experiment files (sim/experiment.h) and
 * the structured report rendering (sim/report.h) behind
 * `h2sim --experiment/--format/--out`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/units.h"
#include "h2sim_cli.h"
#include "sim/experiment.h"
#include "sim/report.h"

namespace h2::sim {
namespace {

constexpr const char *kGoodExperiment = R"(
# quick two-design comparison
design   dfc:1024          # canonicalizes to plain "dfc"
design   hybrid2:cache=2
workload lbm
workload mcf
nm-mib   64
fm-mib   1024
cores    1
instr    4000
warmup   0
seed     7
jobs     2
speedup  on
format   json
)";

TEST(ExperimentParse, GoodFileParsesAndCanonicalizes)
{
    std::string err;
    auto spec = ExperimentSpec::parse(kGoodExperiment, &err);
    ASSERT_TRUE(spec) << err;
    ASSERT_EQ(spec->designs.size(), 2u);
    EXPECT_EQ(spec->designs[0], "dfc"); // default line elided
    EXPECT_EQ(spec->designs[1], "hybrid2:cache=2");
    ASSERT_EQ(spec->workloads.size(), 2u);
    EXPECT_EQ(spec->workloads[0].name, "lbm");
    EXPECT_EQ(spec->config.nmBytes, 64 * MiB);
    EXPECT_EQ(spec->config.fmBytes, 1024 * MiB);
    EXPECT_EQ(spec->config.numCores, 1u);
    EXPECT_EQ(spec->config.instrPerCore, 4000u);
    EXPECT_EQ(spec->config.seed, 7u);
    EXPECT_EQ(spec->jobs, 2u);
    EXPECT_TRUE(spec->speedup);
    EXPECT_EQ(spec->format, "json");
}

TEST(ExperimentParse, KeyEqualsValueSpellingAccepted)
{
    std::string err;
    auto spec = ExperimentSpec::parse(
        "design=dfc\nworkload=lbm\ninstr=1000\n", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->designs[0], "dfc");
    EXPECT_EQ(spec->config.instrPerCore, 1000u);
}

TEST(ExperimentParse, ErrorsNameTheOffendingLine)
{
    std::string err;
    EXPECT_FALSE(ExperimentSpec::parse(
        "design dfc\nworkload lbm\nfrobnicate 3\n", &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("frobnicate"), std::string::npos);

    // Directives of knobs that no longer exist get the same message.
    for (std::string key : {"step_batch", "sim-threads"}) {
        EXPECT_FALSE(ExperimentSpec::parse(
            "design dfc\nworkload lbm\n" + key + " 4\n", &err));
        EXPECT_NE(err.find("line 3: unknown directive '" + key + "'"),
                  std::string::npos)
            << err;
    }

    EXPECT_FALSE(
        ExperimentSpec::parse("design frobcache\nworkload lbm\n", &err));
    EXPECT_NE(err.find("unknown design"), std::string::npos) << err;

    EXPECT_FALSE(
        ExperimentSpec::parse("design dfc\nworkload nosuch\n", &err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;

    EXPECT_FALSE(
        ExperimentSpec::parse("design dfc\nworkload lbm\ninstr x\n", &err));
    EXPECT_NE(err.find("bad value"), std::string::npos) << err;
}

TEST(ExperimentParse, FmDirectiveSelectsFarMemoryTech)
{
    std::string err;
    auto spec = ExperimentSpec::parse(
        "design dfc\nworkload lbm\nfm pcm\n", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->config.fm, dram::FarMemTech::Pcm);

    spec = ExperimentSpec::parse("design dfc\nworkload lbm\nfm dram\n",
                                 &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->config.fm, dram::FarMemTech::Dram);

    // Default stays DRAM.
    spec = ExperimentSpec::parse("design dfc\nworkload lbm\n", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->config.fm, dram::FarMemTech::Dram);

    EXPECT_FALSE(ExperimentSpec::parse(
        "design dfc\nworkload lbm\nfm nvram\n", &err));
    EXPECT_NE(err.find("bad value for fm"), std::string::npos) << err;
    EXPECT_NE(err.find("dram|pcm"), std::string::npos) << err;
}

TEST(ExperimentParse, MissingDesignOrWorkloadRejected)
{
    std::string err;
    EXPECT_FALSE(ExperimentSpec::parse("workload lbm\n", &err));
    EXPECT_NE(err.find("no 'design'"), std::string::npos) << err;
    EXPECT_FALSE(ExperimentSpec::parse("design dfc\n", &err));
    EXPECT_NE(err.find("no 'workload'"), std::string::npos) << err;
}

TEST(ExperimentParse, InvalidRunConfigRejected)
{
    std::string err;
    // NM >= FM: the validation satellite catches it before any run.
    EXPECT_FALSE(ExperimentSpec::parse(
        "design dfc\nworkload lbm\nnm-mib 1024\nfm-mib 512\n", &err));
    EXPECT_NE(err.find("NM capacity"), std::string::npos) << err;

    EXPECT_FALSE(ExperimentSpec::parse(
        "design dfc\nworkload lbm\ncores 0\n", &err));
    EXPECT_NE(err.find("numCores"), std::string::npos) << err;

    EXPECT_FALSE(ExperimentSpec::parse(
        "design dfc\nworkload lbm\ninstr 0\n", &err));
    EXPECT_NE(err.find("instrPerCore"), std::string::npos) << err;
}

TEST(ExperimentParse, RangeChecksNameTheSetting)
{
    const std::string head = "design dfc\nworkload lbm\n";
    std::string err;
    // 32-bit settings stop at UINT32_MAX instead of wrapping.
    for (std::string key : {"cores", "jobs"}) {
        EXPECT_FALSE(
            ExperimentSpec::parse(head + key + " 4294967296\n", &err))
            << key;
        EXPECT_NE(err.find("line 3: bad value for " + key +
                           ": '4294967296' (at most 4294967295)"),
                  std::string::npos)
            << err;
    }
    auto spec = ExperimentSpec::parse(head + "jobs 4294967295\n", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->jobs, 4294967295u);

    // A capacity whose byte count overflows u64 is rejected, not
    // wrapped (17592186060800 MiB would wrap to 16 GiB).
    for (std::string key : {"nm-mib", "fm-mib"}) {
        EXPECT_FALSE(
            ExperimentSpec::parse(head + key + " 17592186060800\n", &err))
            << key;
        EXPECT_NE(err.find("bad value for " + key +
                           ": '17592186060800' (at most 17592186044415)"),
                  std::string::npos)
            << err;
    }
    spec = ExperimentSpec::parse(head + "fm-mib 17592186044415\n", &err);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->config.fmBytes, 17592186044415ull * MiB);

    // Past u64 itself is out of range too, not "not a number".
    EXPECT_FALSE(ExperimentSpec::parse(
        head + "seed 18446744073709551616\n", &err));
    EXPECT_NE(err.find("(at most 18446744073709551615)"), std::string::npos)
        << err;
}

TEST(ExperimentParse, OverridesWinOverTheFile)
{
    const SettingValue overrides[] = {{findSetting("cores"), "2"},
                                      {findSetting("format"), "csv"},
                                      {findSetting("speedup"), "off"},
                                      {findSetting("warmup"), "500"}};
    std::string err;
    auto spec = ExperimentSpec::parse(kGoodExperiment, &err, overrides);
    ASSERT_TRUE(spec) << err;
    EXPECT_EQ(spec->config.numCores, 2u);
    EXPECT_EQ(spec->format, "csv");
    EXPECT_FALSE(spec->speedup);
    EXPECT_EQ(spec->config.warmupInstrPerCore, 500u);
    EXPECT_EQ(spec->config.seed, 7u); // not overridden: the file's

    // The finished spec is validated, so an override can break it...
    const SettingValue zeroCores[] = {{findSetting("cores"), "0"}};
    EXPECT_FALSE(ExperimentSpec::parse(kGoodExperiment, &err, zeroCores));
    EXPECT_NE(err.find("numCores"), std::string::npos) << err;
    // ...and a bad override value is named like a bad directive.
    const SettingValue badCores[] = {{findSetting("cores"), "two"}};
    EXPECT_FALSE(ExperimentSpec::parse(kGoodExperiment, &err, badCores));
    EXPECT_EQ(err, "bad value for cores: 'two' (expected a decimal "
                   "integer)");
}

TEST(Settings, TableCoversEveryDirectiveOnce)
{
    const char *keys[] = {"design", "workload", "nm-mib", "fm-mib",
                          "cores",  "instr",    "warmup", "seed",
                          "fm",     "jobs",     "speedup",
                          "run-timeout", "format"};
    ASSERT_EQ(settings().size(), std::size(keys));
    std::string help = settingsHelp();
    for (const char *key : keys) {
        const Setting *s = findSetting(key);
        ASSERT_NE(s, nullptr) << key;
        EXPECT_EQ(s->key, key);
        EXPECT_NE(help.find(std::string("  --") + key + " "),
                  std::string::npos)
            << key;
    }
    // The undocumented underscore alias is gone.
    std::string err;
    EXPECT_FALSE(ExperimentSpec::parse(
        "design dfc\nworkload lbm\nrun_timeout 5\n", &err));
    EXPECT_NE(err.find("line 3: unknown directive 'run_timeout'"),
              std::string::npos)
        << err;
    std::istringstream lines(help);
    for (std::string line; std::getline(lines, line);)
        EXPECT_LE(line.size(), 72u) << line;
}

TEST(ExperimentParse, MissingFileReportsPath)
{
    std::string err;
    EXPECT_FALSE(ExperimentSpec::parseFile("/nonexistent/exp.txt", &err));
    EXPECT_NE(err.find("/nonexistent/exp.txt"), std::string::npos);
}

class ExperimentRunTest : public ::testing::Test
{
  protected:
    static ExperimentSpec
    tinySpec()
    {
        // lbm's real footprint needs the default capacities; shrink
        // the run instead via a tiny instruction budget.
        std::string err;
        auto spec = ExperimentSpec::parse("design dfc\n"
                                          "design baseline\n"
                                          "workload lbm\n"
                                          "instr 3000\n"
                                          "cores 1\n"
                                          "jobs 2\n"
                                          "speedup on\n",
                                          &err);
        EXPECT_TRUE(spec) << err;
        return *spec;
    }
};

TEST_F(ExperimentRunTest, RunsSweepInFileOrder)
{
    ExperimentSpec spec = tinySpec();
    std::vector<RunRecord> records = runExperiment(spec);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].workload, "lbm");
    EXPECT_EQ(records[0].design, "dfc");
    EXPECT_EQ(records[1].design, "baseline");
    for (const auto &rec : records) {
        EXPECT_GT(rec.outcome.metrics.instructions, 0u);
        EXPECT_TRUE(rec.hasSpeedup);
        EXPECT_GT(rec.speedup, 0.0);
    }
    // The baseline's speedup over itself is exactly one.
    EXPECT_DOUBLE_EQ(records[1].speedup, 1.0);
}

TEST_F(ExperimentRunTest, AllFormatsRenderTheSameRuns)
{
    ExperimentSpec spec = tinySpec();
    std::vector<RunRecord> records = runExperiment(spec);

    std::string text =
        renderReport(spec.config, records, OutputFormat::Text);
    std::string json =
        renderReport(spec.config, records, OutputFormat::Json);
    std::string csv = renderReport(spec.config, records, OutputFormat::Csv);

    // Text carries the human-readable block per run.
    EXPECT_NE(text.find("lbm on DFC-1024"), std::string::npos) << text;
    EXPECT_NE(text.find("speedup_vs_baseline"), std::string::npos);

    // JSON carries the same numbers machine-readably.
    EXPECT_NE(json.find("\"design_spec\": \"dfc\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"instructions\": " +
                        std::to_string(
                            records[0].outcome.metrics.instructions)),
              std::string::npos);
    EXPECT_NE(json.find("\"speedup_vs_baseline\""), std::string::npos);

    // CSV: header plus one row per record, design_spec and speedup
    // columns appended.
    ASSERT_EQ(csv.find(Metrics::csvHeader() +
                       ",design_spec,speedup_vs_baseline\n"),
              0u)
        << csv;
    size_t rows = 0;
    for (char c : csv)
        rows += c == '\n';
    EXPECT_EQ(rows, 1 + records.size());
}

/** The CSV design column is the display name, shared by every hybrid2
 *  variant; design_spec tells the variants apart. */
TEST_F(ExperimentRunTest, CsvDesignSpecSeparatesVariants)
{
    std::string err;
    auto spec = ExperimentSpec::parse("design hybrid2\n"
                                      "design hybrid2:noremap\n"
                                      "workload xalanc\n"
                                      "instr 2000\n"
                                      "cores 1\n",
                                      &err);
    ASSERT_TRUE(spec) << err;
    std::vector<RunRecord> records = runExperiment(*spec);
    std::string csv = renderReport(spec->config, records, OutputFormat::Csv);

    std::istringstream lines(csv);
    std::string header;
    std::getline(lines, header);
    size_t at = header.find(",design_spec");
    ASSERT_NE(at, std::string::npos) << header;
    // No field before design_spec holds a comma, so splitting on ','
    // finds its cells.
    size_t index = std::count(header.begin(), header.begin() + at, ',') + 1;

    std::vector<std::string> designs, specs;
    for (std::string row; std::getline(lines, row);) {
        std::vector<std::string> cells;
        std::istringstream fields(row);
        for (std::string cell; std::getline(fields, cell, ',');)
            cells.push_back(cell);
        ASSERT_GT(cells.size(), index) << row;
        designs.push_back(cells[1]);
        specs.push_back(cells[index]);
    }
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(designs[0], designs[1]); // both "HYBRID2"
    EXPECT_EQ(specs[0], "\"hybrid2\"");
    EXPECT_EQ(specs[1], "\"hybrid2:noremap\"");
}

TEST(OutputFormatTest, ParseNames)
{
    EXPECT_EQ(parseOutputFormat("text"), OutputFormat::Text);
    EXPECT_EQ(parseOutputFormat("json"), OutputFormat::Json);
    EXPECT_EQ(parseOutputFormat("csv"), OutputFormat::Csv);
    EXPECT_FALSE(parseOutputFormat("yaml").has_value());
}

TEST(ReportWrite, WritesToFile)
{
    std::string path = ::testing::TempDir() + "h2_report_test.json";
    writeReport("{\"ok\": true}\n", path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"ok\": true}\n");
}

/** A flag the CLI does not know, such as a removed knob, is a usage
 *  error: exit 2 with a message that names it. */
TEST(H2simCli, UnknownFlagExitsTwoNamingIt)
{
    CliRun r = runH2sim("--sim-threads 4 --design hybrid2 --workload lbm");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("unknown option '--sim-threads'"),
              std::string::npos)
        << r.output;
}

/** Flags go through the same range checks as file directives. */
TEST(H2simCli, OutOfRangeCoresExitsTwoNamingIt)
{
    CliRun r =
        runH2sim("--cores 4294967297 --design hybrid2 --workload lbm");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("bad value for cores: '4294967297'"),
              std::string::npos)
        << r.output;
}

/** Design parameters past what the model supports are spec errors:
 *  exit 2 naming the parameter, never an abort. */
TEST(H2simCli, UnsupportedLineGeometryExitsTwoNamingIt)
{
    const std::string run = " --workload xalanc --cores 1 --instr 2000";
    CliRun ideal = runH2sim("--design ideal:8192" + run);
    EXPECT_EQ(ideal.exitCode, 2) << ideal.output;
    EXPECT_NE(ideal.output.find("bad value for ideal line: '8192'"),
              std::string::npos)
        << ideal.output;

    CliRun dfc = runH2sim("--design dfc:8192" + run);
    EXPECT_EQ(dfc.exitCode, 2) << dfc.output;
    EXPECT_NE(dfc.output.find("bad value for dfc line: '8192'"),
              std::string::npos)
        << dfc.output;

    CliRun h2 = runH2sim("--design hybrid2:sector=65536" + run);
    EXPECT_EQ(h2.exitCode, 2) << h2.output;
    EXPECT_NE(h2.output.find("sector (65536) holds 256 lines of line (256)"),
              std::string::npos)
        << h2.output;
}

/** The queue on/off setting is gone: its flag and directive fail like
 *  any unknown input, reports carry no queue key, and a RunConfig that
 *  still asks for the removed mode is rejected by name. */
TEST(H2simCli, RemovedQueueSettingFailsPrecisely)
{
    CliRun flag = runH2sim("--queue off --design baseline --workload lbm");
    EXPECT_EQ(flag.exitCode, 2);
    EXPECT_NE(flag.output.find("unknown option '--queue'"),
              std::string::npos)
        << flag.output;

    std::string path = ::testing::TempDir() + "h2_cli_queue.experiment";
    {
        std::ofstream out(path);
        out << "design baseline\nworkload lbm\nqueue on\n";
    }
    CliRun file = runH2sim("--experiment " + path);
    std::remove(path.c_str());
    EXPECT_EQ(file.exitCode, 2);
    EXPECT_NE(file.output.find("line 3: unknown directive 'queue'"),
              std::string::npos)
        << file.output;

    CliRun json = runH2sim("--design baseline --workload lbm --cores 1 "
                           "--instr 2000 --format json");
    EXPECT_EQ(json.exitCode, 0) << json.output;
    EXPECT_NE(json.output.find("\"seed\""), std::string::npos)
        << json.output;
    EXPECT_EQ(json.output.find("\"queue\""), std::string::npos)
        << json.output;

    RunConfig cfg;
    cfg.queue = false;
    std::string why = validateRunConfig(cfg);
    EXPECT_NE(why.find("queue"), std::string::npos) << why;
}

/** With --experiment, command-line settings override the file's;
 *  designs and workloads still come only from the file. */
TEST(H2simCli, CommandLineSettingsOverrideTheFile)
{
    std::string path = ::testing::TempDir() + "h2_cli_override.experiment";
    {
        std::ofstream out(path);
        out << "design baseline\nworkload lbm\ninstr 2000\ncores 2\n"
               "format csv\n";
    }
    // A bare on/off flag means "on", even followed by another flag.
    CliRun r = runH2sim("--experiment " + path +
                        " --cores 1 --speedup --format json");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("\"num_cores\": 1"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"speedup_vs_baseline\""), std::string::npos)
        << r.output;

    r = runH2sim("--experiment " + path + " --design dfc");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("--experiment is mutually exclusive with "
                            "--design"),
              std::string::npos)
        << r.output;
    std::remove(path.c_str());
}

} // namespace
} // namespace h2::sim
