/**
 * @file
 * h2sim: CLI around the experiment engine so the simulator is runnable
 * end-to-end outside of the test and bench harnesses.
 *
 * Usage:
 *   h2sim --design <spec> --workload <spec> [options]
 *   h2sim --experiment <file> [options]
 *   h2sim --dump-trace <file> --workload <spec> [options]
 *   h2sim --list-workloads | --list-designs | --help
 *
 * The scenario settings (--design, --cores, --format, ...) are the
 * table in sim/experiment.h that experiment files use too: the file
 * loads first, then settings given here override it. The settings
 * block of --help is rendered from that table, and the design-spec
 * grammar shown by --help and --list-designs is generated from the
 * design registry (sim/design_registry.h), so neither can drift from
 * what the parsers accept. Results render as text, JSON or CSV
 * (--format) to stdout or a file (--out).
 *
 * Sweeps are fault tolerant: a failing point (bad spec deep in a
 * grid, unreadable trace, injected fault, watchdog timeout) is
 * recorded in the report instead of killing the run, --journal makes
 * every completed point durable as it finishes, and --resume skips
 * journaled points after a crash. Ctrl-C flushes the journal and the
 * partial report before exiting.
 *
 * Exit codes:
 *   0    every sweep point succeeded
 *   1    internal failures
 *   2    usage/configuration errors (bad flag, bad design spec,
 *        invalid RunConfig, bad experiment file, unusable journal)
 *   3    the sweep completed but at least one point failed
 *   130  interrupted (SIGINT); journal and partial report were written
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/log.h"
#include "sim/design_registry.h"
#include "sim/experiment.h"
#include "sim/fault_plan.h"
#include "sim/interrupt.h"
#include "sim/report.h"
#include "workloads/trace_file.h"
#include "workloads/workload_registry.h"
#include "workloads/workload_spec.h"

namespace {

void printUsage(std::FILE *out)
{
    std::fputs(
        "h2sim - Hybrid2 hybrid-memory simulator (HPCA'20 reproduction)\n"
        "\n"
        "Usage: h2sim --design <spec> --workload <spec> [options]\n"
        "       h2sim --experiment <file> [options]\n"
        "       h2sim --dump-trace <file> --workload <spec> [options]\n"
        "\n"
        "Settings (each is also an experiment-file directive, `key value`;\n"
        "with --experiment, a setting given here overrides the file's):\n",
        out);
    std::fputs(h2::sim::settingsHelp().c_str(), out);
    std::fputs(
        "\n"
        "Command-line only:\n"
        "  --experiment <file>  run a declarative sweep (designs x\n"
        "                       workloads x settings) from a file; not\n"
        "                       combinable with --design/--workload\n"
        "  --dump-trace <file>  capture the --workload to a trace file\n"
        "                       (no simulation): text format for .txt/.text\n"
        "                       paths, compact binary otherwise; replay\n"
        "                       with --workload trace:<file>\n"
        "  --out <path>         write results to <path> instead of stdout\n"
        "  --journal <path>     append each completed sweep point to\n"
        "                       <path> (JSONL, fsync'd per record) so a\n"
        "                       crash loses at most the points in flight\n"
        "  --resume             with --journal: skip points already in\n"
        "                       the journal and simulate only the rest\n"
        "  --inject <plan>      deterministic fault injection for testing\n"
        "                       recovery paths: comma-separated\n"
        "                       fail=<key>, timeout=<key>, flaky=<key>:<n>\n"
        "                       with <key> = \"workload|design\"\n"
        "  --list-workloads     list registered workloads and exit\n"
        "  --list-designs       list registered designs (with their\n"
        "                       parameter schemas) and exit\n"
        "  -h, --help           show this help and exit\n"
        "\n"
        "Design spec grammar (generated from the design registry):\n",
        out);
    std::fputs(h2::sim::DesignRegistry::instance().grammarHelp().c_str(),
               out);
    std::fputs("\n", out);
    std::fputs(h2::workloads::workloadSpecGrammarHelp(), out);
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "h2sim: %s\n", msg.c_str());
    std::fprintf(stderr, "h2sim: try 'h2sim --help'\n");
    std::exit(2);
}

void
listDesigns()
{
    using namespace h2;
    for (const sim::DesignInfo *d : sim::DesignRegistry::instance().all())
        std::printf("%-10s %s%s\n", d->name.c_str(),
                    d->description.c_str(),
                    d->figure12Order >= 0 ? " [Figure 12 lineup]" : "");
    std::printf("\nDesign spec grammar (generated from the registry):\n%s",
                sim::DesignRegistry::instance().grammarHelp().c_str());
}

} // namespace

int main(int argc, char **argv)
{
    using namespace h2;

    std::vector<sim::SettingValue> settings; // in command-line order
    std::string experimentFile;
    std::string dumpTracePath;
    std::string outPath;
    std::string journalPath;
    bool resume = false;
    sim::FaultPlan faults;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + " requires a value");
            return argv[++i];
        };
        const sim::Setting *setting =
            arg.starts_with("--") ? sim::findSetting(arg.substr(2))
                                  : nullptr;
        if (setting) {
            // An on/off setting with no value means "on" (--speedup).
            bool bare = setting->boolean &&
                        (i + 1 >= argc || argv[i + 1][0] == '-');
            settings.push_back(
                {setting, bare ? std::string() : next(arg.c_str())});
        } else if (arg == "-h" || arg == "--help") {
            printUsage(stdout);
            return 0;
        } else if (arg == "--list-workloads") {
            for (const auto &w : workloads::allWorkloads())
                std::printf("%-16s %-6s footprint=%llu MiB  paper-mpki=%.1f\n",
                            w.name.c_str(), to_string(w.cls).c_str(),
                            static_cast<unsigned long long>(w.footprintBytes >>
                                                            20),
                            w.paperMpki);
            return 0;
        } else if (arg == "--list-designs") {
            listDesigns();
            return 0;
        } else if (arg == "--experiment") {
            experimentFile = next("--experiment");
        } else if (arg == "--dump-trace") {
            dumpTracePath = next("--dump-trace");
        } else if (arg == "--out") {
            outPath = next("--out");
        } else if (arg == "--journal") {
            journalPath = next("--journal");
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--inject") {
            std::string err;
            auto parsed = sim::FaultPlan::parse(next("--inject"), &err);
            if (!parsed)
                usageError(err);
            faults = *std::move(parsed);
        } else {
            std::fprintf(stderr, "h2sim: unknown option '%s'\n\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    // One precedence rule: the experiment file loads first, then the
    // command-line settings override it.
    sim::ExperimentSpec experiment;
    if (!experimentFile.empty()) {
        if (!dumpTracePath.empty())
            usageError("--dump-trace is mutually exclusive with "
                       "--experiment");
        for (const sim::SettingValue &s : settings)
            if (s.setting->repeatable)
                usageError(detail::concat("--experiment is mutually "
                                          "exclusive with --",
                                          s.setting->key));
        std::string err;
        auto fromFile =
            sim::ExperimentSpec::parseFile(experimentFile, &err, settings);
        if (!fromFile)
            usageError(err);
        experiment = *std::move(fromFile);
    } else {
        for (const sim::SettingValue &s : settings)
            if (std::string err =
                    s.setting->apply(s.setting->key, s.value, experiment);
                !err.empty())
                usageError(err);
        if (!dumpTracePath.empty()) {
            if (!experiment.designs.empty())
                usageError("--dump-trace captures a workload, not a "
                           "simulation; drop --design");
            if (experiment.workloads.size() != 1)
                usageError("--dump-trace needs exactly one --workload");
        } else if (experiment.designs.empty() ||
                   experiment.workloads.empty()) {
            usageError("need at least one --design and one --workload "
                       "(or --experiment <file>)");
        }
        if (std::string err = sim::validateExperiment(experiment);
            !err.empty())
            usageError(err);
    }

    if (!dumpTracePath.empty()) {
        // Capture exactly what a System run would consume: one stream
        // per core, warmup + measured instructions each.
        const sim::RunConfig &cfg = experiment.config;
        workloads::TraceData data = workloads::captureTrace(
            experiment.workloads[0], cfg.numCores, cfg.seed,
            cfg.warmupInstrPerCore + cfg.instrPerCore);
        workloads::TraceFormat traceFormat =
            workloads::traceFormatForPath(dumpTracePath);
        workloads::writeTraceFile(dumpTracePath, data, traceFormat);
        std::fprintf(stderr,
                     "h2sim: wrote %llu records (%u streams, %s) to %s\n",
                     static_cast<unsigned long long>(data.totalRecords()),
                     data.meta.streams,
                     traceFormat == workloads::TraceFormat::Text
                         ? "text" : "binary",
                     dumpTracePath.c_str());
        return 0;
    }

    sim::OutputFormat format = sim::OutputFormat::Text;
    if (!experiment.format.empty())
        format = *sim::parseOutputFormat(experiment.format);
    experiment.journalPath = std::move(journalPath);
    experiment.resume = resume;
    experiment.faults = std::move(faults);

    if (experiment.resume && experiment.journalPath.empty())
        usageError("--resume needs --journal <path>");
    if (!experiment.journalPath.empty()) {
        // Fail before the sweep, not after hours of simulation.
        std::FILE *probe =
            std::fopen(experiment.journalPath.c_str(), "ab");
        if (!probe)
            usageError("cannot open journal '" + experiment.journalPath +
                       "' for appending");
        std::fclose(probe);
    }

    // Ctrl-C cancels in-flight runs cooperatively: completed points
    // are already journaled, and the partial report still renders.
    sim::installInterruptHandler();

    bool anyFailed = false;
    bool interrupted = false;
    try {
        // Config/setup fatals inside the sweep machinery (corrupt
        // journal, invalid run config) surface as FatalError here and
        // report as usage/configuration errors, like at parse time.
        ScopedFatalCapture capture;
        std::vector<sim::RunRecord> records =
            sim::runExperiment(experiment);
        for (const auto &rec : records) {
            anyFailed |= !rec.ok;
            interrupted |= rec.interrupted;
        }
        std::string rendered =
            sim::renderReport(experiment.config, records, format);
        sim::writeReport(rendered, outPath);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "h2sim: fatal: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "h2sim: %s\n", e.what());
        return 1;
    }
    if (interrupted || sim::interruptRequested()) {
        std::fprintf(stderr,
                     "h2sim: interrupted; completed points were "
                     "journaled and the partial report was written\n");
        return 130;
    }
    if (anyFailed) {
        std::fprintf(stderr,
                     "h2sim: sweep completed with failed points (see "
                     "report); exit 3\n");
        return 3;
    }
    return 0;
}
