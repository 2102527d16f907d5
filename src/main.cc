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
 * The design-spec grammar shown by --help and --list-designs is
 * generated from the design registry (sim/design_registry.h), so it
 * can never drift from what the parser accepts. Results render as
 * text, JSON or CSV (--format) to stdout or a file (--out).
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
#include "common/parse.h"
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
        "Options:\n"
        "  --design <spec>      design spec (repeatable); see grammar below\n"
        "  --workload <spec>    workload spec (repeatable): a Table 2 name\n"
        "                       (--list-workloads), trace:<path>, or\n"
        "                       mix:<a>+<b>[+...][:<n>]\n"
        "  --experiment <file>  run a declarative sweep (designs x\n"
        "                       workloads x config) from a file; mutually\n"
        "                       exclusive with --design/--workload\n"
        "  --dump-trace <file>  capture the --workload to a trace file\n"
        "                       (no simulation): text format for .txt/.text\n"
        "                       paths, compact binary otherwise; replay\n"
        "                       with --workload trace:<file>\n"
        "  --format <f>         output format: text|json|csv [text]\n"
        "  --out <path>         write results to <path> instead of stdout\n"
        "  --nm-mib <n>         near-memory (HBM) capacity in MiB [1024]\n"
        "  --fm-mib <n>         far-memory (DDR) capacity in MiB [16384]\n"
        "  --cores <n>          number of cores [8]\n"
        "  --instr <n>          simulated instructions per core [1500000]\n"
        "  --warmup <n>         warmup instructions per core [0]\n"
        "  --seed <n>           trace-generation seed [42]\n"
        "  --queue <on|off>     queued memory-controller model (FR-FCFS\n"
        "                       write queues with drain watermarks); off\n"
        "                       restores the analytic immediate-dispatch\n"
        "                       model [on]\n"
        "  --fm <dram|pcm>      far-memory technology: DDR4 DRAM, or a\n"
        "                       PCM-like NVM with asymmetric read/write\n"
        "                       latency and energy plus per-bank wear\n"
        "                       stats [dram]\n"
        "  --jobs <n>           parallel simulations; 0 = all cores [1]\n"
        "  --speedup            also report speedup over the FM-only\n"
        "                       baseline\n"
        "  --run-timeout <ms>   per-run wall-clock watchdog; a run past\n"
        "                       the deadline fails its sweep point [0=off]\n"
        "  --retries <n>        re-run a failed sweep point up to <n>\n"
        "                       times [0]\n"
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

h2::u64 parseU64(const char *flag, const char *value)
{
    h2::u64 v = 0;
    if (!h2::tryParseU64(value, v))
        usageError(std::string(flag) + " expects a non-negative integer, "
                   "got '" + value + "'");
    return v;
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

    sim::ExperimentSpec experiment;
    std::string experimentFile;
    std::string dumpTracePath;
    std::string formatName;
    std::string outPath;
    bool jobsSet = false;
    bool configFlagSeen = false;
    u32 jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + " requires a value");
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
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
        } else if (arg == "--design") {
            const char *spec = next("--design");
            sim::DesignSpec::ParseResult r = sim::DesignSpec::parse(spec);
            if (!r.ok())
                usageError(r.error);
            experiment.designs.push_back(r.spec->toString());
        } else if (arg == "--workload") {
            experiment.workloads.emplace_back(next("--workload"));
        } else if (arg == "--experiment") {
            experimentFile = next("--experiment");
        } else if (arg == "--dump-trace") {
            dumpTracePath = next("--dump-trace");
        } else if (arg == "--format") {
            formatName = next("--format");
            if (!sim::parseOutputFormat(formatName))
                usageError("--format expects text|json|csv, got '" +
                           formatName + "'");
        } else if (arg == "--out") {
            outPath = next("--out");
        } else if (arg == "--nm-mib") {
            experiment.config.nmBytes =
                parseU64("--nm-mib", next("--nm-mib")) << 20;
            configFlagSeen = true;
        } else if (arg == "--fm-mib") {
            experiment.config.fmBytes =
                parseU64("--fm-mib", next("--fm-mib")) << 20;
            configFlagSeen = true;
        } else if (arg == "--cores") {
            experiment.config.numCores =
                static_cast<u32>(parseU64("--cores", next("--cores")));
            configFlagSeen = true;
        } else if (arg == "--instr") {
            experiment.config.instrPerCore =
                parseU64("--instr", next("--instr"));
            configFlagSeen = true;
        } else if (arg == "--warmup") {
            experiment.config.warmupInstrPerCore =
                parseU64("--warmup", next("--warmup"));
            configFlagSeen = true;
        } else if (arg == "--seed") {
            experiment.config.seed = parseU64("--seed", next("--seed"));
            configFlagSeen = true;
        } else if (arg == "--queue") {
            std::string v = next("--queue");
            if (v == "on")
                experiment.config.queue = true;
            else if (v == "off")
                experiment.config.queue = false;
            else
                usageError("--queue expects on|off, got '" + v + "'");
            configFlagSeen = true;
        } else if (arg == "--fm") {
            std::string v = next("--fm");
            auto tech = h2::dram::parseFarMemTech(v);
            if (!tech)
                usageError("--fm expects dram|pcm, got '" + v + "'");
            experiment.config.fm = *tech;
            configFlagSeen = true;
        } else if (arg == "--jobs") {
            jobs = static_cast<u32>(parseU64("--jobs", next("--jobs")));
            jobsSet = true;
        } else if (arg == "--speedup") {
            experiment.speedup = true;
        } else if (arg == "--run-timeout") {
            experiment.config.runTimeoutMs =
                parseU64("--run-timeout", next("--run-timeout"));
            configFlagSeen = true;
        } else if (arg == "--retries") {
            experiment.config.retries = static_cast<u32>(
                parseU64("--retries", next("--retries")));
            configFlagSeen = true;
        } else if (arg == "--journal") {
            experiment.journalPath = next("--journal");
        } else if (arg == "--resume") {
            experiment.resume = true;
        } else if (arg == "--inject") {
            const char *plan = next("--inject");
            std::string err;
            auto parsed = sim::FaultPlan::parse(plan, &err);
            if (!parsed)
                usageError(err);
            experiment.faults = *std::move(parsed);
        } else {
            std::fprintf(stderr, "h2sim: unknown option '%s'\n\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (!dumpTracePath.empty()) {
        if (!experimentFile.empty())
            usageError("--dump-trace is mutually exclusive with "
                       "--experiment");
        if (!experiment.designs.empty())
            usageError("--dump-trace captures a workload, not a "
                       "simulation; drop --design");
        if (experiment.workloads.size() != 1)
            usageError("--dump-trace needs exactly one --workload");
        if (std::string cfgErr = sim::validateRunConfig(experiment.config);
            !cfgErr.empty())
            usageError("invalid run config: " + cfgErr);
        std::string err;
        auto w = workloads::resolveWorkload(experiment.workloads[0], &err);
        if (!w)
            usageError(err);
        if (w->trace && w->traceStreams != experiment.config.numCores)
            usageError("trace '" + experiment.workloads[0] +
                       "' was captured with " +
                       std::to_string(w->traceStreams) +
                       " streams; re-capture it with --cores " +
                       std::to_string(w->traceStreams));
        // Capture exactly what a System run would consume: one stream
        // per core, warmup + measured instructions each.
        workloads::TraceData data = workloads::captureTrace(
            *w, experiment.config.numCores, experiment.config.seed,
            experiment.config.warmupInstrPerCore +
                experiment.config.instrPerCore);
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

    if (!experimentFile.empty()) {
        if (!experiment.designs.empty() || !experiment.workloads.empty())
            usageError("--experiment is mutually exclusive with "
                       "--design/--workload");
        if (configFlagSeen)
            usageError("--experiment is mutually exclusive with the "
                       "config flags (--nm-mib, --fm-mib, --cores, "
                       "--instr, --warmup, --seed, --queue, --fm, "
                       "--run-timeout, --retries); set them in the "
                       "experiment file instead");
        // CLI-only fields survive the file load (the file cannot set
        // them).
        bool wantSpeedup = experiment.speedup;
        std::string journalPath = std::move(experiment.journalPath);
        bool resume = experiment.resume;
        sim::FaultPlan faults = std::move(experiment.faults);
        std::string err;
        auto fromFile = sim::ExperimentSpec::parseFile(experimentFile, &err);
        if (!fromFile)
            usageError(err);
        experiment = *std::move(fromFile);
        experiment.speedup = experiment.speedup || wantSpeedup;
        experiment.journalPath = std::move(journalPath);
        experiment.resume = resume;
        experiment.faults = std::move(faults);
    } else {
        if (experiment.designs.empty() || experiment.workloads.empty())
            usageError("need at least one --design and one --workload "
                       "(or --experiment <file>)");
        for (const auto &spec : experiment.workloads) {
            std::string err;
            auto w = workloads::resolveWorkload(spec, &err);
            if (!w)
                usageError(err);
            if (w->trace && w->traceStreams != experiment.config.numCores)
                usageError("trace '" + spec + "' was captured with " +
                           std::to_string(w->traceStreams) +
                           " streams; run it with --cores " +
                           std::to_string(w->traceStreams));
            // Keep the resolved form: trace files load exactly once.
            experiment.resolvedWorkloads.push_back(*std::move(w));
        }
        if (std::string cfgErr = sim::validateRunConfig(experiment.config);
            !cfgErr.empty())
            usageError("invalid run config: " + cfgErr);
    }

    // CLI --format wins over the file's `format` directive; both
    // default to text.
    sim::OutputFormat format = sim::OutputFormat::Text;
    if (!formatName.empty())
        format = *sim::parseOutputFormat(formatName);
    else if (!experiment.format.empty())
        format = *sim::parseOutputFormat(experiment.format);

    // CLI --jobs (including 0 = all cores) wins over the file's jobs.
    if (jobsSet)
        experiment.jobs = jobs;

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
