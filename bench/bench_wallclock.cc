/**
 * @file
 * Self-timing wall-clock benchmark of the sweep engine.
 *
 * Runs a fixed (workload x design) sweep twice - serial (--jobs=1) and
 * parallel (the --jobs option, default 8) - verifies the two passes
 * produced bit-identical per-simulation Metrics, and emits a JSON
 * record (sims/sec, accesses/sec, parallel speedup, the process's peak
 * resident memory) that seeds the
 * repo's performance trajectory: each perf PR re-runs this and appends
 * a point, so regressions show up as numbers, not vibes.
 *
 * Options (see bench_common.h): --mode, --instr=N, --jobs=N,
 * --out=PATH (default BENCH_wallclock.json), --csv (emit the JSON on
 * stdout instead of the human-readable summary). Exits non-zero if the
 * parallel pass is not bit-identical.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/units.h"
#include "sim/phase_timers.h"

namespace {

using namespace h2;

struct PassResult
{
    u32 jobs = 0;
    double seconds = 0.0;
    u64 sims = 0;
    u64 accesses = 0;
    /** Per-phase attribution (summed across the pass's simulations —
     *  under jobs > 1 the phases overlap, so the sum can exceed
     *  `seconds`). */
    sim::PhaseTotals phases;
    std::map<std::string, sim::RunOutcome> outcomes;

    double simsPerSec() const { return sims / seconds; }
    double accessesPerSec() const { return accesses / seconds; }
};

PassResult
runPass(const bench::BenchOptions &opts, u32 jobs)
{
    sim::phaseTimersReset();
    auto start = std::chrono::steady_clock::now();
    sim::SweepRunner runner(opts.runConfig(1 * GiB), jobs);
    runner.submitSweep(opts.suite(), sim::evaluatedDesigns(),
                       /*withBaseline=*/true);
    runner.waitAll();
    auto end = std::chrono::steady_clock::now();

    PassResult pass;
    pass.jobs = runner.jobs();
    pass.seconds = std::chrono::duration<double>(end - start).count();
    pass.phases = sim::phaseTimerTotals();
    pass.outcomes = runner.outcomes();
    for (auto &[k, o] : pass.outcomes) {
        // Host wall clock: left out of the bit-identity check.
        o.wallMs = 0;
        if (o.ok) {
            ++pass.sims;
            pass.accesses += o.metrics.memAccesses;
        }
    }
    return pass;
}

/** Peak resident set of this process so far, in MB (ru_maxrss is KiB
 *  on Linux). */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace h2;
    auto opts = bench::BenchOptions::parse(argc, argv);
    // Resolve the parallel job count before the banner so the header
    // reports what the timed pass actually uses (default 8, not the
    // hardware-concurrency fallback other benches get for jobs=0).
    if (!opts.jobs)
        opts.jobs = 8;
    bench::banner("Wall-clock: sweep engine throughput",
                  "perf trajectory (no paper figure)", opts);
    setLogQuiet(true);

    PassResult serial = runPass(opts, 1);
    PassResult parallel = runPass(opts, opts.jobs);

    bool identical = serial.outcomes == parallel.outcomes;
    double speedup = serial.seconds / parallel.seconds;
    // A container with fewer hardware threads than --jobs cannot show
    // a real parallel speedup; label the artifact machine-readably so
    // trajectory tooling skips the bogus ratio instead of footnoting it.
    // One job per hardware thread is a valid setup.
    bool parallelValid = ThreadPool::defaultConcurrency() >= opts.jobs;

    auto passJson = [](JsonWriter &w, const PassResult &pass) {
        w.beginObject()
            .kv("jobs", pass.jobs)
            .kv("seconds", pass.seconds)
            .kv("setup_seconds", pass.phases.setupSeconds)
            .kv("warmup_seconds", pass.phases.warmupSeconds)
            .kv("measure_seconds", pass.phases.measureSeconds)
            .kv("sims_per_sec", pass.simsPerSec())
            .kv("accesses_per_sec", pass.accessesPerSec())
            .endObject();
    };
    JsonWriter w;
    w.beginObject()
        .kv("bench", "wallclock")
        .kv("mode", opts.full ? "full" : "quick")
        .kv("instr_per_core", opts.effectiveInstrPerCore())
        .kv("hardware_concurrency", ThreadPool::defaultConcurrency())
        .kv("sims", serial.sims)
        .kv("accesses_per_pass", serial.accesses);
    w.key("serial");
    passJson(w, serial);
    w.key("parallel");
    passJson(w, parallel);
    w.kv("peak_rss_mb", peakRssMb())
        .kv("parallel_speedup", speedup)
        .kv("parallel_valid", parallelValid)
        .kv("bit_identical", identical)
        .endObject();
    const std::string json = w.str() + "\n";

    const std::string outPath =
        opts.jsonOut.empty() ? "BENCH_wallclock.json" : opts.jsonOut;
    if (std::string err = writeFileAtomic(outPath, json); !err.empty())
        h2_fatal(err);

    if (opts.csv) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::printf("sweep: %llu sims, %llu core accesses per pass\n",
                    static_cast<unsigned long long>(serial.sims),
                    static_cast<unsigned long long>(serial.accesses));
        std::printf("jobs=1:  %7.2fs  %6.2f sims/s  %.2e accesses/s\n",
                    serial.seconds, serial.simsPerSec(),
                    serial.accessesPerSec());
        std::printf("         phases: setup %.2fs  warmup %.2fs  "
                    "measure %.2fs\n",
                    serial.phases.setupSeconds,
                    serial.phases.warmupSeconds,
                    serial.phases.measureSeconds);
        std::printf("jobs=%-2u: %7.2fs  %6.2f sims/s  %.2e accesses/s\n",
                    parallel.jobs, parallel.seconds,
                    parallel.simsPerSec(), parallel.accessesPerSec());
        std::printf("parallel speedup: %.2fx (on %u hardware threads%s)\n",
                    speedup, ThreadPool::defaultConcurrency(),
                    parallelValid ? ""
                                  : "; NOT VALID - more jobs than threads");
        std::printf("peak resident memory: %.1f MB\n", peakRssMb());
        std::printf("bit-identical results: %s\n",
                    identical ? "yes" : "NO - DETERMINISM BUG");
        std::printf("wrote %s\n", outPath.c_str());
    }

    if (!identical) {
        std::fprintf(stderr,
                     "bench_wallclock: parallel pass diverged from "
                     "serial pass\n");
        return 1;
    }
    return 0;
}
