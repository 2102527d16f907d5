/**
 * @file
 * h2perf: the simulator benchmark's measuring program.
 *
 *   h2perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *          [--spans-out PATH]
 *
 * Runs one benchmark workload repeatedly for S host seconds (at least
 * once) and prints one JSON object: the metrics (medians over the
 * repetitions), the simulated results that serve as the correctness
 * output, and the number of simulations attempted and failed.
 *
 * --trace 0 times whole simulations through sim::SweepRunner.
 * --trace 1 also replays every point through the traced replay
 * (traced_sim.h) and reports per-layer metrics; --spans-out writes the
 * final repetition's spans as CSV. perfbench/README.md defines every
 * metric and workload.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "fidelity.h"
#include "sim/phase_timers.h"
#include "sim/sweep_runner.h"
#include "traced_sim.h"
#include "workloads/workload_spec.h"

namespace {

using namespace h2;
using Clock = std::chrono::steady_clock;

/** Sampling stride of the traced run: one step in 64 is spanned, which
 *  keeps the ~10 clock reads of a sampled step to a few percent of the
 *  run while still sampling thousands of steps per point. */
constexpr u32 kTraceStride = 64;

/** Parallel simulations on sweep-lineup: four jobs on a four-thread
 *  host gave one run in four at twice the median time; three is steady
 *  and still below the hardware thread count. */
constexpr u32 kLineupJobs = 3;

struct Point
{
    workloads::Workload workload;
    std::string design;
};

struct BenchWorkload
{
    sim::RunConfig cfg;
    std::vector<Point> points;
    u32 jobs = 1;
    /** The points are the Figure 12 lineup: paper metrics come from
     *  this workload's own sweep. */
    bool lineup = false;
};

sim::RunConfig
baseConfig(u64 seed, u64 instr, u64 warmup)
{
    sim::RunConfig cfg;
    cfg.nmBytes = 1 * GiB;
    cfg.numCores = 8;
    cfg.queue = true;
    cfg.instrPerCore = instr;
    cfg.warmupInstrPerCore = warmup;
    cfg.seed = seed;
    return cfg;
}

BenchWorkload
lineupWorkload(u64 seed)
{
    BenchWorkload b;
    b.cfg = baseConfig(seed, 300'000, 300'000);
    for (const workloads::Workload &w : workloads::quickSuite()) {
        b.points.push_back({w, "baseline"});
        for (const std::string &spec : sim::evaluatedDesigns())
            b.points.push_back({w, spec});
    }
    b.jobs = std::min(kLineupJobs, ThreadPool::defaultConcurrency());
    b.lineup = true;
    return b;
}

bool
makeWorkload(const std::string &name, u64 seed, BenchWorkload &out)
{
    if (name == "h2-mix-high") {
        out.cfg = baseConfig(seed, 6'000'000, 2'000'000);
        out.points = {{workloads::resolveWorkloadOrFatal(
                           "mix:mcf+lbm+xz+gcc"),
                       "hybrid2"}};
    } else if (name == "h2-xalanc-low") {
        out.cfg = baseConfig(seed, 48'000'000, 8'000'000);
        out.points = {{workloads::findWorkload("xalanc"), "hybrid2"}};
    } else if (name == "sweep-lineup") {
        out = lineupWorkload(seed);
    } else {
        return false;
    }
    return true;
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Simulations attempted and failed, with the first few reasons. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 10)
            errors.push_back(why);
    }
};

/** One untraced pass over every point of a workload. */
struct Pass
{
    double seconds = 0;
    u64 accesses = 0;
    sim::PhaseTotals phases;
    std::vector<sim::RunOutcome> outcomes; ///< in point order
};

Pass
runPass(const BenchWorkload &b)
{
    Pass pass;
    sim::phaseTimersReset();
    auto t0 = Clock::now();
    {
        sim::SweepRunner runner(b.cfg, b.jobs);
        for (const Point &p : b.points)
            runner.submit(p.workload, p.design);
        runner.waitAll();
        for (const Point &p : b.points)
            pass.outcomes.push_back(runner.outcome(p.workload, p.design));
    }
    pass.seconds = seconds(t0, Clock::now());
    pass.phases = sim::phaseTimerTotals();
    for (const sim::RunOutcome &o : pass.outcomes)
        if (o.ok)
            pass.accesses += o.metrics.memAccesses;
    return pass;
}

std::string
pointKey(const Point &p)
{
    return sim::SweepRunner::key(p.workload, p.design);
}

/** Count a pass's simulations; a point fails when it did not complete
 *  or when its Metrics differ from the first pass's (the simulator is
 *  deterministic, so a repeat must reproduce it bit for bit). */
void
checkPass(const BenchWorkload &b, const Pass &pass,
          const std::vector<sim::RunOutcome> &reference, Tally &tally)
{
    for (size_t i = 0; i < b.points.size(); ++i) {
        ++tally.attempted;
        const sim::RunOutcome &o = pass.outcomes[i];
        if (!o.ok)
            tally.fail(pointKey(b.points[i]) + ": " + o.error);
        else if (o.metrics.memAccesses == 0 || o.metrics.timePs == 0)
            tally.fail(pointKey(b.points[i]) + ": empty result");
        else if (!reference.empty() && reference[i].ok &&
                 !(o.metrics == reference[i].metrics))
            tally.fail(pointKey(b.points[i]) +
                       ": repeat differs from the first run");
    }
}

/** Paper accuracy of a lineup pass: Kendall tau and mean |ln| error of
 *  the measured "All" geomean speed-ups against Figure 12a. */
struct Fidelity
{
    double tau = NAN;
    double lnError = NAN;
    std::vector<std::pair<std::string, double>> measured;
};

Fidelity
paperFidelity(const BenchWorkload &lineup,
              const std::vector<sim::RunOutcome> &outcomes)
{
    auto timeOf = [&](const std::string &wl, const std::string &design) {
        for (size_t i = 0; i < lineup.points.size(); ++i)
            if (lineup.points[i].workload.name == wl &&
                lineup.points[i].design == design && outcomes[i].ok)
                return double(outcomes[i].metrics.timePs);
        return 0.0;
    };
    Fidelity f;
    std::vector<double> measured, paper;
    for (const std::string &spec : sim::evaluatedDesigns()) {
        auto speedup = [&](const workloads::Workload &w) {
            double t = timeOf(w.name, spec);
            return t > 0 ? timeOf(w.name, "baseline") / t : 0.0;
        };
        measured.push_back(
            bench::geomeansByClass(workloads::quickSuite(), speedup).all);
        paper.push_back(h2perf::paperSpeedupFor(spec));
        f.measured.emplace_back(spec, measured.back());
    }
    f.tau = h2perf::kendallTau(measured, paper);
    f.lnError = h2perf::meanAbsLogError(measured, paper);
    return f;
}

/** FNV-1a over the JSON of every point's Metrics. */
std::string
digest(const std::vector<sim::RunOutcome> &outcomes)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const sim::RunOutcome &o : outcomes) {
        for (unsigned char ch : o.metrics.toJson()) {
            h ^= ch;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

struct Args
{
    std::string workload;
    u64 seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "h2perf: %s\nusage: h2perf --workload "
                 "h2-mix-high|h2-xalanc-low|sweep-lineup [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out PATH]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (!(a.seconds >= 0))
                usage("--seconds must be a non-negative number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else {
            usage("unknown option " + flag);
        }
        if (end && (*end || v.empty()))
            usage("bad number '" + v + "' for " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

void
writeSpans(const std::string &path, const BenchWorkload &b,
           const std::vector<std::vector<h2perf::Span>> &spans)
{
    static const char *names[] = {"setup",  "core",   "workloads",
                                  "addrmap", "cache", "design", "drain"};
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        h2_fatal("cannot write ", path);
    std::fprintf(f, "point,span,layer,parent,start_ns,end_ns\n");
    for (size_t p = 0; p < spans.size(); ++p) {
        std::string key = pointKey(b.points[p]);
        for (size_t i = 0; i < spans[p].size(); ++i) {
            const h2perf::Span &s = spans[p][i];
            std::fprintf(f, "%s,%zu,%s,%lld,%llu,%llu\n", key.c_str(), i,
                         names[size_t(s.layer)],
                         s.parent == h2perf::kNoParent
                             ? -1LL : static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.endNs));
        }
    }
    if (std::fclose(f) != 0)
        h2_fatal("cannot write ", path);
}

/**
 * Traced mode: each repetition runs the untraced pass (the reference,
 * and the sweep-layer timings), then replays every point serially
 * through the traced replay and requires identical Metrics.
 */
void
runTracedMode(const Args &args, const BenchWorkload &b, Tally &tally,
              std::map<std::string, double> &metrics,
              std::vector<sim::RunOutcome> &reference)
{
    using h2perf::Layer;
    // Per-repetition values, reduced to medians at the end.
    std::map<std::string, std::vector<double>> reps;
    auto add = [&](const std::string &k, double v) { reps[k].push_back(v); };
    h2perf::LayerStats stats;
    std::vector<std::vector<h2perf::Span>> lastSpans;
    auto start = Clock::now();
    for (int rep = 0; rep == 0 || seconds(start, Clock::now()) <
                                      args.seconds;
         ++rep) {
        Pass pass = runPass(b);
        checkPass(b, pass, reference, tally);
        if (reference.empty())
            reference = pass.outcomes;

        std::vector<double> pointS;
        double untracedS = 0;
        for (const sim::RunOutcome &o : pass.outcomes) {
            pointS.push_back(double(o.wallMs) / 1000.0);
            untracedS += double(o.wallMs) / 1000.0;
        }
        add("sweep.point_s.p50", median(pointS));
        add("sweep.point_s.max",
                 *std::max_element(pointS.begin(), pointS.end()));
        add("sweep.busy_frac",
                 untracedS / (double(b.jobs) * pass.seconds));
        add("sweep.phase.setup_s", pass.phases.setupSeconds);
        add("sweep.phase.warmup_s", pass.phases.warmupSeconds);
        add("sweep.phase.measure_s", pass.phases.measureSeconds);

        h2perf::LayerTimes times;
        double tracedS = 0;
        lastSpans.assign(b.points.size(), {});
        for (size_t i = 0; i < b.points.size(); ++i) {
            const Point &p = b.points[i];
            ++tally.attempted;
            try {
                ScopedFatalCapture capture;
                h2perf::TracedRun tr = h2perf::runTraced(
                    b.cfg, p.workload, p.design, kTraceStride);
                tracedS += tr.seconds;
                times.merge(h2perf::selfTimes(tr.spans, tr.clockReadNs));
                if (rep == 0)
                    stats.merge(tr.stats);
                if (!pass.outcomes[i].ok) {
                    tally.fail(pointKey(p) + ": no untraced reference");
                } else if (auto diff = h2perf::metricsMismatch(
                               tr.metrics, pass.outcomes[i].metrics);
                           !diff.empty()) {
                    std::string what;
                    for (const std::string &d : diff)
                        what += (what.empty() ? "" : ",") + d;
                    tally.fail(pointKey(p) +
                               ": traced run differs in " + what);
                }
                if (!args.spansOut.empty())
                    lastSpans[i] = std::move(tr.spans);
            } catch (const std::exception &e) {
                tally.fail(pointKey(p) + ": traced run failed: " +
                           e.what());
            }
        }
        add("workloads.next_ns", times.meanNs(Layer::Workloads));
        add("addrmap.translate_ns", times.meanNs(Layer::Addrmap));
        add("cache.access_ns", times.meanNs(Layer::Cache));
        add("core.self_ns", times.meanNs(Layer::Core));
        add("design.access_ns", times.meanNs(Layer::Design));
        add("design.drain_ns", times.meanNs(Layer::Drain));
        add("trace.slowdown", tracedS / untracedS);
        // Sampled spans scaled up by the stride, plus the always-recorded
        // set-up and drain spans, against the traced run's host time:
        // above 1 means timing a step slows it beyond the measured
        // cost of the clock reads, so the *_ns figures overstate.
        double sampledNs = 0;
        for (Layer l : {Layer::Core, Layer::Workloads, Layer::Addrmap,
                        Layer::Cache, Layer::Design})
            sampledNs += times.selfNs[size_t(l)];
        double spannedNs = sampledNs * kTraceStride +
            times.selfNs[size_t(Layer::Setup)] +
            times.selfNs[size_t(Layer::Drain)];
        add("trace.attributed_frac", spannedNs / 1e9 / tracedS);
    }
    for (const auto &[k, v] : reps)
        metrics[k] = median(v);
    for (const auto &[k, v] : stats.values())
        metrics[k] = v;
    if (!args.spansOut.empty())
        writeSpans(args.spansOut, b, lastSpans);
}

/** Untraced mode: the end-to-end metrics. */
void
runUntracedMode(const Args &args, const BenchWorkload &b, Tally &tally,
                std::map<std::string, double> &metrics,
                std::vector<sim::RunOutcome> &reference,
                Fidelity &fidelity)
{
    std::vector<double> aps, setup;
    auto start = Clock::now();
    for (int rep = 0; rep == 0 || seconds(start, Clock::now()) <
                                      args.seconds;
         ++rep) {
        Pass pass = runPass(b);
        checkPass(b, pass, reference, tally);
        aps.push_back(double(pass.accesses) / pass.seconds);
        setup.push_back(pass.phases.setupSeconds);
        if (reference.empty())
            reference = pass.outcomes;
    }
    metrics["accesses_per_s"] = median(aps);
    metrics["setup_s"] = median(setup);
    metrics["peak_rss_mb"] = peakRssMb();

    // The serial workloads score paper accuracy on an untimed lineup
    // sweep at the same seed, run after their own RSS was read.
    if (b.lineup) {
        fidelity = paperFidelity(b, reference);
    } else {
        BenchWorkload lineup = lineupWorkload(b.cfg.seed);
        Pass pass = runPass(lineup);
        checkPass(lineup, pass, {}, tally);
        fidelity = paperFidelity(lineup, pass.outcomes);
    }
    metrics["paper_rank_tau"] = fidelity.tau;
    metrics["paper_speedup_err"] = fidelity.lnError;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    // glibc raises its mmap threshold as large blocks are freed, so
    // later repetitions would reuse the first one's pages and set-up
    // time would flip between two modes. Pinning the threshold at its
    // 128 KiB default makes every repetition allocate the way a fresh
    // h2sim process does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    setLogQuiet(true);
    BenchWorkload b;
    if (!makeWorkload(args.workload, args.seed, b))
        usage("unknown workload '" + args.workload + "'");

    Tally tally;
    std::map<std::string, double> metrics;
    std::vector<sim::RunOutcome> reference;
    Fidelity fidelity;
    if (args.trace)
        runTracedMode(args, b, tally, metrics, reference);
    else
        runUntracedMode(args, b, tally, metrics, reference, fidelity);
    for (const auto &[k, v] : metrics)
        if (!std::isfinite(v))
            tally.fail("metric " + k + " is not finite");

    JsonWriter w(/*pretty=*/false);
    w.beginObject()
        .kv("workload", args.workload)
        .kv("mode", args.trace ? "traced" : "untraced")
        .kv("seed", args.seed)
        .kv("nproc", ThreadPool::defaultConcurrency())
        .kv("jobs", b.jobs)
        .kv("jobs_valid", b.jobs <= ThreadPool::defaultConcurrency())
        .kv("build_type", H2PERF_BUILD_TYPE)
        .kv("compiler", H2PERF_COMPILER)
        .kv("attempted", tally.attempted)
        .kv("failed", tally.failed);
    w.key("errors").beginArray();
    for (const std::string &e : tally.errors)
        w.value(e);
    w.endArray();
    w.key("results").beginArray();
    for (size_t i = 0; i < reference.size(); ++i) {
        const sim::Metrics &m = reference[i].metrics;
        w.beginObject()
            .kv("workload", b.points[i].workload.name)
            .kv("design", b.points[i].design)
            .kv("time_ps", u64(m.timePs))
            .kv("ipc", m.ipc)
            .kv("served_from_nm", m.servedFromNm)
            .endObject();
    }
    w.endArray();
    w.kv("digest", digest(reference));
    w.key("paper_fig12_all").beginArray();
    for (const auto &[spec, measured] : fidelity.measured)
        w.beginObject()
            .kv("design", spec)
            .kv("measured", measured)
            .kv("paper", h2perf::paperSpeedupFor(spec))
            .endObject();
    w.endArray();
    w.key("metrics").beginObject();
    for (const auto &[k, v] : metrics)
        w.kv(k, std::isfinite(v) ? v : 0.0);
    w.endObject().endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
