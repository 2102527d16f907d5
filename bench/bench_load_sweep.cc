/**
 * @file
 * Injected-load sweep of the queued memory controller.
 *
 * Runs one memory-intensive workload at increasing core counts
 * (1/2/4/8 — the injected load knob) for the two structurally
 * different contended designs (HYBRID2 and the DFC cache) and records
 * how average demand latency and the controller's measured queueing
 * delay respond. Two properties are asserted, and the bench exits
 * non-zero when either fails:
 *
 *  - average demand latency is monotonically non-decreasing in load
 *    (a queued model that got *faster* under contention is broken);
 *  - the measured queue delay is ~0 at the lightest load and strictly
 *    positive at the heaviest (the controller observes contention,
 *    not a constant).
 *
 * Emits a JSON artifact (default BENCH_load_sweep.json) with one
 * point per (design, cores) so CI keeps a contention-response
 * trajectory next to the wall-clock one.
 *
 * Options (bench_common.h): --mode, --instr=N, --workload=<spec>
 * (first override replaces the default lbm), --out=PATH, --csv.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/units.h"
#include "sim/runner.h"
#include "workloads/workload_spec.h"

namespace {

using namespace h2;

struct Point
{
    std::string design;
    u32 cores = 0;
    double avgLatencyPs = 0.0;
    double avgQueueDelayPs = 0.0;
    double fmBusUtilization = 0.0;
    double ipc = 0.0;
    Tick timePs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace h2;
    auto opts = bench::BenchOptions::parse(argc, argv);
    bench::banner("Load sweep: latency vs injected load",
                  "queued-controller contention response (no paper "
                  "figure)",
                  opts);
    setLogQuiet(true);

    workloads::Workload workload =
        opts.workloadOverrides.empty()
            ? workloads::resolveWorkloadOrFatal("lbm")
            : opts.workloadOverrides.front();
    const std::vector<u32> coreCounts = {1, 2, 4, 8};
    const std::vector<std::string> designs = {"hybrid2", "dfc"};

    std::vector<Point> points;
    bool ok = true;
    for (const std::string &design : designs) {
        double prevLatency = 0.0;
        double firstQueueDelay = 0.0, lastQueueDelay = 0.0;
        for (u32 cores : coreCounts) {
            sim::RunConfig cfg = opts.runConfig(1 * GiB);
            cfg.numCores = cores;
            sim::Metrics m = sim::simulateOne(cfg, workload, design);

            Point p;
            p.design = m.design;
            p.cores = cores;
            p.avgLatencyPs = m.detail.get("mem.avgLatencyPs");
            p.avgQueueDelayPs = m.detail.get("mem.avgQueueDelayPs");
            p.fmBusUtilization = m.detail.get("fm.busUtilization");
            p.ipc = m.ipc;
            p.timePs = m.timePs;
            points.push_back(p);

            if (cores == coreCounts.front())
                firstQueueDelay = p.avgQueueDelayPs;
            lastQueueDelay = p.avgQueueDelayPs;

            // Monotone in load, with a hair of slack for near-equal
            // low-load points.
            if (p.avgLatencyPs < prevLatency * 0.995) {
                std::fprintf(stderr,
                             "FAIL: %s avg latency dropped under load "
                             "(%u cores: %.1f ps < %.1f ps)\n",
                             design.c_str(), cores, p.avgLatencyPs,
                             prevLatency);
                ok = false;
            }
            prevLatency = std::max(prevLatency, p.avgLatencyPs);
        }
        if (lastQueueDelay <= 0.0) {
            std::fprintf(stderr,
                         "FAIL: %s queue delay not positive at peak "
                         "load (%.3f ps)\n",
                         design.c_str(), lastQueueDelay);
            ok = false;
        }
        if (firstQueueDelay > lastQueueDelay) {
            std::fprintf(stderr,
                         "FAIL: %s queue delay shrank with load "
                         "(%.1f ps @ %u cores vs %.1f ps @ %u cores)\n",
                         design.c_str(), firstQueueDelay,
                         coreCounts.front(), lastQueueDelay,
                         coreCounts.back());
            ok = false;
        }
    }

    JsonWriter w;
    w.beginObject()
        .kv("bench", "load_sweep")
        .kv("mode", opts.full ? "full" : "quick")
        .kv("workload", workload.name)
        .kv("instr_per_core", opts.effectiveInstrPerCore())
        .kv("monotonic", ok);
    w.key("points").beginArray();
    for (const Point &p : points) {
        w.beginObject()
            .kv("design", p.design)
            .kv("cores", p.cores)
            .kv("avg_latency_ps", p.avgLatencyPs)
            .kv("avg_queue_delay_ps", p.avgQueueDelayPs)
            .kv("fm_bus_utilization", p.fmBusUtilization)
            .kv("ipc", p.ipc)
            .kv("time_ps", p.timePs)
            .endObject();
    }
    w.endArray().endObject();
    const std::string json = w.str() + "\n";

    const std::string outPath =
        opts.jsonOut.empty() ? "BENCH_load_sweep.json" : opts.jsonOut;
    if (std::string err = writeFileAtomic(outPath, json); !err.empty())
        h2_fatal(err);

    if (opts.csv) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::printf("%-8s %5s %16s %18s %8s\n", "design", "cores",
                    "avg latency ps", "queue delay ps", "fm util");
        for (const Point &p : points)
            std::printf("%-8s %5u %16.1f %18.1f %8.3f\n",
                        p.design.c_str(), p.cores, p.avgLatencyPs,
                        p.avgQueueDelayPs, p.fmBusUtilization);
        std::printf("\n%s (wrote %s)\n",
                    ok ? "load response monotone"
                       : "LOAD RESPONSE VIOLATION",
                    outPath.c_str());
    }
    return ok ? 0 : 1;
}
