/**
 * @file
 * The capacity argument of the paper, made concrete: a workload whose
 * footprint exceeds the FM alone. DRAM-cache designs expose only the
 * 16 GiB FM to software and cannot host it without paging; Hybrid2 and
 * the migration designs add (most of) the NM to the flat address space
 * and can.
 *
 * Usage: capacity_pressure [footprint_gib]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/units.h"
#include "sim/sweep_runner.h"

namespace {

int
run(int argc, char **argv)
{
    using namespace h2;

    double footprintGib = 16.5;
    if (argc > 1 && !tryParseF64(argv[1], footprintGib))
        h2_fatal("bad value for footprint_gib: '", argv[1],
                 "' (expected a non-negative decimal)");
    // A workload spans at least one 4 KiB page, and its byte count
    // must fit in 64 bits (2^34 GiB).
    if (footprintGib * double(GiB) < 4096.0 ||
        footprintGib >= double(u64(1) << 34))
        h2_fatal("bad value for footprint_gib: '", argv[1],
                 "' (expected at least 0.000004, one 4 KiB page, and less "
                 "than 17179869184)");

    workloads::Workload wl = workloads::findWorkload("cg.D");
    wl.name = "capacity-probe";
    wl.footprintBytes = static_cast<u64>(footprintGib * double(GiB));
    wl.memRatio = 0.05;

    sim::RunConfig cfg;
    cfg.nmBytes = 1 * GiB;
    cfg.instrPerCore = 200'000;
    sim::SweepRunner runner(cfg);

    std::printf("workload footprint: %s; NM 1GiB, FM 16GiB\n\n",
                formatBytes(wl.footprintBytes).c_str());
    std::printf("%-10s %-12s %s\n", "design", "capacity", "verdict");

    mem::EmptyLlcView llc;
    mem::MemSystemParams mp;
    mp.nmBytes = cfg.nmBytes;
    mp.fmBytes = cfg.fmBytes;
    // The FM-only baseline itself cannot host footprints above 16 GiB,
    // so report absolute IPC rather than speedup in that regime.
    bool baselineFits = wl.footprintBytes <= mp.fmBytes;
    for (const std::string &spec : sim::evaluatedDesigns()) {
        u64 capacity = sim::makeDesign(spec, mp, llc)->flatCapacity();
        if (wl.footprintBytes > capacity) {
            std::printf("%-10s %-12s cannot host the footprint: would "
                        "page to disk\n",
                        spec.c_str(), formatBytes(capacity).c_str());
            continue;
        }
        if (baselineFits) {
            std::printf("%-10s %-12s runs in memory, %.2fx over "
                        "baseline\n", spec.c_str(),
                        formatBytes(capacity).c_str(),
                        runner.speedup(wl, spec));
        } else {
            const sim::Metrics &m = runner.run(wl, spec);
            std::printf("%-10s %-12s runs in memory, IPC %.2f\n",
                        spec.c_str(), formatBytes(capacity).c_str(),
                        m.ipc);
        }
    }
    std::printf("\nHybrid2 keeps all but 64MiB + 3.5%% metadata of the "
                "NM in the flat\naddress space (paper: 5.9%%/12.1%%/24.6%% "
                "more memory than caches at 1/2/4GiB).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // SweepRunner::run rethrows a failed point's error; report it like
    // any other fatal error instead of letting it terminate the process.
    try {
        return run(argc, argv);
    } catch (const h2::FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
