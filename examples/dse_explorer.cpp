/**
 * @file
 * Interactive design-space explorer: sweep Hybrid2's cache size,
 * sector size and line size on a chosen workload (the per-workload
 * view behind the paper's Figure 11).
 *
 * Usage: dse_explorer [workload]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/xta.h"
#include "sim/sweep_runner.h"

namespace {

int
run(int argc, char **argv)
{
    using namespace h2;

    std::string workloadName = argc > 1 ? argv[1] : "lbm";
    const workloads::Workload &wl = workloads::findWorkload(workloadName);

    sim::RunConfig cfg;
    cfg.nmBytes = 1 * GiB;
    cfg.instrPerCore = 300'000;
    sim::SweepRunner runner(cfg);

    std::printf("Hybrid2 design space on %s (NM 1GiB)\n\n",
                wl.name.c_str());
    std::printf("%-8s %-8s %-6s %9s %9s\n", "cache", "sector", "line",
                "XTA(KiB)", "speedup");

    double best = 0.0;
    std::string bestSpec;
    for (u64 cacheMb : {64, 128}) {
        for (u32 sector : {2048u, 4096u}) {
            for (u32 line : {64u, 128u, 256u, 512u}) {
                core::Xta xta(cacheMb * MiB / sector, 16, sector / line);
                std::string spec = "hybrid2:cache=" +
                    std::to_string(cacheMb) + ",sector=" +
                    std::to_string(sector) + ",line=" +
                    std::to_string(line);
                double s = runner.speedup(wl, spec);
                std::printf("%-8s %-8u %-6u %9.0f %8.2fx\n",
                            (std::to_string(cacheMb) + "MiB").c_str(),
                            sector, line,
                            double(xta.storageBytes()) / KiB, s);
                if (s > best) {
                    best = s;
                    bestSpec = spec;
                }
            }
        }
    }
    std::printf("\nbest: %s (%.2fx)\n", bestSpec.c_str(), best);
    std::printf("paper's suite-wide best: 64MiB cache, 2KiB sectors, "
                "256B lines\n");
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
