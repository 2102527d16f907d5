/**
 * @file
 * Quickstart: simulate one workload on Hybrid2 and print its metrics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [workload] [nm_gib]
 */

#include <cstdio>
#include <string>

#include "common/parse.h"
#include "common/units.h"
#include "sim/sweep_runner.h"

namespace {

int
run(int argc, char **argv)
{
    using namespace h2;

    std::string workloadName = argc > 1 ? argv[1] : "lbm";
    u64 nmGib = argc > 2 ? parseU64OrFatal("nm_gib", argv[2]) : 1;
    if (nmGib > ~u64(0) / GiB)
        h2_fatal("bad value for nm_gib: '", nmGib, "' (out of range)");

    // 1. Pick a workload from the Table 2 suite.
    const workloads::Workload &wl = workloads::findWorkload(workloadName);
    std::printf("workload %s: class %s, footprint %s\n", wl.name.c_str(),
                to_string(wl.cls).c_str(),
                formatBytes(wl.footprintBytes).c_str());

    // 2. Configure the paper's Table 1 system with the chosen NM size
    //    and a short trace for a fast demo.
    sim::RunConfig cfg;
    cfg.nmBytes = nmGib * GiB;
    cfg.instrPerCore = 500'000;
    // Check the configuration here, so a bad nm_gib is reported as
    // this argument rather than as a failed simulation point.
    if (std::string err = sim::validateRunConfig(cfg); !err.empty())
        h2_fatal("bad value for nm_gib: '", nmGib, "' (", err, ")");
    sim::SweepRunner runner(cfg);

    // 3. Run Hybrid2 and the FM-only baseline; print the comparison.
    const sim::Metrics &h2m = runner.run(wl, "hybrid2");
    const sim::Metrics &base = runner.run(wl, "baseline");
    std::printf("\n%s\n%s\n", base.toString().c_str(),
                h2m.toString().c_str());
    std::printf("speedup over FM-only baseline: %.2fx\n",
                runner.speedup(wl, "hybrid2"));

    // 4. Inspect Hybrid2-specific counters.
    std::printf("\nHybrid2 internals:\n");
    for (const auto &[key, value] : h2m.detail.entries())
        if (key.rfind("dcmc.", 0) == 0)
            std::printf("  %-28s %.0f\n", key.c_str(), value);
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
