/**
 * @file
 * Compare all six evaluated memory organizations on one workload:
 * speedup, NM service, traffic, energy and main-memory capacity - the
 * trade-off table at the heart of the paper.
 *
 * Usage: compare_designs [workload] [nm_gib]
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

    std::string workloadName = argc > 1 ? argv[1] : "omnetpp";
    u64 nmGib = argc > 2 ? parseU64OrFatal("nm_gib", argv[2]) : 1;
    if (nmGib > ~u64(0) / GiB)
        h2_fatal("bad value for nm_gib: '", nmGib, "' (out of range)");

    const workloads::Workload &wl = workloads::findWorkload(workloadName);
    sim::RunConfig cfg;
    cfg.nmBytes = nmGib * GiB;
    cfg.instrPerCore = 500'000;
    // Check the configuration here, so a bad nm_gib is reported as
    // this argument rather than as a failed simulation point.
    if (std::string err = sim::validateRunConfig(cfg); !err.empty())
        h2_fatal("bad value for nm_gib: '", nmGib, "' (", err, ")");
    sim::SweepRunner runner(cfg);

    std::printf("workload: %s (%s MPKI class), NM %lluGiB / FM 16GiB\n\n",
                wl.name.c_str(), to_string(wl.cls).c_str(),
                static_cast<unsigned long long>(nmGib));
    std::printf("%-10s %8s %8s %10s %10s %9s %11s\n", "design",
                "speedup", "NM-serv", "FM-GiB", "NM-GiB", "energy",
                "capacity");

    const sim::Metrics &base = runner.run(wl, "baseline");
    for (const std::string &spec : sim::evaluatedDesigns()) {
        const sim::Metrics &m = runner.run(wl, spec);
        std::printf("%-10s %7.2fx %7.0f%% %10.3f %10.3f %8.2fx %11s\n",
                    spec.c_str(), runner.speedup(wl, spec),
                    m.servedFromNm * 100.0,
                    double(m.fmTrafficBytes) / GiB,
                    double(m.nmTrafficBytes) / GiB,
                    m.dynamicEnergyPj / base.dynamicEnergyPj,
                    formatBytes(m.flatCapacityBytes).c_str());
    }
    std::printf("\nNote how the DRAM caches (tagless/dfc) give up the "
                "NM capacity\nwhile the migration designs and Hybrid2 "
                "keep (most of) it.\n");
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
