/**
 * @file
 * Shared harness for the bench programs: `figures` (the paper's
 * figures and tables, bench/figures.cc) and `bench_wallclock`.
 *
 * Each accepts:
 *   --mode=quick|full   quick (default): representative 6-workload
 *                       subset, short traces - for CI and iteration.
 *                       full: all 30 workloads, longer traces.
 *   --csv               machine-readable tables
 *   --workload=<spec>   override the suite (repeatable): a Table 2
 *                       name, trace:<path>, or mix:<a>+<b>[:<n>]
 *                       (workloads/workload_spec.h)
 *   --instr=<n>         override instructions per core
 *   --jobs=<n>          parallel simulations (0 = all hardware threads;
 *                       the default). Results are bit-identical at any
 *                       job count - see sim::SweepRunner.
 *   --out=<path>        where the bench writes its JSON document
 */

#pragma once

#include <string>
#include <vector>

#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"

namespace h2::bench {

struct BenchOptions
{
    bool full = false;
    bool csv = false;
    u64 instrPerCore = 0; ///< 0 = pick by mode
    u32 jobs = 0;         ///< 0 = all hardware threads
    std::string jsonOut;  ///< --out=<path> for JSON-emitting benches
    /** --workload=<spec> overrides, resolved at parse time so trace
     *  files load exactly once. */
    std::vector<workloads::Workload> workloadOverrides;

    static BenchOptions parse(int argc, char **argv);

    u64
    effectiveInstrPerCore() const
    {
        if (instrPerCore)
            return instrPerCore;
        return full ? 3'000'000 : 300'000;
    }

    /** The workloads this bench run evaluates: the --workload
     *  overrides when given, else the mode's registry suite. */
    std::vector<workloads::Workload> suite() const;

    sim::RunConfig
    runConfig(u64 nmBytes) const
    {
        sim::RunConfig cfg;
        cfg.nmBytes = nmBytes;
        cfg.instrPerCore = effectiveInstrPerCore();
        // Warm caches and remap state before measuring, like the
        // paper's SimPoint-sliced methodology.
        cfg.warmupInstrPerCore = effectiveInstrPerCore();
        return cfg;
    }
};

/** Column-aligned (or CSV) table printer. */
class Table
{
  public:
    Table(std::vector<std::string> columns, bool csv);

    void addRow(std::vector<std::string> cells);
    void print() const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    bool csvMode;
};

/** Format a double with @p decimals digits. */
std::string fmt(double v, int decimals = 2);

/** Print a bench banner with the paper artifact it reproduces. */
void banner(const std::string &title, const std::string &paperRef,
            const BenchOptions &opts);

/** Geometric means of @p metric per MPKI class and overall.
 *  Non-positive metric values (degenerate points guarded to 0 via
 *  ratioOrZero) are skipped — a geomean is only defined over strictly
 *  positive values. */
struct ClassGeomeans
{
    double high = 0.0;
    double medium = 0.0;
    double low = 0.0;
    double all = 0.0;
};

ClassGeomeans
geomeansByClass(const std::vector<workloads::Workload> &suite,
                const std::function<double(const workloads::Workload &)>
                    &metric);

} // namespace h2::bench
