/**
 * @file
 * One simulation: design construction, run configuration and
 * simulateOne(), the pure reference every sweep point runs through.
 * Memoized sweeps and speedups over the FM-only baseline live in
 * sim/sweep_runner.h.
 *
 * Design specs are typed and validated: see sim/design_spec.h for the
 * grammar and sim/design_registry.h for the per-design schemas. The
 * authoritative, always-current grammar text is generated from the
 * registry (`h2sim --list-designs`, DesignRegistry::grammarHelp()).
 */

#pragma once

#include <memory>
#include <string>

#include "sim/design_spec.h"
#include "sim/system.h"

namespace h2::sim {

/** Build a memory organization from a parsed design spec. */
std::unique_ptr<mem::HybridMemory>
makeDesign(const DesignSpec &spec, const mem::MemSystemParams &memParams,
           const mem::LlcView &llc);

/** Build a memory organization from a textual spec; fatal on a bad
 *  spec (use DesignSpec::parse to handle errors programmatically). */
std::unique_ptr<mem::HybridMemory>
makeDesign(const std::string &spec, const mem::MemSystemParams &memParams,
           const mem::LlcView &llc);

/** The designs compared in Figures 12-18, from the registry lineup. */
const std::vector<std::string> &evaluatedDesigns();

/** Scenario knobs for one batch of runs. */
struct RunConfig
{
    u64 nmBytes = 1ull << 30;
    u64 fmBytes = 16ull << 30;
    u64 instrPerCore = 1'500'000;
    u64 warmupInstrPerCore = 0;
    u32 numCores = 8;
    u64 seed = 42;
    /** Queued memory-controller model (mem/mem_controller.h). Off
     *  restores the pre-queue analytic dispatch, for A/B runs and the
     *  noqueue golden suite. */
    bool queue = true;
    /** Far-memory technology (h2sim --fm, experiment-file `fm`): DDR4
     *  DRAM (default) or a PCM-like NVM with asymmetric read/write
     *  latency and energy plus per-bank wear stats. */
    dram::FarMemTech fm = dram::FarMemTech::Dram;
    /** Per-run wall-clock watchdog in ms (0 = none): a run past the
     *  deadline is cancelled with SimTimeoutError and its sweep point
     *  recorded as a timed-out failure (h2sim --run-timeout). */
    u64 runTimeoutMs = 0;
};

/**
 * The structured result of one sweep point: Metrics on success, or a
 * captured failure — a failed point never kills the sweep (or the
 * process). A point runs once: simulateOne is deterministic, so a
 * failure would only repeat.
 *
 * wallMs is host wall clock, the one non-deterministic field; reports
 * never render it (resumed and fresh sweeps stay bit-identical), it
 * lives only in the result journal for post-hoc analysis.
 */
struct RunOutcome
{
    bool ok = false;
    bool timedOut = false;    ///< the --run-timeout watchdog fired
    bool interrupted = false; ///< SIGINT: never journaled
    Metrics metrics;          ///< valid iff ok
    std::string error;        ///< non-empty iff !ok
    u64 wallMs = 0;           ///< wall clock of the run

    bool operator==(const RunOutcome &) const = default;
};

/**
 * Sanity-check @p cfg; returns "" when valid, otherwise an actionable
 * reason (zero cores, zero instruction budget, NM >= FM, ...). The
 * simulation entry points reject invalid configs with h2_fatal; h2sim
 * reports the reason and exits with code 2.
 */
std::string validateRunConfig(const RunConfig &cfg);

/** The SystemConfig a RunConfig expands to (Table 1 + scenario knobs);
 *  fatal if @p cfg fails validateRunConfig. */
SystemConfig makeSystemConfig(const RunConfig &cfg);

/**
 * Simulate one (workload, design) pair to completion.
 *
 * Pure function of its arguments: builds a fresh System, runs it, and
 * returns the metrics. Safe to call concurrently from sweep workers —
 * nothing inside the simulator mutates shared state.
 */
Metrics simulateOne(const RunConfig &cfg, const workloads::Workload &workload,
                    const std::string &designSpec);

} // namespace h2::sim
