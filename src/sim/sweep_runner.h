/**
 * @file
 * Parallel sweep engine: dispatches independent (workload, design)
 * simulations across a thread pool, with per-point fault tolerance.
 *
 * Every figure/table program runs a sweep of independent simulations;
 * each simulation is a pure function of (RunConfig, workload, design),
 * so they parallelize without changing any result. The runner memoizes
 * completed RunOutcomes in a mutex-guarded map keyed by
 * "workload|design", which also fixes the result ordering
 * deterministically no matter which worker finishes first. Blocking
 * getters (run, speedup, outcome) simulate on demand, so at the
 * default one job the runner is also the plain memoizing serial API;
 * benches submit their whole sweep up front and then render from the
 * completed result map.
 *
 * Fault tolerance: each point runs under a ScopedFatalCapture, so a
 * bad design spec, an unreadable trace, an invalid config, a thrown
 * exception, or a --run-timeout watchdog expiry fails only that point
 * — the sweep completes and the failure is recorded in the point's
 * RunOutcome (and the result journal, when one is attached). Each
 * point runs once: the simulation is deterministic, so a failure would
 * only repeat. SIGINT marks the remaining points interrupted;
 * interrupted points are never journaled (a --resume run re-simulates
 * them).
 */

#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sim/runner.h"

namespace h2::sim {

class ResultJournal;

class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 picks the hardware concurrency. */
    explicit SweepRunner(const RunConfig &config = {}, u32 jobs = 1);

    /** Waits for all in-flight simulations before tearing down. */
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Attach a journal: every completed (non-interrupted) outcome is
     *  appended durably. Must outlive the runner; set before submit. */
    void setJournal(ResultJournal *j) { journal = j; }

    /**
     * Pre-populate one completed outcome (the --resume path: outcomes
     * loaded from a journal skip re-simulation). Ignored when the key
     * is already done or in flight. @p resultKey must be a key()
     * string — journals store exactly these.
     */
    void seed(const std::string &resultKey, const RunOutcome &outcome);

    /** Enqueue one simulation; duplicates of cached or in-flight work
     *  are ignored. Returns immediately. */
    void submit(const workloads::Workload &workload,
                const std::string &designSpec);

    /** Enqueue the full cross product of @p suite x @p specs, plus the
     *  FM-only baseline per workload when @p withBaseline (needed by
     *  any bench that renders speedups or normalized metrics). */
    void submitSweep(const std::vector<workloads::Workload> &suite,
                     const std::vector<std::string> &specs,
                     bool withBaseline = false);

    /** Structured result for (workload, design): submits it if never
     *  submitted, then blocks until the point completes (successfully
     *  or not). */
    const RunOutcome &outcome(const workloads::Workload &workload,
                              const std::string &designSpec);

    /** Metrics for (workload, design), blocking; throws FatalError
     *  when the point failed. Prefer outcome() to handle failures. */
    const Metrics &run(const workloads::Workload &workload,
                       const std::string &designSpec);

    /** Speedup of @p designSpec over the FM-only baseline; throws
     *  FatalError when either point failed. */
    double speedup(const workloads::Workload &workload,
                   const std::string &designSpec);

    /** Block until every submitted simulation has completed. */
    void waitAll();

    /** All completed outcomes keyed "workload|design" (after waitAll);
     *  map order is deterministic regardless of completion order. */
    const std::map<std::string, RunOutcome> &outcomes();

    u32 jobs() const { return pool.size(); }

    /** The sweep-point key "<workload>|<canonical design spec>" — the
     *  result-map and journal key.
     *  An unparsable spec keeps its raw text (the point then fails
     *  with the parse error instead of killing the submitting
     *  thread). */
    static std::string key(const workloads::Workload &workload,
                           const std::string &designSpec);

  private:
    const RunOutcome &blockOn(const std::string &resultKey);
    RunOutcome executePoint(const std::string &resultKey,
                            const workloads::Workload &workload,
                            const std::string &designSpec);

    RunConfig cfg;
    ThreadPool pool;
    ResultJournal *journal = nullptr;

    std::mutex mu;
    std::condition_variable doneCv;
    std::map<std::string, RunOutcome> done;
    std::set<std::string> inFlight;
};

} // namespace h2::sim
