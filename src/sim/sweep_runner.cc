#include "sim/sweep_runner.h"

#include <chrono>

#include "common/log.h"
#include "sim/interrupt.h"
#include "sim/result_journal.h"

namespace h2::sim {

SweepRunner::SweepRunner(const RunConfig &config, u32 jobs)
    : cfg(config), pool(jobs ? jobs : ThreadPool::defaultConcurrency())
{
}

SweepRunner::~SweepRunner()
{
    pool.drain();
}

std::string
SweepRunner::key(const workloads::Workload &workload,
                 const std::string &designSpec)
{
    // Canonical spec form: "dfc" and "dfc:1024" memoize as one run.
    // cacheName keeps a trace:<path> replay distinct from the synthetic
    // workload it was captured from (they share Metrics.workload).
    auto parsed = DesignSpec::parse(designSpec);
    return workload.cacheName() + "|" +
           (parsed.ok() ? parsed.spec->toString() : designSpec);
}

RunOutcome
SweepRunner::executePoint(const std::string &resultKey,
                          const workloads::Workload &workload,
                          const std::string &designSpec)
{
    auto start = std::chrono::steady_clock::now();
    RunOutcome out;
    if (interruptRequested()) {
        out.interrupted = true;
        out.error = detail::concat(
            "interrupted (SIGINT) before simulating '", resultKey, "'");
        return out;
    }
    try {
        // Library-level h2_fatal sites (bad design spec, bad trace,
        // invalid config) throw FatalError inside this scope instead
        // of exiting the process.
        ScopedFatalCapture capture;
        out.metrics = simulateOne(cfg, workload, designSpec);
        out.ok = true;
    } catch (const SimInterruptedError &e) {
        out.interrupted = true;
        out.error = e.what();
    } catch (const SimTimeoutError &e) {
        out.timedOut = true;
        out.error = e.what();
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.wallMs = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return out;
}

void
SweepRunner::seed(const std::string &resultKey, const RunOutcome &outcome)
{
    std::unique_lock lock(mu);
    if (done.count(resultKey) || inFlight.count(resultKey))
        return;
    done.emplace(resultKey, outcome);
}

void
SweepRunner::submit(const workloads::Workload &workload,
                    const std::string &designSpec)
{
    std::string k = key(workload, designSpec);
    {
        std::unique_lock lock(mu);
        if (done.count(k) || inFlight.count(k))
            return;
        inFlight.insert(k);
    }
    // The workload is copied into the task: benches routinely pass
    // temporaries and the simulation outlives the submit call.
    pool.submit([this, k, workload, designSpec] {
        RunOutcome out = executePoint(k, workload, designSpec);
        // Interrupted points are never journaled: a --resume run must
        // re-simulate them, not trust a half-cancelled record.
        if (journal && !out.interrupted)
            journal->append(k, out);
        {
            std::unique_lock lock(mu);
            inFlight.erase(k);
            done.insert_or_assign(k, std::move(out));
        }
        doneCv.notify_all();
    });
}

void
SweepRunner::submitSweep(const std::vector<workloads::Workload> &suite,
                         const std::vector<std::string> &specs,
                         bool withBaseline)
{
    for (const auto &w : suite) {
        if (withBaseline)
            submit(w, "baseline");
        for (const auto &spec : specs)
            submit(w, spec);
    }
}

const RunOutcome &
SweepRunner::blockOn(const std::string &resultKey)
{
    std::unique_lock lock(mu);
    doneCv.wait(lock, [&] { return done.count(resultKey) != 0; });
    // std::map references are stable; safe to return across the lock.
    return done.at(resultKey);
}

const RunOutcome &
SweepRunner::outcome(const workloads::Workload &workload,
                     const std::string &designSpec)
{
    submit(workload, designSpec);
    return blockOn(key(workload, designSpec));
}

const Metrics &
SweepRunner::run(const workloads::Workload &workload,
                 const std::string &designSpec)
{
    const RunOutcome &o = outcome(workload, designSpec);
    if (!o.ok)
        throw FatalError(detail::concat(key(workload, designSpec), ": ",
                                        o.error));
    return o.metrics;
}

double
SweepRunner::speedup(const workloads::Workload &workload,
                     const std::string &designSpec)
{
    submit(workload, "baseline");
    submit(workload, designSpec);
    const Metrics &base = run(workload, "baseline");
    const Metrics &design = run(workload, designSpec);
    h2_assert(design.timePs > 0, "zero runtime");
    return double(base.timePs) / double(design.timePs);
}

void
SweepRunner::waitAll()
{
    std::unique_lock lock(mu);
    doneCv.wait(lock, [this] { return inFlight.empty(); });
}

const std::map<std::string, RunOutcome> &
SweepRunner::outcomes()
{
    waitAll();
    return done;
}

} // namespace h2::sim
