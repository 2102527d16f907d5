/**
 * @file
 * Full-system wiring: cores + SRAM hierarchy + the memory organization
 * under test, with global-time interleaving across cores.
 */

#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/core_model.h"
#include "sim/metrics.h"
#include "workloads/workload_registry.h"

namespace h2::sim {

/** The per-run watchdog fired: SystemConfig::runTimeoutMs expired
 *  while the simulation was still stepping. Thrown out of System::run
 *  (cooperatively — the stepping loop polls the deadline); the sweep
 *  runner records the point as a timed-out failure. */
class SimTimeoutError : public std::runtime_error
{
  public:
    explicit SimTimeoutError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** The run was cancelled by a cooperative interrupt (SIGINT — see
 *  sim/interrupt.h). Never retried and never journaled: an interrupted
 *  point reruns on --resume. */
class SimInterruptedError : public std::runtime_error
{
  public:
    explicit SimInterruptedError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** LlcView over the shared LLC for LGM-style policies. */
class HierarchyLlcView : public mem::LlcView
{
  public:
    explicit HierarchyLlcView(const cache::CacheHierarchy &hierarchy)
        : hier(hierarchy)
    {
    }

    u32
    residentLines(Addr base, u64 bytes) const override
    {
        return hier.llcResidentLinesInRange(base, bytes);
    }

  private:
    const cache::CacheHierarchy &hier;
};

/** Builds the memory organization once the LLC view exists. */
using DesignFactory = std::function<std::unique_ptr<mem::HybridMemory>(
    const mem::MemSystemParams &, const mem::LlcView &)>;

class System
{
  public:
    System(const SystemConfig &config, const workloads::Workload &workload,
           const DesignFactory &factory);

    /** Run every core to its instruction budget. */
    void run();

    Metrics metrics() const;

    mem::HybridMemory &memory() { return *mem; }
    const mem::HybridMemory &memory() const { return *mem; }
    cache::CacheHierarchy &hierarchy() { return *hier; }

  private:
    void runUntil(u64 instrTarget);
    void checkCancellation() const;

    SystemConfig cfg;
    /** Watchdog deadline, armed by run() when cfg.runTimeoutMs > 0. */
    std::optional<std::chrono::steady_clock::time_point> deadline;
    workloads::Workload wl;
    std::unique_ptr<cache::CacheHierarchy> hier;
    std::unique_ptr<HierarchyLlcView> llcView;
    std::unique_ptr<mem::HybridMemory> mem;
    std::unique_ptr<AddressMap> map;
    std::vector<std::unique_ptr<workloads::TraceSource>> traces;
    std::vector<std::unique_ptr<CoreModel>> cores;
    bool ran = false;
};

} // namespace h2::sim
