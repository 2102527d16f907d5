#include "sim/system.h"

#include <algorithm>

#include "common/log.h"
#include "common/units.h"
#include "sim/interrupt.h"
#include "sim/phase_timers.h"

namespace h2::sim {

namespace {
// Steps between watchdog/interrupt polls: frequent enough that a
// cancelled run stops within milliseconds, rare enough that the
// success path stays within measurement noise.
constexpr u32 kCancelCheckStride = 2048;
} // namespace

System::System(const SystemConfig &config,
               const workloads::Workload &workload,
               const DesignFactory &factory)
    : cfg(config), wl(workload)
{
    PhaseTimerScope timer(SimPhase::Setup);
    if (std::string err = validateSystemConfig(cfg); !err.empty())
        h2_fatal("invalid system config: ", err);
    cfg.hier.numCores = cfg.numCores;
    hier = std::make_unique<cache::CacheHierarchy>(cfg.hier);
    llcView = std::make_unique<HierarchyLlcView>(*hier);
    mem = factory(cfg.mem, *llcView);
    h2_assert(mem, "design factory returned nothing");
    // Reachable from settings (fm-mib): fatal, so a sweep fails only
    // this point.
    if (mem->flatCapacity() > hier->addrLimit())
        h2_fatal("flat memory of ", mem->flatCapacity() / MiB,
                 " MiB is beyond the ", hier->addrLimit() / MiB,
                 " MiB the SRAM caches' 32-bit tags can name; lower fm-mib");

    u64 virtualBytes = wl.totalVirtualBytes(cfg.numCores);
    map = std::make_unique<AddressMap>(mem->flatCapacity(), virtualBytes,
                                       splitmix64(cfg.seed));

    CoreParams coreParams = cfg.core;
    coreParams.maxOutstanding =
        std::min(coreParams.maxOutstanding, wl.mlp);

    for (u32 c = 0; c < cfg.numCores; ++c) {
        traces.push_back(wl.makeSource(c, cfg.numCores, cfg.seed));
        Addr vbase = wl.multithreaded
            ? 0 : Addr(c) * wl.perCoreFootprint(cfg.numCores);
        cores.push_back(std::make_unique<CoreModel>(
            c, coreParams, *traces.back(), *hier, *mem, *map, vbase));
    }
}

void
System::checkCancellation() const
{
    if (interruptRequested())
        throw SimInterruptedError(
            detail::concat("interrupted (SIGINT) while simulating '",
                           wl.name, "'"));
    if (deadline && std::chrono::steady_clock::now() >= *deadline)
        throw SimTimeoutError(
            detail::concat("run timeout: '", wl.name, "' exceeded ",
                           cfg.runTimeoutMs, " ms of wall clock"));
}

void
System::runUntil(u64 instrTarget)
{
    // Advance the globally earliest core (lowest index on ties), so
    // cross-core memory contention is observed in (approximate) time
    // order.
    u32 untilCheck = kCancelCheckStride;
    while (true) {
        CoreModel *pick = nullptr;
        for (const auto &core : cores)
            if (core->instructions() < instrTarget &&
                (!pick || core->now() < pick->now()))
                pick = core.get();
        if (!pick)
            break;
        pick->step();
        if (--untilCheck == 0) {
            untilCheck = kCancelCheckStride;
            checkCancellation();
        }
    }
}

void
System::run()
{
    h2_assert(!ran, "System::run called twice");
    if (cfg.runTimeoutMs > 0)
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(cfg.runTimeoutMs);
    auto latestNow = [&] {
        Tick t = 0;
        for (const auto &core : cores)
            t = std::max(t, core->now());
        return t;
    };
    if (cfg.warmupInstrPerCore > 0) {
        PhaseTimerScope timer(SimPhase::Warmup);
        runUntil(cfg.warmupInstrPerCore);
        for (auto &core : cores)
            core->beginMeasurement();
        // Warm-up writes still queued in the controllers belong to
        // warm-up traffic: dispatch them before counters reset.
        mem->drainQueues(latestNow());
        hier->resetStats();
        mem->resetStats();
    }
    {
        PhaseTimerScope timer(SimPhase::Measure);
        runUntil(cfg.warmupInstrPerCore + cfg.instrPerCore);
        for (auto &core : cores)
            core->drain();
        mem->drainQueues(latestNow());
        mem->checkInvariants();
    }
    ran = true;
}

Metrics
System::metrics() const
{
    h2_assert(ran, "metrics requested before run()");
    Metrics m;
    m.workload = wl.name;
    m.design = mem->name();
    Tick measStart = 0;
    Tick end = 0;
    for (const auto &core : cores) {
        m.instructions += core->measuredInstructions();
        m.memAccesses += core->measuredAccesses();
        measStart = std::max(measStart, core->measurementStart());
        end = std::max(end, core->now());
    }
    m.timePs = end - measStart;
    m.cycles = m.timePs / cfg.core.periodPs;
    m.ipc = m.cycles ? double(m.instructions) / double(m.cycles) : 0.0;
    m.llcMisses = hier->llcMisses();
    m.mpki = m.instructions
        ? double(m.llcMisses) / (double(m.instructions) / 1000.0) : 0.0;
    m.memRequests = mem->requests();
    m.servedFromNm = m.memRequests
        ? double(mem->requestsFromNm()) / double(m.memRequests) : 0.0;
    m.fmTrafficBytes = mem->fmDevice().stats().totalBytes();
    if (mem->hasNm())
        m.nmTrafficBytes = mem->nmDevice().stats().totalBytes();
    m.dynamicEnergyPj = mem->dynamicEnergyPj();
    m.flatCapacityBytes = mem->flatCapacity();
    m.footprintBytes = wl.footprintBytes;
    hier->collectStats(m.detail);
    mem->collectStats(m.detail);
    return m;
}

} // namespace h2::sim
