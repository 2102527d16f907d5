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

/** Key of a core that has reached its instruction target. */
constexpr Tick kCoreDone = ~Tick(0);

/** The core to step next: the earliest key, the lowest index on ties,
 *  picked with selects over the whole array (a data-dependent branch
 *  mispredicts on most steps). */
u32
earliestCore(const std::vector<Tick> &keys)
{
    u32 pick = 0;
    Tick best = keys[0];
    for (u32 c = 1; c < keys.size(); ++c) {
        bool earlier = keys[c] < best;
        pick = earlier ? c : pick;
        best = earlier ? keys[c] : best;
    }
    return pick;
}
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
    // order. A core's key is its now(), or kCoreDone once it reaches
    // the target; a step moves only the stepped core's key.
    auto keyOf = [&](const CoreModel &core) {
        return core.instructions() < instrTarget ? core.now() : kCoreDone;
    };
    std::vector<Tick> keys;
    for (const auto &core : cores)
        keys.push_back(keyOf(*core));
    u32 untilCheck = kCancelCheckStride;
    while (true) {
        u32 pick = earliestCore(keys);
        if (keys[pick] == kCoreDone)
            break;
        cores[pick]->step();
        keys[pick] = keyOf(*cores[pick]);
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
