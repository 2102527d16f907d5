#include "traced_sim.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/log.h"
#include "common/rng.h"

namespace h2perf {

using namespace h2;

void
LayerTimes::merge(const LayerTimes &other)
{
    for (size_t i = 0; i < kLayerCount; ++i) {
        calls[i] += other.calls[i];
        selfNs[i] += other.selfNs[i];
    }
}

double
LayerTimes::meanNs(Layer layer) const
{
    auto i = size_t(layer);
    return calls[i] ? selfNs[i] / double(calls[i]) : 0.0;
}

LayerTimes
selfTimes(const std::vector<Span> &spans, double clockReadNs)
{
    std::vector<double> childNs(spans.size(), 0.0);
    std::vector<u32> children(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent != kNoParent) {
            childNs[s.parent] += double(s.endNs - s.startNs);
            ++children[s.parent];
        }
    }
    LayerTimes out;
    for (size_t i = 0; i < spans.size(); ++i) {
        auto l = size_t(spans[i].layer);
        ++out.calls[l];
        out.selfNs[l] += double(spans[i].endNs - spans[i].startNs) -
            childNs[i] - (children[i] + 1) * clockReadNs;
    }
    return out;
}

void
LayerStats::merge(const LayerStats &other)
{
    for (const auto &[k, v] : other.counts)
        counts[k] += v;
    for (const auto &[k, v] : other.ratios) {
        ratios[k].first += v.first;
        ratios[k].second += v.second;
    }
}

std::map<std::string, double>
LayerStats::values() const
{
    std::map<std::string, double> out = counts;
    for (const auto &[k, v] : ratios)
        out[k] = v.second != 0 ? v.first / v.second : 0.0;
    return out;
}

namespace {

using Clock = std::chrono::steady_clock;

/** CoreModel's in-flight miss record and its bounded FIFO. */
struct Outstanding
{
    Tick completeAt;
    u64 instr;
};

class MissRing
{
  public:
    explicit MissRing(u32 capacity) : buf(capacity + 1) {}
    bool empty() const { return head == tail; }
    u64 size() const
    {
        return head <= tail ? tail - head : buf.size() - head + tail;
    }
    const Outstanding &front() const { return buf[head]; }
    void pop_front() { head = wrap(head + 1); }
    void
    push_back(const Outstanding &o)
    {
        buf[tail] = o;
        tail = wrap(tail + 1);
        h2_assert(tail != head, "miss ring overflow");
    }
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (u64 i = head; i != tail; i = wrap(i + 1))
            fn(buf[i]);
    }
    void clear() { head = tail = 0; }

  private:
    u64 wrap(u64 i) const { return i == buf.size() ? 0 : i; }
    std::vector<Outstanding> buf;
    u64 head = 0;
    u64 tail = 0;
};

/** One core's CoreModel state, driven from outside. */
struct TracedCore
{
    TracedCore(CoreId coreId, Addr base,
               std::unique_ptr<workloads::TraceSource> src, u32 mshrs)
        : id(coreId), vbase(base), trace(std::move(src)), pending(mshrs)
    {
    }

    CoreId id;
    Addr vbase;
    std::unique_ptr<workloads::TraceSource> trace;
    Tick clock = 0;
    u64 issueCarry = 0;
    u64 instrs = 0;
    u64 nAccesses = 0;
    u64 measInstr0 = 0;
    u64 measAccess0 = 0;
    Tick measClock0 = 0;
    MissRing pending;
};

class TracedSystem
{
  public:
    TracedSystem(const sim::RunConfig &runCfg,
                 const workloads::Workload &workload,
                 const std::string &designSpec, u32 sampleStride)
        : origin(Clock::now()), stride(sampleStride), wl(workload)
    {
        h2_assert(stride >= 1, "sample stride must be at least 1");
        u64 start = nowNs();
        // Mirrors System's constructor.
        cfg = sim::makeSystemConfig(runCfg);
        if (std::string err = sim::validateSystemConfig(cfg); !err.empty())
            h2_fatal("invalid system config: ", err);
        cfg.hier.numCores = cfg.numCores;
        hier = std::make_unique<cache::CacheHierarchy>(cfg.hier);
        llcView = std::make_unique<sim::HierarchyLlcView>(*hier);
        mem = sim::makeDesign(designSpec, cfg.mem, *llcView);
        h2_assert(mem, "design factory returned nothing");
        map = std::make_unique<sim::AddressMap>(
            mem->flatCapacity(), wl.totalVirtualBytes(cfg.numCores),
            splitmix64(cfg.seed));
        core = cfg.core;
        core.maxOutstanding = std::min(core.maxOutstanding, wl.mlp);
        cores.reserve(cfg.numCores);
        for (u32 c = 0; c < cfg.numCores; ++c) {
            Addr vbase = wl.multithreaded
                ? 0 : Addr(c) * wl.perCoreFootprint(cfg.numCores);
            cores.emplace_back(c, vbase,
                               wl.makeSource(c, cfg.numCores, cfg.seed),
                               core.maxOutstanding);
        }
        record(Layer::Setup, start);
    }

    /** Mirrors System::run. */
    void
    run()
    {
        if (cfg.warmupInstrPerCore > 0) {
            runUntil(cfg.warmupInstrPerCore);
            for (TracedCore &c : cores) {
                c.measInstr0 = c.instrs;
                c.measAccess0 = c.nAccesses;
                c.measClock0 = c.clock;
            }
            drainQueues();
            hier->resetStats();
            mem->resetStats();
        }
        runUntil(cfg.warmupInstrPerCore + cfg.instrPerCore);
        for (TracedCore &c : cores) {
            c.pending.forEach([&](const Outstanding &o) {
                c.clock = std::max(c.clock, o.completeAt);
            });
            c.pending.clear();
        }
        drainQueues();
        mem->checkInvariants();
    }

    /** Mirrors System::metrics. */
    sim::Metrics
    metrics() const
    {
        sim::Metrics m;
        m.workload = wl.name;
        m.design = mem->name();
        Tick measStart = 0;
        Tick end = 0;
        for (const TracedCore &c : cores) {
            m.instructions += c.instrs - c.measInstr0;
            m.memAccesses += c.nAccesses - c.measAccess0;
            measStart = std::max(measStart, c.measClock0);
            end = std::max(end, c.clock);
        }
        m.timePs = end - measStart;
        m.cycles = m.timePs / cfg.core.periodPs;
        m.ipc = m.cycles ? double(m.instructions) / double(m.cycles) : 0.0;
        m.llcMisses = hier->llcMisses();
        m.mpki = m.instructions
            ? double(m.llcMisses) / (double(m.instructions) / 1000.0)
            : 0.0;
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

    LayerStats
    layerStats(const sim::Metrics &m) const
    {
        LayerStats s;
        const StatSet &d = m.detail;
        s.ratios["cache.llc_miss_rate"] = {double(m.llcMisses),
                                           double(m.memAccesses)};
        s.ratios["cache.writebacks_per_miss"] = {d.get("mem.writebacks"),
                                                 double(m.llcMisses)};
        s.counts["design.requests"] = double(mem->requests());
        s.ratios["design.nm_served"] = {double(mem->requestsFromNm()),
                                        double(mem->requests())};
        if (d.has("dcmc.xta.hits")) {
            double hits = d.get("dcmc.xta.hits");
            s.ratios["dcmc.xta_hit_rate"] = {
                hits, hits + d.get("dcmc.xta.misses")};
            s.counts["dcmc.migrations"] = d.get("dcmc.migrations");
            s.ratios["dcmc.meta_per_request"] = {
                d.get("dcmc.metaReads") + d.get("dcmc.metaWrites"),
                double(mem->requests())};
        }
        auto controller = [&](const std::string &name,
                              const mem::MemController &q) {
            std::string p = "mem." + name + ".";
            double reads = double(q.demandAccesses());
            s.counts[p + "demand_accesses"] = reads;
            s.counts[p + "drain_episodes"] = double(q.drainEpisodes());
            s.counts[p + "row_hit_bypasses"] = double(q.rowHitBypasses());
            s.ratios[p + "write_depth_mean"] = {
                d.get(name + ".writeDepthMean"), 1.0};
            s.ratios[p + "avg_read_queue_delay_ps"] = {
                q.avgReadQueueDelayPs() * reads, reads};
            s.ratios[p + "avg_write_queue_delay_ps"] = {
                q.avgWriteQueueDelayPs(), 1.0};
        };
        auto device = [&](const std::string &name,
                          const dram::DramDevice &dev) {
            std::string p = "dram." + name + ".";
            dram::DramStats st = dev.stats();
            s.counts[p + "reads"] = double(st.reads);
            s.counts[p + "writes"] = double(st.writes);
            s.ratios[p + "row_hit_rate"] = {
                double(st.rowHits),
                double(st.rowHits + st.rowMisses + st.rowEmpty)};
            s.ratios[p + "bus_utilization"] = {dev.busUtilization(), 1.0};
        };
        if (mem->hasNm()) {
            controller("nmq", mem->nmController());
            device("nm", mem->nmDevice());
        }
        controller("fmq", mem->fmController());
        device("fm", mem->fmDevice());
        return s;
    }

    std::vector<Span> takeSpans() { return std::move(spans); }

    /** Host ns one clock read adds to a timed interval: the least mean
     *  gap between back-to-back reads over a few batches (the least,
     *  so a preempted batch does not count). */
    double
    clockReadNs() const
    {
        constexpr int kBatches = 8;
        constexpr int kReads = 256;
        double best = 0;
        for (int b = 0; b < kBatches; ++b) {
            u64 first = nowNs();
            u64 last = first;
            for (int i = 0; i < kReads; ++i)
                last = nowNs();
            double gap = double(last - first) / kReads;
            if (b == 0 || gap < best)
                best = gap;
        }
        return best;
    }

  private:
    u64
    nowNs() const
    {
        return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin)
                       .count());
    }

    void
    record(Layer layer, u64 startNs)
    {
        spans.push_back({layer, kNoParent, startNs, nowNs()});
    }

    void
    drainQueues()
    {
        u64 start = nowNs();
        Tick latest = 0;
        for (const TracedCore &c : cores)
            latest = std::max(latest, c.clock);
        mem->drainQueues(latest);
        record(Layer::Drain, start);
    }

    /** System::runUntil's earliest-core order, one step per pick (the
     *  batched scheduler replays exactly this interleaving). */
    void
    runUntil(u64 instrTarget)
    {
        while (true) {
            bool sampled = ++steps % stride == 0;
            u64 start = sampled ? nowNs() : 0;
            TracedCore *pick = nullptr;
            for (TracedCore &c : cores)
                if (c.instrs < instrTarget &&
                    (!pick || c.clock < pick->clock))
                    pick = &c;
            if (!pick)
                break;
            if (!sampled) {
                step<false>(*pick, nullptr);
                continue;
            }
            StepSpans children;
            step<true>(*pick, &children);
            u64 end = nowNs();
            auto parent = u32(spans.size());
            spans.push_back({Layer::Core, kNoParent, start, end});
            for (u32 i = 0; i < children.n; ++i)
                spans.push_back({children.layer[i], parent,
                                 children.start[i], children.end[i]});
        }
    }

    /** A sampled step's child spans, kept on the stack until the step's
     *  own span closes so no bookkeeping lands inside a timed interval.
     *  A step makes at most five layer calls. */
    struct StepSpans
    {
        std::array<Layer, 5> layer;
        std::array<u64, 5> start;
        std::array<u64, 5> end;
        u32 n = 0;

        void
        add(Layer l, u64 s, u64 e)
        {
            layer[n] = l;
            start[n] = s;
            end[n] = e;
            ++n;
        }
    };

    /** CoreModel::step, timing each layer call when @p out is given. */
    template <bool Traced>
    void
    step(TracedCore &c, StepSpans *out)
    {
        u64 t = Traced ? nowNs() : 0;
        workloads::TraceRecord rec = c.trace->next();
        if constexpr (Traced)
            out->add(Layer::Workloads, t, nowNs());
        c.instrs += u64(rec.instGap) + 1;

        u64 numer = u64(rec.instGap) * core.periodPs + c.issueCarry;
        c.clock += numer / core.issueWidth;
        c.issueCarry = numer % core.issueWidth;

        while (!c.pending.empty() &&
               (c.pending.size() >= core.maxOutstanding ||
                c.instrs - c.pending.front().instr > core.robInstrs)) {
            c.clock = std::max(c.clock, c.pending.front().completeAt);
            c.pending.pop_front();
        }

        if constexpr (Traced)
            t = nowNs();
        Addr paddr = map->toPhysical(c.vbase + rec.vaddr);
        if constexpr (Traced)
            out->add(Layer::Addrmap, t, nowNs());
        ++c.nAccesses;
        if constexpr (Traced)
            t = nowNs();
        cache::HierarchyResult res = hier->access(c.id, paddr, rec.type);
        if constexpr (Traced)
            out->add(Layer::Cache, t, nowNs());

        if (rec.type == AccessType::Read)
            c.clock += Tick(res.latencyCycles) * core.periodPs;
        else
            c.clock += core.periodPs;

        if (res.llcMiss) {
            Addr lineAddr = paddr & ~Addr(mem::llcLineBytes - 1);
            if constexpr (Traced)
                t = nowNs();
            mem::MemResult mr =
                mem->access(lineAddr, AccessType::Read, c.clock);
            if constexpr (Traced)
                out->add(Layer::Design, t, nowNs());
            if (rec.type == AccessType::Read)
                c.pending.push_back({mr.timeline.completeAt(), c.instrs});
        }
        if (res.writeback) {
            if constexpr (Traced)
                t = nowNs();
            mem->access(*res.writeback, AccessType::Write, c.clock);
            if constexpr (Traced)
                out->add(Layer::Design, t, nowNs());
        }
    }

    Clock::time_point origin;
    u32 stride;
    u64 steps = 0;
    std::vector<Span> spans;

    // Declared in System's order, so they are destroyed in its order.
    sim::SystemConfig cfg;
    const workloads::Workload &wl;
    std::unique_ptr<cache::CacheHierarchy> hier;
    std::unique_ptr<sim::HierarchyLlcView> llcView;
    std::unique_ptr<mem::HybridMemory> mem;
    std::unique_ptr<sim::AddressMap> map;
    sim::CoreParams core;
    std::vector<TracedCore> cores;
};

} // namespace

TracedRun
runTraced(const sim::RunConfig &cfg, const workloads::Workload &workload,
          const std::string &designSpec, u32 stride)
{
    auto start = Clock::now();
    TracedSystem sys(cfg, workload, designSpec, stride);
    sys.run();
    TracedRun out;
    out.metrics = sys.metrics();
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    out.stats = sys.layerStats(out.metrics);
    out.spans = sys.takeSpans();
    out.clockReadNs = sys.clockReadNs();
    return out;
}

std::vector<std::string>
metricsMismatch(const sim::Metrics &a, const sim::Metrics &b)
{
    std::vector<std::string> out;
    auto check = [&](const char *name, bool same) {
        if (!same)
            out.push_back(name);
    };
    check("workload", a.workload == b.workload);
    check("design", a.design == b.design);
    check("instructions", a.instructions == b.instructions);
    check("time_ps", a.timePs == b.timePs);
    check("mem_accesses", a.memAccesses == b.memAccesses);
    check("llc_misses", a.llcMisses == b.llcMisses);
    check("mem_requests", a.memRequests == b.memRequests);
    check("nm_traffic_bytes", a.nmTrafficBytes == b.nmTrafficBytes);
    check("fm_traffic_bytes", a.fmTrafficBytes == b.fmTrafficBytes);
    check("served_from_nm", a.servedFromNm == b.servedFromNm);
    check("ipc", a.ipc == b.ipc);
    check("detail", a.detail == b.detail);
    if (out.empty() && !(a == b))
        out.push_back("other");
    return out;
}

} // namespace h2perf
