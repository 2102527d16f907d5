#include "sim/core_model.h"

#include <algorithm>

#include "common/log.h"

namespace h2::sim {

AddressMap::AddressMap(u64 flatBytes, u64 virtualBytes, u64 seed)
    : flatSize(flatBytes), virtSize(virtualBytes),
      perm(flatBytes / pageBytes, seed)
{
    // Reachable from settings (fm-mib): fatal, so a sweep fails only
    // this point.
    if (virtualBytes > flatBytes)
        h2_fatal("workload footprint exceeds flat memory capacity (",
                 virtualBytes, " > ", flatBytes,
                 " bytes); raise fm-mib, since the paper does not model "
                 "page faults");
    pageLane = SparseLane<u64>(ceilDiv(virtSize, u64(pageBytes)));
}

CoreModel::CoreModel(CoreId coreId, const CoreParams &params,
                     workloads::TraceSource &traceSource,
                     cache::CacheHierarchy &hierarchy,
                     mem::HybridMemory &memorySystem,
                     const AddressMap &addressMap, Addr virtualBase)
    : id(coreId), p(params), trace(traceSource), hier(hierarchy),
      memory(memorySystem), map(addressMap), vbase(virtualBase)
{
    h2_assert(p.issueWidth > 0 && p.maxOutstanding > 0, "bad core params");
    pending.init(p.maxOutstanding);
}

void
CoreModel::step()
{
    workloads::TraceRecord rec = trace.next();
    instrs += u64(rec.instGap) + 1;

    // Non-memory work retires at issueWidth per cycle; keep the
    // sub-cycle remainder so throughput is exact.
    u64 numer = u64(rec.instGap) * p.periodPs + issueCarry;
    clock += numer / p.issueWidth;
    issueCarry = numer % p.issueWidth;

    // Retire constraint: stall on the oldest miss when the MSHRs are
    // full or the ROB window has run ahead too far.
    while (!pending.empty() &&
           (pending.size() >= p.maxOutstanding ||
            instrs - pending.front().instr > p.robInstrs)) {
        clock = std::max(clock, pending.front().completeAt);
        pending.pop_front();
    }

    Addr paddr = map.toPhysical(vbase + rec.vaddr);
    ++nAccesses;
    auto res = hier.access(id, paddr, rec.type);

    if (rec.type == AccessType::Read)
        clock += Tick(res.latencyCycles) * p.periodPs;
    else
        clock += p.periodPs; // stores retire through the store buffer

    if (res.llcMiss) {
        // The demand fill is always a memory read; stores merge into
        // the fetched line in SRAM and reach DRAM on LLC eviction.
        Addr lineAddr = paddr & ~Addr(mem::llcLineBytes - 1);
        auto mr = memory.access(lineAddr, AccessType::Read, clock);
        if (rec.type == AccessType::Read)
            // The pending miss retires when the critical word returns;
            // off-path traffic (trailing fills, posted writes) drains
            // in the background and is only felt through DRAM
            // contention.
            pending.push_back({mr.timeline.completeAt(), instrs});
    }
    if (res.writeback)
        memory.access(*res.writeback, AccessType::Write, clock);
}

void
CoreModel::beginMeasurement()
{
    measInstr0 = instrs;
    measAccess0 = nAccesses;
    measClock0 = clock;
}

void
CoreModel::drain()
{
    pending.forEach(
        [&](const Outstanding &o) { clock = std::max(clock, o.completeAt); });
    pending.clear();
}

} // namespace h2::sim
