#include "mem/hybrid_memory.h"

#include "common/log.h"
#include "common/rng.h"

namespace h2::mem {

HybridMemory::HybridMemory(const MemSystemParams &params, bool withNm)
    : sys(params),
      nmCtrl(withNm ? std::make_unique<MemController>(
                          params.nmDeviceParams())
                    : nullptr),
      fmCtrl(std::make_unique<MemController>(params.fmDeviceParams()))
{
}

MemResult
HybridMemory::access(Addr addr, AccessType type, Tick now)
{
    h2_assert(addr + llcLineBytes <= flatCapacity(), name(),
              ": access beyond flat capacity: ", addr);
    Timeline tl(now);
    tl.advance(sys.controllerLatencyPs);
    bool fromNm = serve(addr, type, tl);
    flushPostedWrites();
    recordService(type, fromNm, tl);
    return {tl, fromNm};
}

void
HybridMemory::flushPostedWrites()
{
    for (const PostedWrite &w : postedWrites)
        w.ctrl->post(w.addr, w.bytes, w.readyAt);
    postedWrites.clear();
}

void
HybridMemory::recordService(AccessType type, bool fromNm,
                            const Timeline &tl)
{
    if (fromNm)
        ++nFromNm;
    if (type == AccessType::Read) {
        ++nDemandReads;
        demandLatencyPsTotal += tl.criticalPathPs();
        if (fromNm) {
            ++nDemandReadsFromNm;
            nmLatencyPsTotal += tl.criticalPathPs();
        } else {
            missLatencyPsTotal += tl.criticalPathPs();
        }
    } else {
        ++nWritebacks;
        writebackLatencyPsTotal += tl.criticalPathPs();
    }
}

MemController &
HybridMemory::nmController()
{
    h2_assert(nmCtrl, name(), " has no near memory");
    return *nmCtrl;
}

const MemController &
HybridMemory::nmController() const
{
    h2_assert(nmCtrl, name(), " has no near memory");
    return *nmCtrl;
}

void
HybridMemory::drainQueues(Tick now)
{
    h2_assert(postedWrites.empty(),
              "drainQueues with unflushed posted writes");
    if (nmCtrl)
        nmCtrl->drainAll(now);
    fmCtrl->drainAll(now);
}

double
HybridMemory::dynamicEnergyPj() const
{
    double e = fmDevice().dynamicEnergyPj();
    if (nmCtrl)
        e += nmDevice().dynamicEnergyPj();
    return e;
}

void
HybridMemory::nmMetaRegionAccess(AccessType type, u64 regionBytes,
                                 Timeline &tl)
{
    Addr addr = (splitmix64(metaRotor++) * 64) % regionBytes;
    addr &= ~Addr(63);
    if (type == AccessType::Read) {
        ++nMetaReads;
        tl.serialize(nmc().access(addr, 64, type, tl.now()));
    } else {
        ++nMetaWrites;
        postWrite(nmc(), addr, 64, tl.now());
    }
}

double
HybridMemory::avgLatencyPs() const
{
    return nDemandReads
        ? double(demandLatencyPsTotal) / double(nDemandReads) : 0.0;
}

double
HybridMemory::avgNmLatencyPs() const
{
    return nDemandReadsFromNm
        ? double(nmLatencyPsTotal) / double(nDemandReadsFromNm) : 0.0;
}

double
HybridMemory::avgMissLatencyPs() const
{
    u64 misses = nDemandReads - nDemandReadsFromNm;
    return misses ? double(missLatencyPsTotal) / double(misses) : 0.0;
}

double
HybridMemory::avgWritebackLatencyPs() const
{
    return nWritebacks
        ? double(writebackLatencyPsTotal) / double(nWritebacks) : 0.0;
}

void
HybridMemory::resetStats()
{
    nMetaReads = 0;
    nMetaWrites = 0;
    nFromNm = 0;
    nDemandReads = 0;
    nDemandReadsFromNm = 0;
    nWritebacks = 0;
    demandLatencyPsTotal = 0;
    nmLatencyPsTotal = 0;
    missLatencyPsTotal = 0;
    writebackLatencyPsTotal = 0;
    fmCtrl->resetStats();
    if (nmCtrl)
        nmCtrl->resetStats();
}

void
HybridMemory::collectStats(StatSet &out) const
{
    out.add("mem.requestsFromNm", double(nFromNm));
    out.add("mem.demandReads", double(nDemandReads));
    out.add("mem.writebacks", double(nWritebacks));
    out.add("mem.avgLatencyPs", avgLatencyPs());
    out.add("mem.avgNmLatencyPs", avgNmLatencyPs());
    out.add("mem.avgMissLatencyPs", avgMissLatencyPs());
    out.add("mem.avgWritebackLatencyPs", avgWritebackLatencyPs());
    // Demand-facing queueing wait across both controllers (ps per
    // demand access; 0 with no demand traffic).
    u64 demand = fmCtrl->demandAccesses()
        + (nmCtrl ? nmCtrl->demandAccesses() : 0);
    Tick delayTotal = fmCtrl->readQueueDelayPsTotal()
        + (nmCtrl ? nmCtrl->readQueueDelayPsTotal() : 0);
    out.add("mem.avgQueueDelayPs",
            demand ? double(delayTotal) / double(demand) : 0.0);
    fmDevice().collectStats(out, "fm");
    if (nmCtrl)
        nmDevice().collectStats(out, "nm");
    fmCtrl->collectStats(out, "fmq");
    if (nmCtrl)
        nmCtrl->collectStats(out, "nmq");
}

} // namespace h2::mem
