/**
 * @file
 * Common interface of all evaluated memory organizations.
 *
 * The system under test (Hybrid2, the migration baselines, the DRAM-cache
 * baselines, and the FM-only baseline) all sit behind this interface:
 * they receive 64 B demand fills and writebacks from the LLC and reach
 * the NM/FM DRAM devices only through one queued controller per side.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_device.h"
#include "mem/mem_controller.h"
#include "mem/timeline.h"

namespace h2::mem {

/** View of the LLC offered to migration policies (LGM uses it). */
class LlcView
{
  public:
    virtual ~LlcView() = default;
    /** Number of 64 B lines of [base, base+bytes) resident in the LLC. */
    virtual u32 residentLines(Addr base, u64 bytes) const = 0;
};

/** Null LlcView: reports nothing resident. */
class EmptyLlcView : public LlcView
{
  public:
    u32 residentLines(Addr, u64) const override { return 0; }
};

/** Sizing and latency context shared by every design. */
struct MemSystemParams
{
    u64 nmBytes = 1ull << 30;      ///< near-memory capacity
    u64 fmBytes = 16ull << 30;     ///< far-memory capacity
    /** Far-memory device technology: DDR4 DRAM (default) or a PCM-like
     *  NVM with asymmetric read/write timing and energy. */
    dram::FarMemTech fmTech = dram::FarMemTech::Dram;
    /** Fixed controller/on-chip interconnect traversal per request. */
    Tick controllerLatencyPs = 3130; ///< ~10 core cycles

    /** The Table 1 devices every design uses: HBM2 near memory and
     *  DDR4 (or PCM) far memory at the configured capacities. */
    dram::DramParams
    nmDeviceParams() const
    {
        return dram::DramParams::hbm2(nmBytes);
    }
    dram::DramParams
    fmDeviceParams() const
    {
        return dram::DramParams::farMemory(fmTech, fmBytes);
    }
};

/** Outcome of one 64 B request into the memory organization. */
struct MemResult
{
    /** The request's critical path: issue tick and serialized
     *  structural segments. */
    Timeline timeline;
    bool fromNm = false;  ///< served by near memory

    /** When the critical 64 B block is available. */
    Tick completeAt() const { return timeline.completeAt(); }
};

/**
 * Base class: owns the memory controllers (each owning its device),
 * the request frame every design shares, and the served-from-NM
 * accounting.
 *
 * Concrete designs implement serve() and may add design-specific
 * counters through collectStats().
 */
class HybridMemory
{
  public:
    /** Builds the NM and FM controllers from @p params' Table 1
     *  devices; @p withNm = false builds an FM-only system. */
    explicit HybridMemory(const MemSystemParams &params,
                          bool withNm = true);
    virtual ~HybridMemory() = default;

    HybridMemory(const HybridMemory &) = delete;
    HybridMemory &operator=(const HybridMemory &) = delete;

    /**
     * Serve a 64 B line request (demand fill or LLC writeback) issued at
     * @p now (picoseconds). @p addr is a flat processor physical address
     * in [0, flatCapacity()). The frame is the same for every design:
     * the controller traversal, the design's serve(), then the posted
     * writes and the service accounting.
     */
    MemResult access(Addr addr, AccessType type, Tick now);

    virtual std::string name() const = 0;

    /** Bytes of main memory visible to software under this design. */
    virtual u64 flatCapacity() const = 0;

    /** Design-internal consistency checks; panics on violation. */
    virtual void checkInvariants() const {}

    /** Counters for the bench/test harness. */
    virtual void collectStats(StatSet &out) const;

    /** Zero traffic/energy/service counters after warm-up. The design's
     *  state (caches, remap tables) is kept. */
    virtual void resetStats();

    bool hasNm() const { return nmCtrl != nullptr; }
    /** Read-only views of the devices behind the controllers. */
    const dram::DramDevice &nmDevice() const
    {
        return nmController().device();
    }
    const dram::DramDevice &fmDevice() const { return fmCtrl->device(); }

    /** Queued controllers, each owning its side's device. */
    MemController &nmController();
    const MemController &nmController() const;
    MemController &fmController() { return *fmCtrl; }
    const MemController &fmController() const { return *fmCtrl; }

    /**
     * Dispatch every write still sitting in the controller queues
     * (issued at @p now or the write's ready tick, whichever is
     * later). The system calls this at the warm-up boundary (so
     * warm-up traffic is charged before counters reset) and at the
     * end of the run (so traffic/energy totals are complete).
     */
    void drainQueues(Tick now);

    u64 requests() const { return nDemandReads + nWritebacks; }
    u64 requestsFromNm() const { return nFromNm; }

    /** Mean critical-path latency (ps) of demand (read) requests —
     *  the traffic a core actually waits on. */
    double avgLatencyPs() const;
    /** Mean critical-path latency (ps) of NM-served demand reads. */
    double avgNmLatencyPs() const;
    /** Mean critical-path latency (ps) of FM-served (miss) demand
     *  reads. Write requests are tracked separately — in the simulated
     *  system every Write at this interface is an LLC writeback no
     *  core waits on, so they must not skew the per-miss cost. */
    double avgMissLatencyPs() const;
    /** Mean critical-path latency (ps) of write requests (LLC
     *  writebacks in the simulated system). */
    double avgWritebackLatencyPs() const;

    /** Total dynamic DRAM energy (NM + FM), picojoules. */
    double dynamicEnergyPj() const;

  protected:
    /**
     * Buffer a posted write bound for @p ctrl (nmc() or fmc()).
     * Buffered writes are issued by access() after serve()'s
     * serialized reads, so demand traffic keeps bank/channel
     * priority over structural writes whose data is already latched.
     * @p readyAt is when the data became available (e.g. its source
     * read's completion); the device clamps to bank availability.
     */
    void
    postWrite(MemController &ctrl, Addr addr, u32 bytes, Tick readyAt)
    {
        postedWrites.push_back({&ctrl, addr, bytes, readyAt});
    }

    /**
     * One 64 B access into a reserved NM metadata region (remap/tag
     * tables) of @p regionBytes, spread by a per-design rotor so table
     * traffic exercises all NM channels/banks. Reads serialize onto
     * @p tl; writes go through the posted-write buffer. Each call
     * counts into metaReads()/metaWrites().
     */
    void nmMetaRegionAccess(AccessType type, u64 regionBytes, Timeline &tl);

    /** nmMetaRegionAccess() reads and writes since the last
     *  resetStats(); designs emit them under their own stat keys. */
    u64 metaReads() const { return nMetaReads; }
    u64 metaWrites() const { return nMetaWrites; }

    /** Reserved NM slice the baseline designs keep their remap/tag
     *  tables in: 16 MiB, capped at a quarter of NM. */
    u64
    baselineMetaRegionBytes() const
    {
        u64 cap = sys.nmBytes / 4;
        return cap < (16ull << 20) ? cap : (16ull << 20);
    }

    /** Controller shorthand for design serve() code: the only
     *  handles to the devices that can issue traffic, so queued
     *  scheduling applies uniformly. */
    MemController &nmc() { return nmController(); }
    MemController &fmc() { return *fmCtrl; }

    MemSystemParams sys;

  private:
    /**
     * The design's part of access(): route the request at @p addr,
     * serializing its reads onto @p tl (already past the controller
     * traversal; tl.issuedAt() is the request's issue tick) and
     * buffering its writes through postWrite(). Returns whether near
     * memory served the request.
     */
    virtual bool serve(Addr addr, AccessType type, Timeline &tl) = 0;

    /**
     * Drain the write buffer (in post order) into the controller
     * write queues; none of it lands on the request's critical path.
     * access() calls this once after serve()'s serialized reads — so
     * posted writes enter the queues (and can trigger a forced drain)
     * only once the demand path has claimed its banks.
     */
    void flushPostedWrites();

    /** Record one served request: NM-served accounting plus the
     *  request's serialized critical-path latency. Reads (demand
     *  fills) and writes (LLC writebacks) land in separate latency
     *  buckets. */
    void recordService(AccessType type, bool fromNm, const Timeline &tl);

    struct PostedWrite
    {
        MemController *ctrl;
        Addr addr;
        u32 bytes;
        Tick readyAt;
    };

    std::unique_ptr<MemController> nmCtrl; ///< null for FM-only
    std::unique_ptr<MemController> fmCtrl;

    u64 metaRotor = 0; ///< spreads metadata accesses over the region
    u64 nMetaReads = 0;
    u64 nMetaWrites = 0;
    u64 nFromNm = 0;
    u64 nDemandReads = 0;
    u64 nDemandReadsFromNm = 0;
    u64 nWritebacks = 0;
    Tick demandLatencyPsTotal = 0;
    Tick nmLatencyPsTotal = 0;
    Tick missLatencyPsTotal = 0;
    Tick writebackLatencyPsTotal = 0;
    std::vector<PostedWrite> postedWrites;
};

/** Request line size from the LLC. */
inline constexpr u32 llcLineBytes = 64;

} // namespace h2::mem
