/**
 * @file
 * The DRAM Cache Migration Controller (DCMC) - Hybrid2's contribution.
 *
 * The DCMC (paper section 3) fronts every memory request. It owns:
 *  - the on-chip eXtended Tag Array (XTA),
 *  - the NM-resident remap / inverted remap tables and Free-FM-Stack,
 *  - the NM location allocator (boot carve-out, pool, FIFO victim scan),
 *  - the migration policy (access counters, net cost, FM budget).
 *
 * The access path follows Figure 7:
 *   1a XTA hit / line hit   -> serve 64 B from NM
 *   1b XTA hit / line miss  -> fetch one DRAM-cache line from FM into NM
 *   2a XTA miss, sector NM  -> link the NM sector into the XTA (no copy)
 *   2b XTA miss, sector FM  -> allocate NM space, fetch requested line
 *
 * Evictions (Figure 9) either re-assign the way (NM sectors), write back
 * dirty lines to FM, or migrate the sector into NM by fetching its
 * missing lines - without relocating anything inside NM, thanks to the
 * XTA's NM pointers.
 */

#pragma once

#include <string>

#include "core/free_fm_stack.h"
#include "core/hybrid2_params.h"
#include "core/migration_policy.h"
#include "core/nm_allocator.h"
#include "core/remap_table.h"
#include "core/xta.h"
#include "mem/hybrid_memory.h"

namespace h2::core {

/** Traffic breakdown counters (bytes) by purpose. Metadata traffic is
 *  64 B per metaReads()/metaWrites() access, so it has no counter. */
struct DcmcTraffic
{
    u64 nmDemand = 0;    ///< 64 B serves and line fills into NM
    u64 nmMigration = 0; ///< sector promotion line fetches written to NM
    u64 nmSwap = 0;      ///< victim sector reads during swap-out
    u64 nmWriteback = 0; ///< NM reads sourcing dirty-line writebacks
    u64 fmDemand = 0;    ///< line fetches read from FM
    u64 fmWriteback = 0; ///< dirty-line writebacks on cache eviction
    u64 fmMigration = 0; ///< line fetches read from FM for migration
    u64 fmSwap = 0;      ///< victim sector writes during swap-out
};

/** Test/debug view of one sector's current placement. */
struct SectorView
{
    Loc home;          ///< where the sector's backing data lives
    bool cached = false; ///< has a live XTA entry
    u64 validMask = 0;
    u64 dirtyMask = 0;
};

class Dcmc : public mem::HybridMemory
{
  public:
    Dcmc(const mem::MemSystemParams &sysParams,
         const Hybrid2Params &params);

    std::string name() const override { return "HYBRID2"; }
    u64 flatCapacity() const override;
    void checkInvariants() const override;
    void collectStats(StatSet &out) const override;
    void resetStats() override;

    // --- Introspection (tests, examples) -----------------------------
    const Hybrid2Params &params() const { return cfg; }
    const Xta &xta() const { return tags; }
    const RemapTable &remapTable() const { return remap; }
    const NmAllocator &allocator() const { return alloc; }
    const FreeFmStack &freeFmStack() const { return freeFm; }
    const MigrationPolicy &policy() const { return migrPolicy; }
    const DcmcTraffic &traffic() const { return bytes; }
    SectorView inspect(u64 flatSector) const;

    u64 migrations() const { return nMigrations; }
    u64 evictionsToFm() const { return nEvictionsToFm; }
    u64 swapOuts() const { return nSwapOuts; }
    u64 freeSwapOuts() const { return nFreeSwapOuts; }

    /** Section 3.8: is @p flatSector OS-marked as unused? */
    bool sectorUnused(u64 flatSector) const;

    u64 numFlatSectors() const { return remap.flatSectors(); }
    u32 sectorBytes() const { return cfg.sectorBytes; }

  private:
    bool serve(Addr addr, AccessType type, mem::Timeline &tl) override;

    /** NM carve-up and flat-space sizing computed once per Dcmc. */
    struct Layout
    {
        u64 metaSectors;
        u64 nmLocs;
        u64 cacheSectors;
        u64 nmFlatSectors;
        u64 fmSectors;
    };
    static Layout computeLayout(const mem::MemSystemParams &sys,
                                const Hybrid2Params &cfg);
    Dcmc(const mem::MemSystemParams &sysParams, const Hybrid2Params &params,
         const Layout &l);

    // Geometry helpers -------------------------------------------------
    Addr nmByteAddr(u64 nmLoc, u64 offset) const;
    Addr fmByteAddr(u64 fmLoc, u64 offset) const;

    /** Charge one 64 B metadata access in the NM metadata region.
     *  Reads serialize onto @p tl; writes are posted (overlap). */
    void metaAccess(AccessType type, mem::Timeline &tl);

    /** Drain Free-FM-Stack spill/fill traffic into metadata accesses. */
    void drainStackTraffic(mem::Timeline &tl);

    /** Make room in @p flatSector's XTA set (Figure 9); returns the way
     *  to fill. */
    XtaEntry *prepareWay(u64 flatSector, mem::Timeline &tl);

    /** Handle the eviction of @p victim (valid entry). */
    void evictEntry(u64 victimFlat, XtaEntry &victim, mem::Timeline &tl);

    /** Promote @p victim's sector into NM (migration). */
    void migrateSector(u64 victimFlat, XtaEntry &victim,
                       mem::Timeline &tl);

    /** Write @p victim's dirty lines back to FM and free its NM loc. */
    void evictSectorToFm(u64 victimFlat, XtaEntry &victim,
                         mem::Timeline &tl);

    /** Obtain an NM location for a newly cached FM sector (Figure 8). */
    u64 allocateNmLoc(mem::Timeline &tl);

    Hybrid2Params cfg;
    u64 metaSectors;
    u64 nmLocs;
    u64 cacheSectors;
    u64 nmFlatSectors;
    u64 fmSectors;

    Xta tags;
    RemapTable remap;
    NmAllocator alloc;
    FreeFmStack freeFm;
    MigrationPolicy migrPolicy;

    DcmcTraffic bytes;

    // Stats ------------------------------------------------------------
    u64 nLineHits = 0;       ///< case 1a
    u64 nLineMisses = 0;     ///< case 1b
    u64 nMissSectorNm = 0;   ///< case 2a
    u64 nMissSectorFm = 0;   ///< case 2b
    u64 nMigrations = 0;
    u64 nEvictionsToFm = 0;
    u64 nReassignedNm = 0;   ///< case-1 evictions (NM sectors)
    u64 nSwapOuts = 0;
    u64 nDeniedByCounter = 0;
    u64 nDeniedByBudget = 0;
    u64 nMetaSkipped = 0;    ///< ops elided by the No-Remap ablation
    u64 nFreeSwapOuts = 0;   ///< swap-outs that skipped the copy (3.8)

    // Lifetime counters: survive resetStats() so structural invariants
    // (Free-FM-Stack depth == migrations - swap-outs) stay checkable
    // after a warm-up reset.
    u64 lifetimeMigrations = 0;
    u64 lifetimeSwapOuts = 0;
};

} // namespace h2::core
