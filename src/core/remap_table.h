/**
 * @file
 * Remap table and inverted remap table (paper section 3.3).
 *
 * Hybrid2 keeps an all-to-all sector remap table (processor physical
 * sector -> current NM/FM location) plus an inverted table (NM location
 * -> resident processor sector) in a reserved slice of NM. This module
 * models both as the dense, sector-indexed arrays the paper describes;
 * the DCMC charges NM traffic for each logical access.
 *
 * Initial (identity) layout: flat sectors [0, nmFlatSectors) live in
 * the NM flat region (NM locations [cacheSectors, nmLocs)); the
 * remaining flat sectors live in FM identity-mapped. NM locations
 * [0, cacheSectors) start as the DRAM cache's boot data region and hold
 * no flat sector.
 *
 * Entries are 32 bits wide: a forward entry spends bit 31 on "in NM"
 * and 31 bits on the NM location or FM sector index, and an inverse
 * entry reserves all-ones for "no occupant". Every flat sector and
 * every NM location must therefore fit in 31 bits (2^31 sectors, e.g.
 * 4 TiB of 2 KB sectors); the constructor rejects larger geometries
 * with a fatal naming fm-mib, so a sweep fails only that point.
 *
 * Each stored word is the entry XOR its identity value, so the tables
 * start as all-zero sparse lanes (common/zero_lane.h): a lookup of an
 * entry whose leaf was never written allocates nothing, and resident
 * memory follows the leaves a run writes, however widely the random
 * page placement scatters them across the flat space.
 */

#pragma once

#include <optional>

#include "common/types.h"
#include "common/zero_lane.h"

namespace h2::core {

/** A sector-granular location in the memory system. */
struct Loc
{
    bool inNm = false;
    u64 idx = 0; ///< NM location index or FM sector index

    bool operator==(const Loc &o) const
    {
        return inNm == o.inNm && idx == o.idx;
    }
};

/** Combined remap + inverted remap tables, sector-indexed and stored as
 *  XOR deltas from the identity layout. */
class RemapTable
{
  public:
    /**
     * @param flatSectors   size of the processor physical space (sectors)
     * @param nmFlatSectors flat sectors initially resident in NM
     * @param cacheSectors  NM locations initially owned by the DRAM cache
     * @param fmSectors     FM capacity in sectors
     */
    RemapTable(u64 flatSectors, u64 nmFlatSectors, u64 cacheSectors,
               u64 fmSectors);

    /** Current location of @p flatSector. */
    Loc lookup(u64 flatSector) const;

    /** Point @p flatSector at @p loc. */
    void update(u64 flatSector, Loc loc);

    /** Which flat sector's data occupies NM location @p nmLoc, if any. */
    std::optional<u64> invLookup(u64 nmLoc) const;

    /** Set (or clear, with nullopt) the occupant of @p nmLoc. */
    void invUpdate(u64 nmLoc, std::optional<u64> flatSector);

    u64 flatSectors() const { return nFlat; }
    u64 nmFlatSectors() const { return nNmFlat; }
    u64 fmSectors() const { return nFm; }
    u64 cacheSectors() const { return nCache; }

    /** Stored forward / inverse words (0 = the identity entry). */
    u32 rawForward(u64 flatSector) const { return forward.get(flatSector); }
    u32 rawInverse(u64 nmLoc) const { return inverse.get(nmLoc); }

  private:
    static constexpr u32 kInNm = u32(1) << 31;
    static constexpr u32 kIdxMask = kInNm - 1;
    static constexpr u32 kNoOccupant = ~u32(0);

    /** Initial forward entry of @p flatSector. */
    u32
    identityFwd(u64 flatSector) const
    {
        return flatSector < nNmFlat
            ? kInNm | static_cast<u32>(nCache + flatSector)
            : static_cast<u32>(flatSector - nNmFlat);
    }
    /** Initial inverse entry of @p nmLoc. */
    u32
    identityInv(u64 nmLoc) const
    {
        return nmLoc < nCache ? kNoOccupant
                              : static_cast<u32>(nmLoc - nCache);
    }

    u64 nFlat;
    u64 nNmFlat;
    u64 nCache;
    u64 nFm;
    /** Per flat sector: (kInNm | NM location, or the FM sector index)
     *  ^ identityFwd. */
    SparseLane<u32> forward;
    /** Per NM location: (resident flat sector, or kNoOccupant)
     *  ^ identityInv. */
    SparseLane<u32> inverse;
};

} // namespace h2::core
