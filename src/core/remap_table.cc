#include "core/remap_table.h"

#include "common/log.h"

namespace h2::core {

RemapTable::RemapTable(u64 flatSectors, u64 nmFlatSectors, u64 cacheSectors,
                       u64 fmSectors)
    : nFlat(flatSectors), nNmFlat(nmFlatSectors), nCache(cacheSectors),
      nFm(fmSectors)
{
    h2_assert(nFlat == nNmFlat + nFm,
              "flat space must be NM flat region + FM");
    // Entries are u32: 31 index bits (plus the in-NM flag forward, and
    // the all-ones no-occupant value inverse). nFm <= nFlat, so these
    // two bounds cover every index either table stores. Reachable from
    // settings (fm-mib, nm-mib): fatal, so a sweep fails only this point.
    if (nFlat > kInNm || nCache + nNmFlat > kInNm)
        h2_fatal("remap table indices need more than 31 bits: ", nFlat,
                 " flat sectors, ", nCache + nNmFlat,
                 " NM locations (limit 2^31 each); lower fm-mib or "
                 "nm-mib, or use larger sectors");
    forward = SparseLane<u32>(nFlat);
    inverse = SparseLane<u32>(nCache + nNmFlat);
}

Loc
RemapTable::lookup(u64 flatSector) const
{
    h2_assert(flatSector < nFlat, "remap lookup out of range: ", flatSector);
    u32 e = forward.get(flatSector) ^ identityFwd(flatSector);
    return Loc{(e & kInNm) != 0, e & kIdxMask};
}

void
RemapTable::update(u64 flatSector, Loc loc)
{
    h2_assert(flatSector < nFlat, "remap update out of range");
    if (loc.inNm)
        h2_assert(loc.idx < nCache + nNmFlat,
                  "remap to bad NM location ", loc.idx);
    else
        h2_assert(loc.idx < nFm, "remap to bad FM location ", loc.idx);
    forward.ref(flatSector) =
        ((loc.inNm ? kInNm : 0) | static_cast<u32>(loc.idx)) ^
        identityFwd(flatSector);
}

std::optional<u64>
RemapTable::invLookup(u64 nmLoc) const
{
    h2_assert(nmLoc < nCache + nNmFlat, "invLookup out of range: ", nmLoc);
    u32 e = inverse.get(nmLoc) ^ identityInv(nmLoc);
    if (e == kNoOccupant)
        return std::nullopt;
    return e;
}

void
RemapTable::invUpdate(u64 nmLoc, std::optional<u64> flatSector)
{
    h2_assert(nmLoc < nCache + nNmFlat, "invUpdate out of range");
    if (flatSector)
        h2_assert(*flatSector < nFlat, "invUpdate to bad flat sector");
    inverse.ref(nmLoc) =
        (flatSector ? static_cast<u32>(*flatSector) : kNoOccupant) ^
        identityInv(nmLoc);
}

} // namespace h2::core
