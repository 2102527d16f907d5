/**
 * @file
 * The eXtended Tag Array (paper section 3.2).
 *
 * An on-chip, set-associative tag array for the sectored DRAM cache,
 * extended with the fields that unify cache and migration metadata:
 * per-line valid/dirty vectors, a per-sector access counter, and NM/FM
 * location pointers. The NM pointer decouples an XTA way from the
 * physical NM location of its data (indirection), which is what lets
 * Hybrid2 promote a cached sector to a migrated one without copying.
 *
 * Set-count rounding: the number of sets is rounded DOWN to a power of
 * two so the per-access setOf/tagOf split is a mask/shift instead of a
 * div/mod (real tag arrays index with address bits the same way). Every
 * paper configuration (power-of-two cache, sector and line sizes)
 * already yields a power-of-two set count, so rounding only affects
 * exotic geometries, where it slightly shrinks capacitySectors().
 */

#pragma once

#include "common/stats.h"
#include "common/types.h"
#include "common/zero_lane.h"

namespace h2::core {

/** Payload of one XTA entry (Figure 4 of the paper).
 *
 *  The presence bit and the tag do NOT live here: they sit in the
 *  Xta's contiguous tag lane (struct-of-arrays), so the per-access
 *  way scan touches one cache line of tags instead of striding over
 *  full entries. Use Xta::entryValid / Xta::entryTag to read them and
 *  Xta::releaseWay to invalidate. */
struct XtaEntry
{
    u64 validMask = 0;    ///< per-line presence in NM
    u64 dirtyMask = 0;    ///< per-line dirtiness
    u32 accessCounter = 0;
    u64 nmLoc = 0;        ///< NM location of the sector's data
    u64 fmLoc = 0;        ///< FM home while the sector lives in FM
    bool inFm = false;    ///< true: FM sector (fmLoc valid); false: NM
    u64 lruStamp = 0;

    u32 popcountValid() const { return __builtin_popcountll(validMask); }
    u32 popcountDirty() const { return __builtin_popcountll(dirtyMask); }
};

/** Set-associative XTA with LRU replacement. */
class Xta
{
  public:
    /**
     * @param numSectors total entries (DRAM-cache capacity in sectors)
     * @param ways       associativity
     * @param linesPerSector lines tracked by each valid/dirty vector
     */
    Xta(u64 numSectors, u32 ways, u32 linesPerSector);

    u64 numSets() const { return sets; }
    u32 numWays() const { return waysN; }
    u64 capacitySectors() const { return sets * waysN; }
    u32 linesPerSector() const { return lps; }

    u64 setOf(u64 flatSector) const { return flatSector & setMask; }
    u64 tagOf(u64 flatSector) const { return flatSector >> setShift; }
    u64
    flatSectorOf(u64 set, u64 tag) const
    {
        return (tag << setShift) | set;
    }
    u64
    flatSectorOf(u64 set, const XtaEntry &e) const
    {
        return flatSectorOf(set, entryTag(e));
    }

    /** Presence bit of an in-array entry (lives in the tag lane). */
    bool
    entryValid(const XtaEntry &e) const
    {
        return tagLane[indexOf(e)] != kInvalidTag;
    }

    /** Tag of an in-array entry (lives in the tag lane). */
    u64 entryTag(const XtaEntry &e) const { return ~tagLane[indexOf(e)]; }

    /** Invalidate an in-array entry (clears its tag-lane slot). */
    void releaseWay(XtaEntry &e) { tagLane[indexOf(e)] = kInvalidTag; }

    /** Find the entry for @p flatSector; refreshes LRU on hit. */
    XtaEntry *find(u64 flatSector);

    /** Lookup without touching LRU or stats (allocator victim scan). */
    const XtaEntry *peek(u64 flatSector) const;
    bool contains(u64 flatSector) const { return peek(flatSector); }

    /**
     * Pick the way that a new entry for @p flatSector will occupy:
     * an invalid way if one exists, otherwise the LRU way (whose current
     * contents the caller must handle first).
     */
    XtaEntry *victimWay(u64 flatSector);

    /** Initialize @p entry for @p flatSector and refresh LRU. */
    void fill(u64 flatSector, XtaEntry &entry);

    /** Direct entry access for invariant checks and tests. */
    const XtaEntry &
    entryAt(u64 set, u32 way) const
    {
        return entries[set * waysN + way];
    }

    /** Iterate the other valid entries of @p flatSector's set. */
    template <typename Fn>
    void
    forOthersInSet(u64 flatSector, const XtaEntry &self, Fn &&fn) const
    {
        u64 base = setOf(flatSector) * waysN;
        u64 selfIdx = indexOf(self);
        for (u32 w = 0; w < waysN; ++w)
            if (tagLane[base + w] != kInvalidTag && base + w != selfIdx)
                fn(entries[base + w]);
    }

    /** Estimated on-chip SRAM footprint of the array in bytes
     *  (paper: must stay under ~512 KB). */
    u64 storageBytes() const;

    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }

    /** Zero hit/miss counters after warm-up; LRU state is kept. */
    void
    resetStats()
    {
        nHits = 0;
        nMisses = 0;
    }

    void collectStats(StatSet &out, const std::string &prefix) const;

  private:
    /** Tag-lane value of an invalid way. The lane stores ~tag: real
     *  tags are flatSector >> setShift and stay far below 2^64 for any
     *  modeled capacity, so no stored tag is 0 and a fresh
     *  (demand-zero) lane is all invalid. */
    static constexpr u64 kInvalidTag = 0;

    u64 indexOf(const XtaEntry &e) const { return u64(&e - entries.data()); }

    u64 sets;
    u32 setShift;
    u64 setMask;
    u32 waysN;
    u32 lps;
    /** Contiguous stored tags (way-major within a set): the hot way
     *  scan reads only this lane; the payload in @c entries is touched
     *  only on a hit or for the chosen victim. Both lanes start as
     *  zero bytes: every way invalid, every payload a default
     *  XtaEntry. */
    ZeroLane<u64> tagLane;
    ZeroLane<XtaEntry> entries;
    u64 clock = 0;
    u64 nHits = 0;
    u64 nMisses = 0;
};

} // namespace h2::core
