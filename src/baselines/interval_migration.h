/**
 * @file
 * Shared core of the flat-space interval-migration baselines (MemPod,
 * LGM).
 *
 * Both designs expose NM + FM as one flat space of fixed-size segments,
 * keep an all-to-all remap table and its inverse in a reserved NM
 * region fronted by an on-chip remap cache, and at every interval
 * boundary swap hot FM segments into NM. They differ only in how they
 * pick the segments to swap and how many bytes a swap copies. This base
 * owns everything else: segment geometry, the remap table and remap
 * cache, the interval clock, the access path, the swap, and the shared
 * `<design>.*` stats.
 *
 * A design supplies its selection policy through two hooks:
 * onFmAccess() sees every FM-served access, and endInterval() picks the
 * interval's segments and moves each with swap().
 */

#pragma once

#include <string>

#include "baselines/remap_cache.h"
#include "core/remap_table.h"
#include "mem/hybrid_memory.h"

namespace h2::baselines {

class IntervalMigration : public mem::HybridMemory
{
  public:
    u64 flatCapacity() const final { return sys.nmBytes + sys.fmBytes; }
    void collectStats(StatSet &out) const override;
    void resetStats() final;

    /** Every NM location has an occupant whose forward entry points
     *  back at it. O(NM segments). */
    void checkInvariants() const final;

    u64 migrations() const { return nMigrations; }
    core::Loc locate(u64 flatSeg) const { return remap.lookup(flatSeg); }

  protected:
    /**
     * @param segBytes migration granularity
     * @param interval interval length (ps); endInterval() runs once per
     *                 boundary, on the first request past it
     * @param prefix   key prefix of the shared stats, e.g. "lgm"
     */
    IntervalMigration(const mem::MemSystemParams &sysParams, u32 segBytes,
                      Tick interval, std::string prefix);

    /** An access to flat segment @p seg was served from FM. */
    virtual void onFmAccess(u64 seg) = 0;

    /** Interval boundary: pick this interval's segments and swap()
     *  them. Runs on the triggering request's critical path @p tl. */
    virtual void endInterval(mem::Timeline &tl) = 0;

    /** The flat segment occupying NM location @p nmLoc. */
    u64 occupant(u64 nmLoc) const;

    /**
     * Swap FM-resident @p hotSeg with the occupant of NM location
     * @p nmLoc. Copies @p victimBytes of the occupant to @p hotSeg's FM
     * home and @p hotBytes of @p hotSeg into @p nmLoc, each from the
     * segment's start; a zero count skips that copy. Both reads issue
     * together and serialize onto @p tl, the destination writes are
     * posted, then both remap entries, the inverse entry, two posted
     * table writes and two remap-cache invalidations commit the swap.
     */
    void swap(u64 hotSeg, u64 nmLoc, u32 victimBytes, u32 hotBytes,
              mem::Timeline &tl);

    /** Lines of swapped segments that swap() did not copy. */
    u64 uncopiedLines() const { return nUncopiedLines; }

    const u32 segmentBytes;
    const u64 nmSegs;
    const u64 fmSegs;

  private:
    bool serve(Addr addr, AccessType type, mem::Timeline &tl) final;

    core::RemapTable remap; ///< reused with a zero cache region
    RemapCache remapCache;
    const Tick intervalPs;
    Tick nextInterval;
    const std::string statPrefix;

    u64 nMigrations = 0;
    u64 nIntervals = 0;
    u64 nUncopiedLines = 0;
};

} // namespace h2::baselines
