/**
 * @file
 * Chameleon (Kotra et al., MICRO'18) baseline.
 *
 * Chameleon organizes most of the NM with PoM/CAMEO-style congruence
 * groups: each group pairs one NM segment slot with the FM segments that
 * map to it, and a competing counter promotes a persistent FM challenger
 * into the NM slot once it accumulates K wins (paper configuration:
 * K = 14). Per the paper's methodology, Chameleon is additionally
 * granted a DRAM-cache slice of NM equal to Hybrid2's (cache mode).
 *
 * Modeling notes (documented substitutions):
 *  - Group relocation state is pairwise (native segment swapped with at
 *    most one FM member); promoting a different member routes through a
 *    direct three-segment exchange, slightly over-charging traffic
 *    relative to CAMEO's full permutation table.
 *  - Cache-mode capacity is managed as a 16-way, segment-granular cache
 *    that fills on FM access (no OS free-page hints are available in a
 *    trace-driven setting; section 3.8 of the paper discusses the same
 *    limitation for Hybrid2).
 */

#pragma once

#include <unordered_map>

#include "baselines/remap_cache.h"
#include "cache/set_assoc_cache.h"
#include "common/units.h"
#include "mem/hybrid_memory.h"

namespace h2::baselines {

struct ChameleonParams
{
    u32 segmentBytes = 2048;
    u32 competingK = 14;      ///< swaps after K net challenger wins
    /** NM slice granted to cache mode; 0 = auto (NM/16, which matches
     *  the paper's 64 MB at 1 GB NM, i.e. Hybrid2's cache size). */
    u64 cacheSliceBytes = 0;
    /** Enable the cache-mode slice. When enabled, competing counters
     *  advance only on requests the cache mode could not absorb, so
     *  transient (streaming) segments do not trigger swaps. Disabling
     *  it yields a pure PoM-style group-swap design. */
    bool cacheMode = true;
};

class Chameleon : public mem::HybridMemory
{
  public:
    Chameleon(const mem::MemSystemParams &sysParams,
              const ChameleonParams &params = {});

    mem::MemResult access(Addr addr, AccessType type, Tick now) override;
    std::string name() const override { return "CHA"; }
    u64 flatCapacity() const override;
    void collectStats(StatSet &out) const override;
    void resetStats() override;

    u64 swaps() const { return nSwaps; }

    /** Where segment @p seg currently lives: NM slot (true) or FM. */
    bool inNmSlot(u64 seg) const;

  private:
    struct GroupState
    {
        u64 nmMember;   ///< flat segment occupying the NM slot
        u64 challenger = ~u64(0);
        u32 counter = 0;
    };

    u64 groupOf(u64 seg) const;
    u64 nativeOf(u64 group) const { return group; }
    bool isNative(u64 seg) const { return seg < nmGroupSegs; }
    u64 fmHomeOf(u64 seg) const;
    GroupState &state(u64 group);
    void promote(u64 group, u64 seg, mem::Timeline &tl);

    ChameleonParams cfg;
    u64 nmGroupSegs; ///< NM segment slots participating in groups
    u64 fmSegs;
    std::unordered_map<u64, GroupState> groups;
    RemapCache remapCache;
    cache::SetAssocCache cacheMode;
    /** Tracks once-touched segments so cache-mode fills happen on
     *  reuse, not on first touch (filters streaming pollution): 64K
     *  segment entries of 8 B each, 8-way. */
    RemapCache seenSegments{512 * KiB, 8, 8};

    u64 nSwaps = 0;
    u64 nCacheModeHits = 0;
    u64 nCacheModeFills = 0;
};

} // namespace h2::baselines
