/**
 * @file
 * DRAM-cache baselines: the IDEAL cache of Figure 2 (no tag or metadata
 * overheads, parametric line size), the Tagless DRAM cache (registered
 * in ideal_cache.cc as the IDEAL cache at a 4 KB line) and, as a thin
 * specialization in a sibling header, the Decoupled Fused Cache.
 *
 * All NM capacity is the cache's data array; main memory is FM only.
 * The cache also tracks which 64 B blocks of each fetched line were
 * actually used, which produces the paper's Figure 1 (fetched-but-unused
 * data vs. line size).
 */

#pragma once

#include <unordered_map>

#include "cache/set_assoc_cache.h"
#include "mem/hybrid_memory.h"

namespace h2::baselines {

/** A DRAM cache over all of NM with a 16-way tag store of
 *  @p lineBytes lines. */
class IdealCache : public mem::HybridMemory
{
  public:
    IdealCache(const mem::MemSystemParams &sysParams, u32 lineBytes,
               const std::string &displayName = "IDEAL");

    std::string name() const override { return label; }
    u64 flatCapacity() const override { return sys.fmBytes; }
    void collectStats(StatSet &out) const override;
    void resetStats() override;

    u32 lineBytes() const { return lineB; }

    /** Fraction of fetched 64 B blocks never accessed before eviction
     *  (over the lines evicted since the last resetStats() and the
     *  resident ones; Figure 1). */
    double wastedFetchFraction() const;

    u64 fills() const { return tags.misses(); }
    u64 lineHits() const { return tags.hits(); }

  protected:
    /**
     * Hook for subclasses: charge tag-lookup cost for @p addr. The
     * lookup gates the data access, so implementations serialize their
     * latency (an NM tag-store read) onto @p tl. The IDEAL cache has no
     * tag-lookup overhead (Figure 2).
     */
    virtual void tagLookup(Addr, mem::Timeline &) {}

    /** Hook: metadata update on a fill (e.g. tag store write); posted
     *  off the critical path. */
    virtual void onFill(Addr lineAddr, mem::Timeline &tl);

    bool serve(Addr addr, AccessType type, mem::Timeline &tl) override;

    u32 lineB;
    std::string label;
    /** The 16-way tag store over all of NM. Random page placement
     *  fills its sets everywhere, so it keeps only the sets a run
     *  fills (sparse set storage). */
    cache::SparseSetAssocCache tags;

    /** Per-resident-line bitmap of 64 B blocks touched since fill. */
    std::unordered_map<Addr, u64> usedBlocks;

    u64 wastedBlocks = 0;  ///< fetched blocks never used, over evictions
};

} // namespace h2::baselines
