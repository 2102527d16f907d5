/**
 * @file
 * Decoupled Fused Cache (Vasilakis et al., TACO'19) baseline.
 *
 * DFC keeps the DRAM-cache tags in DRAM but fuses recently used tag
 * information into on-chip SRAM (the LLC tag array in the original
 * design). We model the fused/on-chip part as a 512 KB tag cache: a
 * lookup that hits it is free; a lookup that misses pays an NM tag read
 * before the data access, and fills write the NM tag store. The paper's
 * best DFC configuration uses 1 KB cache lines.
 */

#pragma once

#include "baselines/ideal_cache.h"
#include "baselines/remap_cache.h"

namespace h2::baselines {

class DfcCache : public IdealCache
{
  public:
    DfcCache(const mem::MemSystemParams &sysParams, u32 lineBytes = 1024);

    void collectStats(StatSet &out) const override;
    void resetStats() override;

    u64 tagCacheHits() const { return tagCache.hits(); }
    u64 tagCacheMisses() const { return tagCache.misses(); }

  protected:
    void tagLookup(Addr addr, mem::Timeline &tl) override;
    void onFill(Addr lineAddr, mem::Timeline &tl) override;

  private:
    RemapCache tagCache;
};

} // namespace h2::baselines
