/**
 * @file
 * NM location bookkeeping and the FIFO victim scan (paper section 3.5).
 *
 * Every NM location in the "lined" region (everything but the reserved
 * metadata slice) is either free DRAM-cache space (CachePool), holding a
 * cached FM sector (CacheData), or holding a flat-address-space sector
 * (Flat). Allocation for a newly cached FM sector first reuses pool
 * space; when the pool is dry, a flat-resident victim is found with a
 * FIFO counter that wraps over all NM locations, skipping (via inverted
 * remap table + XTA probe) sectors pinned by the DRAM cache.
 */

#pragma once

#include <functional>
#include <vector>

#include "common/types.h"

namespace h2::core {

class NmAllocator
{
  public:
    enum class Owner : u8 { CachePool, CacheData, Flat };

    /**
     * @param nmLocs       NM locations in the lined region
     * @param cacheSectors locations initially owned by the cache pool
     */
    NmAllocator(u64 nmLocs, u64 cacheSectors);

    Owner owner(u64 loc) const { return owners.at(loc); }
    void setOwner(u64 loc, Owner o);

    bool poolEmpty() const { return pool.empty(); }
    u64 poolSize() const { return pool.size(); }

    /** Take a free location from the pool (must be non-empty);
     *  the location becomes CacheData. */
    u64 popPool();

    /** Return @p loc to the pool (it must be CacheData). */
    void pushPool(u64 loc);

    /**
     * FIFO scan for a flat-resident victim (Figure 8). For every probed
     * location @p onProbe is invoked (the hardware reads the inverted
     * remap table per probe); locations whose sector is in the XTA (per
     * @p pinned) are skipped.
     *
     * @return the victim NM location; it stays Flat until the caller
     *         completes the swap and reassigns ownership.
     */
    u64 findVictim(const std::function<bool(u64 loc)> &pinned,
                   const std::function<void(u64 loc)> &onProbe);

    u64 numLocs() const { return total; }
    u64 flatCount() const;
    u64 probes() const { return nProbes; }
    u64 skips() const { return nSkips; }

  private:
    u64 total;
    std::vector<Owner> owners;
    std::vector<u64> pool;
    u64 nmCounter = 0; ///< FIFO scan position
    u64 nProbes = 0;
    u64 nSkips = 0;
};

} // namespace h2::core
