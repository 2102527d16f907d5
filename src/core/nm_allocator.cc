#include "core/nm_allocator.h"

#include "common/log.h"

namespace h2::core {

// Boot carve-out: the first cacheSectors locations belong to the cache
// (paper: "a simple counter for the initially allocated NM space to the
// cache").
NmAllocator::NmAllocator(u64 nmLocs, u64 cacheSectors)
    : total(nmLocs), owners(nmLocs), bootLeft(cacheSectors)
{
    h2_assert(cacheSectors < nmLocs,
              "the DRAM cache cannot consume the whole NM (",
              cacheSectors, " of ", nmLocs, " locations)");
    nmCounter = cacheSectors; // start scanning in the flat region
}

NmAllocator::Owner
NmAllocator::owner(u64 loc) const
{
    h2_assert(loc < total, "NM location ", loc, " out of range");
    return loc < bootLeft ? Owner::CachePool : owners[loc];
}

void
NmAllocator::setOwner(u64 loc, Owner o)
{
    h2_assert(loc < total && loc >= bootLeft,
              "setting the owner of NM location ", loc,
              " outside the written range");
    owners[loc] = o;
}

u64
NmAllocator::popPool()
{
    h2_assert(!poolEmpty(), "NM pool pop while empty");
    u64 loc;
    if (pool.empty()) {
        loc = --bootLeft;
    } else {
        loc = pool.back();
        pool.pop_back();
        h2_assert(owners[loc] == Owner::CachePool,
                  "pool holds non-pool loc");
    }
    owners[loc] = Owner::CacheData;
    return loc;
}

void
NmAllocator::pushPool(u64 loc)
{
    h2_assert(owner(loc) == Owner::CacheData,
              "returning a non-cache location to the pool");
    owners[loc] = Owner::CachePool;
    pool.push_back(loc);
}

u64
NmAllocator::findVictim(const std::function<bool(u64)> &pinned,
                        const std::function<void(u64)> &onProbe)
{
    for (u64 tries = 0; tries < total; ++tries) {
        u64 cand = nmCounter;
        nmCounter = (nmCounter + 1) % total;
        ++nProbes;
        onProbe(cand);
        if (owner(cand) != Owner::Flat) {
            ++nSkips;
            continue;
        }
        if (pinned(cand)) {
            // The resident sector has a live XTA entry; sectors in the
            // DRAM cache must not be migrated out (paper section 3.5).
            ++nSkips;
            continue;
        }
        return cand;
    }
    h2_panic("NM victim scan found no flat-resident sector");
}

u64
NmAllocator::flatCount() const
{
    u64 n = 0;
    for (u64 loc = bootLeft; loc < total; ++loc)
        n += owners[loc] == Owner::Flat;
    return n;
}

} // namespace h2::core
