#include "cache/set_assoc_cache.h"

#include <algorithm>
#include <vector>

namespace h2::cache {

template <typename Sets>
BasicSetAssocCache<Sets>::BasicSetAssocCache(const CacheParams &params)
    : cfg(params)
{
    h2_assert(cfg.sizeBytes > 0 && cfg.ways > 0 && cfg.lineBytes > 0,
              cfg.name, ": bad cache geometry");
    h2_assert(cfg.sizeBytes % (u64(cfg.ways) * cfg.lineBytes) == 0,
              cfg.name, ": size not divisible by ways*lineBytes");
    sets = static_cast<u32>(cfg.sizeBytes / (u64(cfg.ways) * cfg.lineBytes));
    h2_assert(sets > 0, cfg.name, ": zero sets");
    linePow2 = isPowerOf2(cfg.lineBytes);
    if (linePow2)
        lineShift = floorLog2(cfg.lineBytes);
    setPow2 = isPowerOf2(sets);
    if (setPow2) {
        setShift = floorLog2(sets);
        setMask = sets - 1;
    }
    store = Sets(sets, cfg.ways);
}

template <typename Sets>
u64
BasicSetAssocCache<Sets>::addrLimit() const
{
    u64 span = u64(sets) * cfg.lineBytes;
    return span > ~u64(0) / kTagLimit ? ~u64(0) : kTagLimit * span;
}

template <typename Sets>
bool
BasicSetAssocCache<Sets>::probe(Addr addr) const
{
    return hitWay(locate(addr)) != kNoWay;
}

template <typename Sets>
bool
BasicSetAssocCache<Sets>::probeDirty(Addr addr) const
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    return way != kNoWay && (store.meta(s.at)[way] & 1);
}

template <typename Sets>
std::optional<Eviction>
BasicSetAssocCache<Sets>::insert(const SetRef &s, bool dirty)
{
    // The victim rule (pinned by the reference model in
    // tests/test_cache.cc): first invalid way, else the oldest stamp.
    // Invalid ways have meta 0, below every valid way, so the
    // lowest-index smallest meta word is the first invalid way if there
    // is one and the lowest-index oldest stamp otherwise. Like
    // hitWay(), the scan picks with selects to the end of the set.
    u64 at = store.claim(s.set, s.at);
    u32 *tags = store.tags(at);
    u32 *meta = store.meta(at);
    u32 victim = 0;
    u32 oldestMeta = meta[0];
    for (u32 w = 1; w < cfg.ways; ++w) {
        bool older = meta[w] < oldestMeta;
        victim = older ? w : victim;
        oldestMeta = older ? meta[w] : oldestMeta;
    }

    std::optional<Eviction> evicted;
    if (tags[victim] != kInvalidTag) {
        bool wasDirty = meta[victim] & 1;
        ++nEvictions;
        nDirtyEvictions += wasDirty;
        evicted = Eviction{lineAddr(s.set, tags[victim]), wasDirty};
    }
    tags[victim] = s.tag;
    meta[victim] = nextStamp() << 1 | u32(dirty);
    return evicted;
}

template <typename Sets>
std::optional<Eviction>
BasicSetAssocCache<Sets>::insert(Addr addr, bool dirty)
{
    SetRef s = locate(addr);
    h2_assert(hitWay(s) == kNoWay, cfg.name, ": double insert of addr ",
              addr);
    return insert(s, dirty);
}

template <typename Sets>
std::optional<Eviction>
BasicSetAssocCache<Sets>::fill(Addr addr, bool dirty)
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    if (way == kNoWay)
        return insert(s, dirty);
    if (dirty)
        store.meta(s.at)[way] |= 1;
    return std::nullopt;
}

template <typename Sets>
std::optional<bool>
BasicSetAssocCache<Sets>::invalidate(Addr addr)
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    if (way == kNoWay)
        return std::nullopt;
    bool wasDirty = store.meta(s.at)[way] & 1;
    store.tags(s.at)[way] = kInvalidTag;
    store.meta(s.at)[way] = 0;
    return wasDirty;
}

template <typename Sets>
u32
BasicSetAssocCache<Sets>::residentLinesInRange(Addr base, u64 bytes) const
{
    u32 n = 0;
    for (Addr a = base; a < base + bytes; a += cfg.lineBytes)
        if (probe(a))
            ++n;
    return n;
}

template <typename Sets>
u64
BasicSetAssocCache<Sets>::numValidLines() const
{
    u64 n = 0;
    store.forEachRecord([&](u64 at) {
        const u32 *tags = store.tags(at);
        for (u32 w = 0; w < cfg.ways; ++w)
            n += tags[w] != kInvalidTag;
    });
    return n;
}

template <typename Sets>
void
BasicSetAssocCache<Sets>::renumberStamps()
{
    // A way's rank is one more than the number of valid ways of its set
    // with an older stamp. Sets with no valid way (every untouched one)
    // are only read, so renumbering claims no storage.
    std::vector<u32> ranked(cfg.ways);
    u32 top = 0;
    store.forEachRecord([&](u64 at) {
        const u32 *meta = store.meta(at);
        bool any = false;
        for (u32 w = 0; w < cfg.ways; ++w) {
            u32 rank = 0;
            if (meta[w] != 0) {
                rank = 1;
                for (u32 v = 0; v < cfg.ways; ++v)
                    rank += meta[v] != 0 && meta[v] < meta[w];
                any = true;
            }
            ranked[w] = rank << 1 | (meta[w] & 1);
            top = std::max(top, rank);
        }
        if (any)
            std::copy(ranked.begin(), ranked.end(), store.meta(at));
    });
    clock = top;
}

template <typename Sets>
void
BasicSetAssocCache<Sets>::resetStats()
{
    nHits = 0;
    nMisses = 0;
    nEvictions = 0;
    nDirtyEvictions = 0;
}

template <typename Sets>
void
BasicSetAssocCache<Sets>::collectStats(StatSet &out,
                                       const std::string &prefix) const
{
    out.add(prefix + ".hits", double(nHits));
    out.add(prefix + ".misses", double(nMisses));
    out.add(prefix + ".evictions", double(nEvictions));
    out.add(prefix + ".dirtyEvictions", double(nDirtyEvictions));
}

template class BasicSetAssocCache<DenseSets>;
template class BasicSetAssocCache<SparseSets>;

} // namespace h2::cache
