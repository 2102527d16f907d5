#include "cache/set_assoc_cache.h"

namespace h2::cache {

SetAssocCache::SetAssocCache(const CacheParams &params)
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
    u64 n = u64(sets) * cfg.ways;
    tagLane = ZeroLane<u32>(n);
    metaLane = ZeroLane<u64>(n);
}

u64
SetAssocCache::addrLimit() const
{
    u64 span = u64(sets) * cfg.lineBytes;
    return span > ~u64(0) / kTagLimit ? ~u64(0) : kTagLimit * span;
}

bool
SetAssocCache::access(Addr addr, AccessType type)
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    if (way == kNoWay) {
        ++nMisses;
        return false;
    }
    ++nHits;
    u64 &meta = metaLane[s.base + way];
    meta = ++clock << 1 | (meta & 1) | u64(type == AccessType::Write);
    return true;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return hitWay(locate(addr)) != kNoWay;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    return way != kNoWay && (metaLane[s.base + way] & 1);
}

std::optional<Eviction>
SetAssocCache::place(const SetRef &s, bool dirty)
{
    // The victim rule (pinned by the reference model in
    // tests/test_cache.cc): first invalid way, else the oldest stamp.
    // Invalid ways have meta 0, below every valid way, so the
    // lowest-index smallest meta word is the first invalid way if there
    // is one and the lowest-index oldest stamp otherwise. Like
    // hitWay(), the scan picks with selects to the end of the set.
    const u64 *meta = &metaLane[s.base];
    u32 victim = 0;
    u64 oldestMeta = meta[0];
    for (u32 w = 1; w < cfg.ways; ++w) {
        bool older = meta[w] < oldestMeta;
        victim = older ? w : victim;
        oldestMeta = older ? meta[w] : oldestMeta;
    }

    u64 slot = s.base + victim;
    std::optional<Eviction> evicted;
    if (tagLane[slot] != kInvalidTag) {
        bool wasDirty = metaLane[slot] & 1;
        ++nEvictions;
        nDirtyEvictions += wasDirty;
        evicted = Eviction{lineAddr(s.set, tagLane[slot]), wasDirty};
    }
    tagLane[slot] = s.tag;
    metaLane[slot] = ++clock << 1 | u64(dirty);
    return evicted;
}

std::optional<Eviction>
SetAssocCache::insert(Addr addr, bool dirty)
{
    SetRef s = locate(addr);
    h2_assert(hitWay(s) == kNoWay, cfg.name, ": double insert of addr ",
              addr);
    return place(s, dirty);
}

std::optional<Eviction>
SetAssocCache::fill(Addr addr, bool dirty)
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    if (way == kNoWay)
        return place(s, dirty);
    if (dirty)
        metaLane[s.base + way] |= 1;
    return std::nullopt;
}

std::optional<bool>
SetAssocCache::invalidate(Addr addr)
{
    SetRef s = locate(addr);
    u32 way = hitWay(s);
    if (way == kNoWay)
        return std::nullopt;
    bool wasDirty = metaLane[s.base + way] & 1;
    tagLane[s.base + way] = kInvalidTag;
    metaLane[s.base + way] = 0;
    return wasDirty;
}

u32
SetAssocCache::residentLinesInRange(Addr base, u64 bytes) const
{
    u32 n = 0;
    for (Addr a = base; a < base + bytes; a += cfg.lineBytes)
        if (probe(a))
            ++n;
    return n;
}

u64
SetAssocCache::numValidLines() const
{
    u64 n = 0;
    for (u64 i = 0; i < tagLane.size(); ++i)
        n += tagLane[i] != kInvalidTag;
    return n;
}

void
SetAssocCache::resetStats()
{
    nHits = 0;
    nMisses = 0;
    nEvictions = 0;
    nDirtyEvictions = 0;
}

void
SetAssocCache::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".hits", double(nHits));
    out.add(prefix + ".misses", double(nMisses));
    out.add(prefix + ".evictions", double(nEvictions));
    out.add(prefix + ".dirtyEvictions", double(nDirtyEvictions));
}

} // namespace h2::cache
