#include "cache/set_assoc_cache.h"

#include "common/log.h"
#include "common/rng.h"

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
    lane = ZeroLane<u64>(2 * n);
    dirtyLane = ZeroLane<u8>(n);
}

SetAssocCache::Slot
SetAssocCache::findSlot(Addr addr) const
{
    u64 block = blockIndex(addr);
    u64 tag = tagOf(block);
    u64 base = setBase(setIndex(block));
    for (u32 w = 0; w < cfg.ways; ++w)
        if (lane[base + w] == tag)
            return {base, w};
    return {base, kNoWay};
}

bool
SetAssocCache::access(Addr addr, AccessType type)
{
    Slot slot = findSlot(addr);
    if (slot.way == kNoWay) {
        ++nMisses;
        return false;
    }
    ++nHits;
    if (cfg.repl == ReplPolicy::Lru)
        stampAt(slot) = ++clock;
    if (type == AccessType::Write)
        dirtyAt(slot) = 1;
    return true;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return findSlot(addr).way != kNoWay;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    Slot slot = findSlot(addr);
    return slot.way != kNoWay && dirtyAt(slot);
}

std::optional<Eviction>
SetAssocCache::insert(Addr addr, bool dirty)
{
    u64 block = blockIndex(addr);
    u32 set = setIndex(block);
    u64 tag = tagOf(block);
    u64 base = setBase(set);
    const u64 *tags = &lane[base];
    const u64 *stamps = tags + cfg.ways;

    // One pass over the set: the double-insert check, the first
    // invalid way, and the lowest-index smallest stamp. The victim
    // rule (pinned by the reference model in tests/test_cache.cc):
    // first invalid way, else the Random hash, else the oldest stamp.
    // It draws one clock tick for the tiebreak and one for the new
    // stamp, whatever the policy.
    u32 invalid = kNoWay;
    u32 oldest = 0;
    for (u32 w = 0; w < cfg.ways; ++w) {
        h2_assert(tags[w] != tag, cfg.name, ": double insert of addr ",
                  addr);
        if (tags[w] == kInvalidTag) {
            if (invalid == kNoWay)
                invalid = w;
        } else if (stamps[w] < stamps[oldest]) {
            oldest = w;
        }
    }
    u64 tiebreak = ++clock;
    u32 victim = invalid != kNoWay ? invalid
        : cfg.repl == ReplPolicy::Random
            ? static_cast<u32>(splitmix64(tiebreak) % cfg.ways)
            : oldest;

    std::optional<Eviction> evicted;
    Slot slot{base, victim};
    if (tagAt(slot) != kInvalidTag) {
        ++nEvictions;
        if (dirtyAt(slot))
            ++nDirtyEvictions;
        evicted = Eviction{lineAddr(set, tagAt(slot)), dirtyAt(slot) != 0};
    }
    tagAt(slot) = tag;
    dirtyAt(slot) = dirty ? 1 : 0;
    stampAt(slot) = ++clock;
    return evicted;
}

std::optional<bool>
SetAssocCache::invalidate(Addr addr)
{
    Slot slot = findSlot(addr);
    if (slot.way == kNoWay)
        return std::nullopt;
    bool wasDirty = dirtyAt(slot) != 0;
    tagAt(slot) = kInvalidTag;
    dirtyAt(slot) = 0;
    stampAt(slot) = 0;
    return wasDirty;
}

void
SetAssocCache::setDirty(Addr addr)
{
    Slot slot = findSlot(addr);
    h2_assert(slot.way != kNoWay, cfg.name, ": setDirty on absent line ",
              addr);
    dirtyAt(slot) = 1;
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
    for (u32 set = 0; set < sets; ++set)
        for (u32 w = 0; w < cfg.ways; ++w)
            if (lane[setBase(set) + w] != kInvalidTag)
                ++n;
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
