/**
 * @file
 * Reference models for the tag-store tests: the LRU victim rule and the
 * set-associative tag store as first written, with separate tag, stamp
 * and dirty lanes and a probe + setDirty / insert fill. SetAssocCache
 * and CacheHierarchy are pinned to them op by op.
 */

#pragma once

#include <optional>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/log.h"
#include "common/types.h"

namespace h2::cache::ref {

/**
 * Reference LRU victim rule among @p ways entries: an invalid way wins
 * immediately, else the lowest-index smallest stamp. SetAssocCache
 * applies this rule inside its one scan of the set;
 * SetAssocCache.MatchesReferenceModel pins it here.
 */
inline u32
selectVictim(const u64 *stamps, const bool *valids, u32 ways)
{
    h2_assert(ways > 0, "victim selection over zero ways");
    for (u32 w = 0; w < ways; ++w)
        if (!valids[w])
            return w;
    u32 victim = 0;
    for (u32 w = 1; w < ways; ++w)
        if (stamps[w] < stamps[victim])
            victim = w;
    return victim;
}

/** The tag store as first written: way-major tag, stamp and dirty
 *  lanes of sets * ways each, plain div/mod indexing, and the victim
 *  rule applied through selectVictim(). */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params)
        : cfg(params),
          sets(params.sizeBytes / (u64(params.ways) * params.lineBytes)),
          tagLane(sets * params.ways, kInvalid),
          stampLane(sets * params.ways, 0), dirtyLane(sets * params.ways, 0)
    {
    }

    bool
    access(Addr addr, AccessType type)
    {
        u64 slot = findSlot(addr);
        if (slot == kNone) {
            ++misses;
            return false;
        }
        ++hits;
        stampLane[slot] = ++clock;
        if (type == AccessType::Write)
            dirtyLane[slot] = 1;
        return true;
    }

    bool probe(Addr addr) const { return findSlot(addr) != kNone; }

    bool
    probeDirty(Addr addr) const
    {
        u64 slot = findSlot(addr);
        return slot != kNone && dirtyLane[slot];
    }

    std::optional<Eviction>
    insert(Addr addr, bool dirty)
    {
        u64 block = addr / cfg.lineBytes;
        u64 set = block % sets;
        u64 base = set * cfg.ways;
        bool valids[64];
        for (u32 w = 0; w < cfg.ways; ++w)
            valids[w] = tagLane[base + w] != kInvalid;
        u32 victim = selectVictim(&stampLane[base], valids, cfg.ways);
        std::optional<Eviction> evicted;
        u64 slot = base + victim;
        if (tagLane[slot] != kInvalid) {
            ++evictions;
            if (dirtyLane[slot])
                ++dirtyEvictions;
            evicted = Eviction{(tagLane[slot] * sets + set) * cfg.lineBytes,
                               dirtyLane[slot] != 0};
        }
        tagLane[slot] = block / sets;
        dirtyLane[slot] = dirty ? 1 : 0;
        stampLane[slot] = ++clock;
        return evicted;
    }

    std::optional<bool>
    invalidate(Addr addr)
    {
        u64 slot = findSlot(addr);
        if (slot == kNone)
            return std::nullopt;
        bool wasDirty = dirtyLane[slot] != 0;
        tagLane[slot] = kInvalid;
        dirtyLane[slot] = 0;
        stampLane[slot] = 0;
        return wasDirty;
    }

    /** Mark a present line dirty. */
    void setDirty(Addr addr) { dirtyLane[findSlot(addr)] = 1; }

    /** The hierarchy's fill as first written: probe, then setDirty
     *  on a present line or insert an absent one. */
    std::optional<Eviction>
    fill(Addr addr, bool dirty)
    {
        if (probe(addr)) {
            if (dirty)
                setDirty(addr);
            return std::nullopt;
        }
        return insert(addr, dirty);
    }

    u64
    numValidLines() const
    {
        u64 n = 0;
        for (u64 tag : tagLane)
            n += tag != kInvalid;
        return n;
    }

    u64 hits = 0, misses = 0, evictions = 0, dirtyEvictions = 0;

  private:
    static constexpr u64 kInvalid = ~u64(0);
    static constexpr u64 kNone = ~u64(0);

    u64
    findSlot(Addr addr) const
    {
        u64 block = addr / cfg.lineBytes;
        u64 base = (block % sets) * cfg.ways;
        for (u32 w = 0; w < cfg.ways; ++w)
            if (tagLane[base + w] == block / sets)
                return base + w;
        return kNone;
    }

    CacheParams cfg;
    u64 sets;
    std::vector<u64> tagLane;
    std::vector<u64> stampLane;
    std::vector<u8> dirtyLane;
    u64 clock = 0;
};

} // namespace h2::cache::ref
