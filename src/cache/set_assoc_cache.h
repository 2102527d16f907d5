/**
 * @file
 * Generic set-associative tag store.
 *
 * Used for the SRAM hierarchy (L1/L2/LLC) and as the tag structure of
 * several DRAM-cache baselines. Purely functional+statistical: it tracks
 * presence/dirtiness, not data values.
 */

#pragma once

#include <optional>
#include <string>

#include "cache/replacement.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/zero_lane.h"

namespace h2::cache {

/** Geometry and policy of a SetAssocCache. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 0;
    u32 ways = 1;
    u32 lineBytes = 64;
    ReplPolicy repl = ReplPolicy::Lru;
};

/** A line evicted by an insertion. */
struct Eviction
{
    Addr addr = 0;   ///< base address of the victim line
    bool dirty = false;
};

/** Set-associative, write-back, write-allocate tag store. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Look up @p addr; on hit, refresh replacement state and apply the
     * dirty bit for writes.
     * @return true on hit.
     */
    bool access(Addr addr, AccessType type);

    /** Look up without disturbing replacement state or stats. */
    bool probe(Addr addr) const;

    /** True if present and dirty. */
    bool probeDirty(Addr addr) const;

    /**
     * Insert the line containing @p addr (it must not be present).
     * @return the evicted line, if any valid line had to make room.
     */
    std::optional<Eviction> insert(Addr addr, bool dirty);

    /** Remove the line containing @p addr if present.
     *  @return the removed line's dirtiness. */
    std::optional<bool> invalidate(Addr addr);

    /** Mark the line containing @p addr dirty; it must be present. */
    void setDirty(Addr addr);

    /** Number of valid lines whose addresses fall in
     *  [@p base, @p base + @p bytes). */
    u32 residentLinesInRange(Addr base, u64 bytes) const;

    const CacheParams &params() const { return cfg; }
    u32 numSets() const { return sets; }
    u64 numValidLines() const;

    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }
    u64 evictions() const { return nEvictions; }
    u64 dirtyEvictions() const { return nDirtyEvictions; }

    /** Zero the counters (contents are kept; used after warm-up). */
    void resetStats();

    void collectStats(StatSet &out, const std::string &prefix) const;

  private:
    /** A way located by findSlot(). */
    struct Slot
    {
        u64 base;  ///< set-major lane offset of the way's set
        u32 way;   ///< way index within the set, or kNoWay
    };
    static constexpr u32 kNoWay = ~u32(0);
    /** Tag-lane value of an invalid way. The lane stores ~tag: real
     *  tags are block/sets and stay far below 2^64 for any addressable
     *  capacity, so no stored tag is 0, the hit scan needs no separate
     *  valid bit, and a fresh (demand-zero) lane is all invalid. */
    static constexpr u64 kInvalidTag = 0;

    // Hot-path index math: every lookup needs block/set/tag, so the
    // usual power-of-two geometries fold the div/mod into shift/mask
    // at construction (cf. DramDevice::decode); exotic sizes keep the
    // exact div/mod fallback.
    u64
    blockIndex(Addr addr) const
    {
        return linePow2 ? addr >> lineShift : addr / cfg.lineBytes;
    }
    u32
    setIndex(u64 block) const
    {
        return static_cast<u32>(setPow2 ? block & setMask : block % sets);
    }
    /** Stored (complemented) tag of @p block. */
    u64
    tagOf(u64 block) const
    {
        return ~(setPow2 ? block >> setShift : block / sets);
    }
    /** Base address of @p set's line whose stored tag is @p stored. */
    Addr lineAddr(u32 set, u64 stored) const
    {
        return (~stored * sets + set) * u64(cfg.lineBytes);
    }
    /** Offset of @p set's tags in `lane`; its stamps follow at
     *  + ways. Its dirty flags start at half of it in `dirtyLane`. */
    u64 setBase(u32 set) const { return u64(set) * 2 * cfg.ways; }
    u64 &tagAt(Slot s) { return lane[s.base + s.way]; }
    u64 &stampAt(Slot s) { return lane[s.base + cfg.ways + s.way]; }
    u8 &dirtyAt(Slot s) { return dirtyLane[s.base / 2 + s.way]; }
    u8 dirtyAt(Slot s) const { return dirtyLane[s.base / 2 + s.way]; }
    Slot findSlot(Addr addr) const;

    CacheParams cfg;
    u32 sets;
    bool linePow2 = false;
    bool setPow2 = false;
    u32 lineShift = 0;
    u32 setShift = 0;
    u64 setMask = 0;
    // Set-major tag store: each set's `ways` tags are followed by its
    // `ways` recency stamps in one lane, so a fill's hit scan, victim
    // scan and stamp write stay within the set's own cache lines.
    // Dirty flags (touched on writes and evictions only) keep their
    // own sets * ways lane. Zero bytes are an invalid, clean, never
    // stamped way, so construction touches neither lane.
    ZeroLane<u64> lane;
    ZeroLane<u8> dirtyLane;
    u64 clock = 0; ///< recency stamp source
    u64 nHits = 0;
    u64 nMisses = 0;
    u64 nEvictions = 0;
    u64 nDirtyEvictions = 0;
};

} // namespace h2::cache
