/**
 * @file
 * Generic set-associative LRU tag store.
 *
 * Every tag store but Hybrid2's sectored XTA (core/xta.h) is one of
 * these: the SRAM hierarchy (L1/L2/LLC), the DRAM-cache baselines' tag
 * arrays and the remap caches. Purely functional+statistical: it
 * tracks presence/dirtiness, not data values.
 *
 * Tags are stored in 32 bits, so an instance names addresses below
 * addrLimit() only; lookups beyond it panic. System rejects a flat
 * space the SRAM hierarchy cannot name with a fatal naming fm-mib.
 */

#pragma once

#include <optional>
#include <string>

#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/zero_lane.h"

namespace h2::cache {

/** Geometry of a SetAssocCache. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 0;
    u32 ways = 1;
    u32 lineBytes = 64;
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

    /**
     * Fill the line containing @p addr with one lookup of its set: if
     * the line is present, merge @p dirty into it (recency and stats
     * stay as they are); otherwise insert() it.
     * @return the evicted line, if the insertion evicted a valid one.
     */
    std::optional<Eviction> fill(Addr addr, bool dirty);

    /** Remove the line containing @p addr if present.
     *  @return the removed line's dirtiness. */
    std::optional<bool> invalidate(Addr addr);

    /** Number of valid lines whose addresses fall in
     *  [@p base, @p base + @p bytes). */
    u32 residentLinesInRange(Addr base, u64 bytes) const;

    /** Exclusive bound of the addresses the 32-bit tags can name:
     *  2^32 - 1 set spans of sets * lineBytes bytes each (saturating). */
    u64 addrLimit() const;

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
    static constexpr u32 kNoWay = ~u32(0);
    /** Tag-lane value of an invalid way. The lane stores ~tag as a
     *  u32, so no stored tag is 0 while tags stay below kTagLimit, the
     *  hit scan needs no separate valid bit, and a fresh (demand-zero)
     *  lane is all invalid. */
    static constexpr u32 kInvalidTag = 0;
    /** Tags must be below this for ~tag to fit a u32 and stay nonzero:
     *  addresses below addrLimit(). */
    static constexpr u64 kTagLimit = ~u32(0);

    /** The set an address maps to, and its stored tag. */
    struct SetRef
    {
        u64 base; ///< lane offset of the set's first way in both lanes
        u32 set;  ///< set index
        u32 tag;  ///< stored (complemented) tag of the address
    };

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
    u32
    tagOf(u64 block) const
    {
        u64 tag = setPow2 ? block >> setShift : block / sets;
        h2_assert(tag < kTagLimit, cfg.name,
                  ": address beyond the 32-bit tag range");
        return ~static_cast<u32>(tag);
    }
    /** Base address of @p set's line whose stored tag is @p stored. */
    Addr lineAddr(u32 set, u32 stored) const
    {
        return (u64(~stored) * sets + set) * u64(cfg.lineBytes);
    }
    /** Lane offset of @p set's first way in both lanes. */
    u64 setBase(u32 set) const { return u64(set) * cfg.ways; }
    /** The set @p addr maps to. */
    SetRef
    locate(Addr addr) const
    {
        u64 block = blockIndex(addr);
        u32 set = setIndex(block);
        return {setBase(set), set, tagOf(block)};
    }
    /** Way of @p s's set that holds its tag, or kNoWay. The scan runs
     *  to the end of the set rather than exit early: a data-dependent
     *  exit mispredicts on most lookups. A tag is in at most one way
     *  (insert() asserts it), so the sum of w + 1 over matching ways
     *  is the hit way plus one, or 0 (and 0 - 1 is kNoWay): a plain
     *  sum the compiler vectorizes. */
    u32
    hitWay(const SetRef &s) const
    {
        const u32 *tags = &tagLane[s.base];
        u32 sum = 0;
        for (u32 w = 0; w < cfg.ways; ++w)
            sum += tags[w] == s.tag ? w + 1 : 0;
        return sum - 1;
    }
    /** Place @p s's line, which must be absent, over the set's victim. */
    std::optional<Eviction> place(const SetRef &s, bool dirty);

    CacheParams cfg;
    u32 sets;
    bool linePow2 = false;
    bool setPow2 = false;
    u32 lineShift = 0;
    u32 setShift = 0;
    u64 setMask = 0;
    // Two set-major lanes of sets * ways entries. tagLane holds ~tag
    // (u32, 0 = invalid), so a 16-way set's hit scan reads one 64 B
    // host line. metaLane holds stamp << 1 | dirty (u64): the recency
    // stamp and the dirty bit move together, and 63 stamp bits cannot
    // wrap within any run (2^63 clock ticks). A valid way's stamp is at
    // least 1 and every stamp is a distinct clock tick, so comparing
    // meta words orders ways by stamp, and an invalid way's meta word
    // (0) is below every valid one. Zero bytes are an invalid, clean,
    // never stamped way, so construction touches neither lane.
    ZeroLane<u32> tagLane;
    ZeroLane<u64> metaLane;
    u64 clock = 0; ///< recency stamp source
    u64 nHits = 0;
    u64 nMisses = 0;
    u64 nEvictions = 0;
    u64 nDirtyEvictions = 0;
};

} // namespace h2::cache
