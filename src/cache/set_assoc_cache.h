/**
 * @file
 * Generic set-associative LRU tag store.
 *
 * Every tag store but Hybrid2's sectored XTA (core/xta.h) is one of
 * these: the SRAM hierarchy (L1/L2/LLC), the remap caches and
 * Chameleon's cache mode on dense set storage (SetAssocCache), and the
 * DRAM-cache baselines' tag arrays on sparse set storage
 * (SparseSetAssocCache). Purely functional+statistical: it tracks
 * presence/dirtiness, not data values.
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

/**
 * Dense set storage: two set-major lanes of sets * ways entries, one
 * per field. A set's handle is the lane offset of its first way in
 * both lanes. For the SRAM hierarchy, the remap caches and Chameleon's
 * cache mode: small tag stores, or ones whose touched sets fill most
 * of their pages.
 */
class DenseSets
{
  public:
    DenseSets() = default;
    DenseSets(u32 sets, u32 ways)
        : tagLane(u64(sets) * ways), metaLane(u64(sets) * ways)
    {
    }

    /** Handle of @p set, for sets of @p ways ways. */
    u64 find(u32 set, u32 ways) const { return u64(set) * ways; }
    /** Writable handle of @p set, whose handle is @p at. */
    u64 claim(u32, u64 at) { return at; }

    u32 *tags(u64 at) { return tagLane.data() + at; }
    const u32 *tags(u64 at) const { return tagLane.data() + at; }
    u64 *meta(u64 at) { return metaLane.data() + at; }
    const u64 *meta(u64 at) const { return metaLane.data() + at; }

    /** Ways whose tag is nonzero (valid). */
    u64
    validWays() const
    {
        u64 n = 0;
        for (u64 i = 0; i < tagLane.size(); ++i)
            n += tagLane[i] != 0;
        return n;
    }

  private:
    ZeroLane<u32> tagLane;
    ZeroLane<u64> metaLane;
};

/**
 * Sparse set storage: a ZeroLane<u32> directory with one record number
 * per set (0 = never written) and a ZeroLane arena into which per-set
 * records are packed in first-write order. The arena keeps ZeroLane's
 * huge-page rule: its touched part is one dense prefix, so huge pages
 * round residency up by less than 2 MiB, and they keep the TLB misses
 * of scattered set lookups near the dense lanes' level (on base pages
 * BM_DramCacheTagAccess ran about 40% slower; README, "Demand-zero
 * tables"). A record holds the
 * set's ways tags, then (8-byte aligned) its ways meta words, so a
 * set's handle is the byte offset of its one record and every way
 * scan runs over one contiguous run of memory. Arena record 0 is never
 * written: a probe, lookup or invalidate of a set that was never
 * written reads an all-invalid set and allocates nothing; only
 * claim(), called by an insertion, gives a set its record. Resident
 * memory therefore follows the sets a run fills, not how widely they
 * are spread. For the DRAM-cache tag stores (IdealCache: ideal, DFC,
 * tagless), which cover all of NM and are filled at random sets.
 */
class SparseSets
{
  public:
    SparseSets() = default;
    SparseSets(u32 sets, u32 setWays)
        : ways(setWays),
          metaOffset(ceilDiv(u64(setWays) * sizeof(u32), 8) * 8),
          recordBytes(metaOffset + u64(setWays) * sizeof(u64)), dir(sets),
          arena((u64(sets) + 1) * recordBytes)
    {
    }

    /** Handle of @p set: record 0's if it was never written (a
     *  record holds its own ways, so the set's way count is unused). */
    u64 find(u32 set, u32) const { return u64(dir[set]) * recordBytes; }
    /** Writable handle of @p set, whose handle is @p at: claims the
     *  next arena record on the set's first write. */
    u64
    claim(u32 set, u64 at)
    {
        if (at != 0)
            return at;
        dir[set] = ++nRecords;
        return u64(nRecords) * recordBytes;
    }

    u32 *tags(u64 at) { return reinterpret_cast<u32 *>(arena.data() + at); }
    const u32 *
    tags(u64 at) const
    {
        return reinterpret_cast<const u32 *>(arena.data() + at);
    }
    u64 *
    meta(u64 at)
    {
        return reinterpret_cast<u64 *>(arena.data() + at + metaOffset);
    }
    const u64 *
    meta(u64 at) const
    {
        return reinterpret_cast<const u64 *>(arena.data() + at +
                                             metaOffset);
    }

    /** Ways whose tag is nonzero (valid), over the claimed records. */
    u64
    validWays() const
    {
        u64 n = 0;
        for (u64 r = 1; r <= nRecords; ++r) {
            const u32 *t = tags(r * recordBytes);
            for (u32 w = 0; w < ways; ++w)
                n += t[w] != 0;
        }
        return n;
    }

    /** Records claimed so far (the arena's touched prefix). */
    u64 records() const { return nRecords; }

  private:
    u32 ways = 0;
    u64 metaOffset = 0;  ///< byte offset of the meta words in a record
    u64 recordBytes = 0;
    u32 nRecords = 0;
    ZeroLane<u32> dir;
    ZeroLane<unsigned char> arena;
};

/**
 * Set-associative, write-back, write-allocate tag store over set
 * storage @p Sets (DenseSets or SparseSets), chosen at compile time so
 * that neither layout pays a per-access branch for the other. Lookup,
 * LRU, victim choice and eviction are one implementation: each
 * operation resolves its set to one handle, and the way scans read
 * the set's tags and meta words through it.
 */
template <typename Sets>
class BasicSetAssocCache
{
  public:
    explicit BasicSetAssocCache(const CacheParams &params);

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
    /** The set storage (tests read SparseSets::records()). */
    const Sets &setStore() const { return store; }

    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }
    u64 evictions() const { return nEvictions; }
    u64 dirtyEvictions() const { return nDirtyEvictions; }

    /** Zero the counters (contents are kept; used after warm-up). */
    void resetStats();

    void collectStats(StatSet &out, const std::string &prefix) const;

  private:
    static constexpr u32 kNoWay = ~u32(0);
    /** Tag word of an invalid way. A way stores ~tag as a u32, so no
     *  stored tag is 0 while tags stay below kTagLimit, the hit scan
     *  needs no separate valid bit, and fresh (demand-zero) storage is
     *  all invalid. */
    static constexpr u32 kInvalidTag = 0;
    /** Tags must be below this for ~tag to fit a u32 and stay nonzero:
     *  addresses below addrLimit(). */
    static constexpr u64 kTagLimit = ~u32(0);

    /** The set an address maps to, and its stored tag. */
    struct SetRef
    {
        u64 at;   ///< the set's storage handle (Sets::find)
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
    /** The set @p addr maps to. */
    SetRef
    locate(Addr addr) const
    {
        u64 block = blockIndex(addr);
        u32 set = setIndex(block);
        return {store.find(set, cfg.ways), set, tagOf(block)};
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
        const u32 *tags = store.tags(s.at);
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
    // A way's tag word holds ~tag (u32, 0 = invalid), so a 16-way
    // set's hit scan reads one 64 B host line. Its meta word holds
    // stamp << 1 | dirty (u64): the recency stamp and the dirty bit
    // move together, and 63 stamp bits cannot wrap within any run (2^63
    // clock ticks). A valid way's stamp is at least 1 and every stamp
    // is a distinct clock tick, so comparing meta words orders ways by
    // stamp, and an invalid way's meta word (0) is below every valid
    // one. Zero bytes are an invalid, clean, never stamped way, so
    // construction touches no storage.
    Sets store;
    u64 clock = 0; ///< recency stamp source
    u64 nHits = 0;
    u64 nMisses = 0;
    u64 nEvictions = 0;
    u64 nDirtyEvictions = 0;
};

/** The SRAM hierarchy's (and every small tag store's) cache. */
using SetAssocCache = BasicSetAssocCache<DenseSets>;
/** A tag store that holds only the sets a run fills (the DRAM caches). */
using SparseSetAssocCache = BasicSetAssocCache<SparseSets>;

extern template class BasicSetAssocCache<DenseSets>;
extern template class BasicSetAssocCache<SparseSets>;

} // namespace h2::cache
