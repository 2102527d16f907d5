/**
 * @file
 * Generic set-associative LRU tag store.
 *
 * Every tag store but Hybrid2's sectored XTA (core/xta.h) is one of
 * these: the SRAM hierarchy (L1/L2/LLC), the remap caches and
 * Chameleon's cache mode on dense set storage (SetAssocCache), and the
 * DRAM-cache baselines' tag arrays on sparse set storage
 * (SparseSetAssocCache). Purely functional+statistical: it tracks
 * presence/dirtiness, not data values. A way costs 8 bytes, a u32 tag
 * and a u32 meta word in its set's record; recency stamps come from a
 * 31-bit clock that renumberStamps() restarts when it runs out.
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
 * Per-set records in one ZeroLane<u32>: a record holds the set's ways
 * tag words, then its ways meta words, so a set is 8 * ways bytes of
 * contiguous memory (32, 64 or 128 B at 4, 8 or 16 ways: within one
 * host line for the L1 and L2, two adjacent ones for the LLC) and a
 * hit's meta word sits next to the tags its lookup just read. A set's
 * handle is the word offset of its record. Zero words are an invalid,
 * clean, never stamped way, so construction touches no storage. The
 * common part of DenseSets and SparseSets, which differ only in where
 * a set's record lives.
 */
class SetRecords
{
  public:
    u32 *tags(u64 at) { return words.data() + at; }
    const u32 *tags(u64 at) const { return words.data() + at; }
    u32 *meta(u64 at) { return words.data() + at + ways; }
    const u32 *meta(u64 at) const { return words.data() + at + ways; }

  protected:
    SetRecords() = default;
    SetRecords(u64 records, u32 setWays)
        : ways(setWays), recordWords(2 * u64(setWays)),
          words(records * recordWords)
    {
    }

    u32 ways = 0;
    u64 recordWords = 0; ///< words per record: ways tags + ways metas
    ZeroLane<u32> words;
};

/**
 * Dense set storage: every set's record, set-major, so a set's handle
 * is its index times the record size. For the SRAM hierarchy, the
 * remap caches and Chameleon's cache mode: small tag stores, or ones
 * whose touched sets fill most of their pages.
 */
class DenseSets : public SetRecords
{
  public:
    DenseSets() = default;
    DenseSets(u32 sets, u32 setWays) : SetRecords(sets, setWays) {}

    /** Handle of @p set. */
    u64 find(u32 set) const { return u64(set) * recordWords; }
    /** Writable handle of @p set, whose handle is @p at. */
    u64 claim(u32, u64 at) { return at; }

    /** Call @p fn with the handle of every set. */
    template <typename Fn>
    void
    forEachRecord(Fn &&fn) const
    {
        for (u64 at = 0; at < words.size(); at += recordWords)
            fn(at);
    }
};

/**
 * Sparse set storage: a ZeroLane<u32> directory with one record number
 * per set (0 = never written) and an arena of records packed in
 * first-write order. The arena keeps ZeroLane's huge-page rule: its
 * touched part is one dense prefix, so huge pages round residency up
 * by less than 2 MiB, and they keep the TLB misses of scattered set
 * lookups near the dense lanes' level (on base pages
 * BM_DramCacheTagAccess ran about 40% slower; README, "Demand-zero
 * tables"). Arena record 0 is never written: a probe, lookup or
 * invalidate of a set that was never written reads an all-invalid set
 * and allocates nothing; only claim(), called by an insertion, gives a
 * set its record. Resident memory therefore follows the sets a run
 * fills, not how widely they are spread. For the DRAM-cache tag stores
 * (IdealCache: ideal, DFC, tagless), which cover all of NM and are
 * filled at random sets.
 */
class SparseSets : public SetRecords
{
  public:
    SparseSets() = default;
    SparseSets(u32 sets, u32 setWays)
        : SetRecords(u64(sets) + 1, setWays), dir(sets)
    {
    }

    /** Handle of @p set: record 0's if it was never written. */
    u64 find(u32 set) const { return u64(dir[set]) * recordWords; }
    /** Writable handle of @p set, whose handle is @p at: claims the
     *  next arena record on the set's first write. */
    u64
    claim(u32 set, u64 at)
    {
        if (at != 0)
            return at;
        dir[set] = ++nRecords;
        return u64(nRecords) * recordWords;
    }

    /** Call @p fn with the handle of every claimed record. */
    template <typename Fn>
    void
    forEachRecord(Fn &&fn) const
    {
        for (u64 r = 1; r <= nRecords; ++r)
            fn(r * recordWords);
    }

    /** Records claimed so far (the arena's touched prefix). */
    u64 records() const { return nRecords; }

  private:
    u32 nRecords = 0;
    ZeroLane<u32> dir;
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

    /** The set an address maps to and its stored tag: a located
     *  lookup, which a later insertion of the same line can reuse while
     *  no other line has been inserted. */
    struct SetRef
    {
        u64 at;   ///< the set's storage handle (Sets::find)
        u32 set;  ///< set index
        u32 tag;  ///< stored (complemented) tag of the address
    };

    /** The set @p addr maps to. */
    SetRef
    locate(Addr addr) const
    {
        u64 block = blockIndex(addr);
        u32 set = setIndex(block);
        return {store.find(set), set, tagOf(block)};
    }

    /**
     * Look up @p addr; on hit, refresh replacement state and apply the
     * dirty bit for writes.
     * @return true on hit. Defined here so that the hierarchy's
     * lookups inline.
     */
    bool
    access(Addr addr, AccessType type)
    {
        return access(locate(addr), type);
    }

    /** access() of the line @p s located. */
    bool
    access(const SetRef &s, AccessType type)
    {
        u32 way = hitWay(s);
        if (way == kNoWay) {
            ++nMisses;
            return false;
        }
        ++nHits;
        u32 stamp = nextStamp();
        u32 &meta = store.meta(s.at)[way];
        meta = stamp << 1 | (meta & 1) | u32(type == AccessType::Write);
        return true;
    }

    /** Look up without disturbing replacement state or stats. */
    bool probe(Addr addr) const;

    /** True if present and dirty. */
    bool probeDirty(Addr addr) const;

    /**
     * Insert the line containing @p addr (it must not be present).
     * @return the evicted line, if any valid line had to make room.
     */
    std::optional<Eviction> insert(Addr addr, bool dirty);

    /** insert() of the line @p s located, which the caller knows is
     *  absent (a lookup of it missed): no second locate or scan. */
    std::optional<Eviction> insert(const SetRef &s, bool dirty);

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

    /**
     * Rewrite each set's valid stamps as their ranks within the set (1
     * for its least recent way) and restart the clock above them.
     * Every set keeps its recency order, so no later hit, victim or
     * dirt changes. Called when the 31-bit clock runs out.
     */
    void renumberStamps();

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
    friend struct StampClockPeer; // tests: run the clock to its limit

    static constexpr u32 kNoWay = ~u32(0);
    /** The last stamp the clock hands out before renumberStamps(): a
     *  meta word holds stamp << 1 | dirty in 32 bits. */
    static constexpr u32 kStampLimit = (u32(1) << 31) - 1;
    /** Tag word of an invalid way. A way stores ~tag as a u32, so no
     *  stored tag is 0 while tags stay below kTagLimit, the hit scan
     *  needs no separate valid bit, and fresh (demand-zero) storage is
     *  all invalid. */
    static constexpr u32 kInvalidTag = 0;
    /** Tags must be below this for ~tag to fit a u32 and stay nonzero:
     *  addresses below addrLimit(). */
    static constexpr u64 kTagLimit = ~u32(0);

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
    /** The next recency stamp, renumbering first if the clock has
     *  reached kStampLimit. */
    u32
    nextStamp()
    {
        if (clock == kStampLimit)
            renumberStamps();
        return ++clock;
    }

    CacheParams cfg;
    u32 sets;
    bool linePow2 = false;
    bool setPow2 = false;
    u32 lineShift = 0;
    u32 setShift = 0;
    u64 setMask = 0;
    // A way's tag word holds ~tag (0 = invalid), so a 16-way set's hit
    // scan reads one 64 B host line. Its meta word, in the same record,
    // holds stamp << 1 | dirty: the recency stamp and the dirty bit move
    // together. A valid way's stamp is at least 1 and stamps within a
    // set are distinct, so comparing meta words orders a set's ways by
    // recency, and an invalid way's meta word (0) is below every valid
    // one. Stamps come from a 31-bit clock; when it runs out,
    // renumberStamps() ranks each set's stamps and the clock restarts
    // above the ranks.
    Sets store;
    u32 clock = 0; ///< recency stamp source
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
