/**
 * @file
 * Tests for the LRU victim rule and the generic set-associative cache
 * on dense and sparse set storage, including op-by-op equality with a
 * reference tag store.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "ref_cache.h"

namespace h2::cache {
namespace {

using ref::RefCache;
using ref::selectVictim;

CacheParams
smallCache(u32 ways = 4, u32 lineBytes = 64)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = u64(ways) * lineBytes * 8; // 8 sets
    p.ways = ways;
    p.lineBytes = lineBytes;
    return p;
}

TEST(Replacement, InvalidWayWinsFirst)
{
    u64 stamps[4] = {5, 6, 7, 8};
    bool valids[4] = {true, true, false, true};
    EXPECT_EQ(selectVictim(stamps, valids, 4), 2u);
}

TEST(Replacement, LruPicksSmallestStamp)
{
    u64 stamps[4] = {5, 2, 7, 8};
    bool valids[4] = {true, true, true, true};
    EXPECT_EQ(selectVictim(stamps, valids, 4), 1u);
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, AccessType::Read));
    c.insert(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, AccessType::Read));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, SubLineAddressesAlias)
{
    SetAssocCache c(smallCache());
    c.insert(0x1000, false);
    EXPECT_TRUE(c.access(0x1004, AccessType::Read));
    EXPECT_TRUE(c.probe(0x103F));
    EXPECT_FALSE(c.probe(0x1040));
}

TEST(SetAssocCache, LruEvictionOrder)
{
    // 4-way set; fill 4 lines of one set, touch the first, insert a
    // fifth: the second line (LRU) must be evicted.
    SetAssocCache c(smallCache());
    u64 setStride = 8 * 64; // 8 sets * 64 B
    for (u64 i = 0; i < 4; ++i)
        c.insert(i * setStride, false);
    EXPECT_TRUE(c.access(0, AccessType::Read)); // refresh way 0
    auto victim = c.insert(4 * setStride, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, setStride);
}

TEST(SetAssocCache, DirtyTracking)
{
    SetAssocCache c(smallCache());
    c.insert(0x40, false);
    EXPECT_FALSE(c.probeDirty(0x40));
    c.access(0x40, AccessType::Write);
    EXPECT_TRUE(c.probeDirty(0x40));
}

TEST(SetAssocCache, DirtyEvictionReported)
{
    SetAssocCache c(smallCache(1)); // direct-mapped, 8 sets
    c.insert(0, true);
    auto victim = c.insert(8 * 64, false); // same set
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(SetAssocCache, InsertDirtyFlag)
{
    SetAssocCache c(smallCache());
    c.insert(0x80, true);
    EXPECT_TRUE(c.probeDirty(0x80));
}

TEST(SetAssocCache, Invalidate)
{
    SetAssocCache c(smallCache());
    c.insert(0x100, true);
    auto wasDirty = c.invalidate(0x100);
    ASSERT_TRUE(wasDirty.has_value());
    EXPECT_TRUE(*wasDirty);
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.invalidate(0x100).has_value());
}

TEST(SetAssocCache, FillMergesDirtIntoPresentLine)
{
    // A present line takes the fill's dirt and nothing else: no
    // eviction, no stats, and a clean fill never cleans it.
    SetAssocCache c(smallCache());
    c.insert(0x200, false);
    EXPECT_FALSE(c.fill(0x200, false).has_value());
    EXPECT_FALSE(c.probeDirty(0x200));
    EXPECT_FALSE(c.fill(0x200, true).has_value());
    EXPECT_TRUE(c.probeDirty(0x200));
    EXPECT_FALSE(c.fill(0x200, false).has_value());
    EXPECT_TRUE(c.probeDirty(0x200));
    EXPECT_EQ(c.numValidLines(), 1u);
    EXPECT_EQ(c.hits() + c.misses() + c.evictions(), 0u);
}

TEST(SetAssocCache, FillInsertsAbsentLine)
{
    SetAssocCache c(smallCache(1)); // direct-mapped, 8 sets
    EXPECT_FALSE(c.fill(0x40, true).has_value());
    EXPECT_TRUE(c.probeDirty(0x40));
    auto victim = c.fill(0x40 + 8 * 64, false); // same set
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x40u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_FALSE(c.probeDirty(0x40 + 8 * 64));
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(SetAssocCache, AddrLimitIsThe32BitTagRange)
{
    // 8 sets of 64 B lines: a set span of 512 B per tag value.
    SetAssocCache c(smallCache());
    Addr limit = c.addrLimit();
    EXPECT_EQ(limit, (u64(1) << 32) * 512 - 512);
    c.insert(limit - 64, true);
    EXPECT_TRUE(c.probeDirty(limit - 64));
    EXPECT_EQ(c.numValidLines(), 1u);
}

TEST(SetAssocCache, ResidentLinesInRange)
{
    SetAssocCache c(smallCache(4, 64));
    c.insert(0, false);
    c.insert(64, false);
    c.insert(192, false);
    EXPECT_EQ(c.residentLinesInRange(0, 256), 3u);
    EXPECT_EQ(c.residentLinesInRange(0, 128), 2u);
    EXPECT_EQ(c.residentLinesInRange(256, 256), 0u);
}

TEST(SetAssocCache, NumValidLines)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.numValidLines(), 0u);
    c.insert(0, false);
    c.insert(64, false);
    EXPECT_EQ(c.numValidLines(), 2u);
}

TEST(SetAssocCache, FreshCacheFillsWayZeroFirst)
{
    // A fresh tag lane is all invalid, so fills take ways 0..3 in
    // order, and the fifth fill evicts the oldest of them: way 0.
    CacheParams p = smallCache(4, 64);
    p.sizeBytes = 4 * 64; // one set
    SetAssocCache c(p);
    EXPECT_EQ(c.numValidLines(), 0u);
    for (Addr a = 0; a < 4 * 64; a += 64)
        EXPECT_FALSE(c.insert(a, false).has_value());
    EXPECT_EQ(c.numValidLines(), 4u);
    auto evicted = c.insert(4 * 64, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, 0u);
}

TEST(SetAssocCacheDeath, DoubleInsert)
{
    SetAssocCache c(smallCache());
    c.insert(0x40, false);
    EXPECT_DEATH(c.insert(0x40, false), "double insert");
}

TEST(SetAssocCacheDeath, AddressBeyondTagRange)
{
    SetAssocCache c(smallCache());
    EXPECT_DEATH(c.probe(c.addrLimit()), "32-bit tag range");
}

/** Both evicted nothing, or both evicted one line equally dirty. */
bool
sameEviction(const std::optional<Eviction> &a,
             const std::optional<Eviction> &b)
{
    return a.has_value() == b.has_value() &&
        (!a || (a->addr == b->addr && a->dirty == b->dirty));
}

/** Drive a cache of type @p Cache and RefCache with one seeded op
 *  stream of @p ops operations, asserting equal results, evictions and
 *  counters after every op. */
template <typename Cache>
void
runAgainstReference(const CacheParams &p, u64 seed, int ops = 4000)
{
    Cache c(p);
    RefCache ref(p);
    // A working set of ~3x capacity keeps every set under replacement
    // pressure; sub-line offsets alias.
    const u64 lines = 3 * p.sizeBytes / p.lineBytes;
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        Addr a = rng.below(lines) * p.lineBytes + rng.below(p.lineBytes);
        ASSERT_EQ(c.probe(a), ref.probe(a));
        bool present = ref.probe(a);
        switch (rng.below(6)) {
          case 0:
          case 1: {
            AccessType t =
                rng.chance(0.3) ? AccessType::Write : AccessType::Read;
            ASSERT_EQ(c.access(a, t), ref.access(a, t));
            break;
          }
          case 2:
          case 3:
            if (!present) {
                bool dirty = rng.chance(0.4);
                auto got = c.insert(a, dirty);
                auto want = ref.insert(a, dirty);
                ASSERT_TRUE(sameEviction(got, want));
            }
            break;
          case 4:
            ASSERT_EQ(c.invalidate(a), ref.invalidate(a));
            break;
          default: {
            bool dirty = rng.chance(0.5);
            auto got = c.fill(a, dirty);
            auto want = ref.fill(a, dirty);
            ASSERT_TRUE(sameEviction(got, want));
            ASSERT_EQ(c.probeDirty(a), ref.probeDirty(a));
            break;
          }
        }
        ASSERT_EQ(c.hits(), ref.hits);
        ASSERT_EQ(c.misses(), ref.misses);
        ASSERT_EQ(c.evictions(), ref.evictions);
        ASSERT_EQ(c.dirtyEvictions(), ref.dirtyEvictions);
    }
    EXPECT_EQ(c.numValidLines(), ref.numValidLines());
    EXPECT_GT(c.evictions(), 0u);
}

/** runAgainstReference over small geometries: 1 to 16 ways, and a
 *  power-of-two, a non-power-of-two and a single set. */
template <typename Cache>
void
runSmallGeometriesAgainstReference()
{
    u64 seed = 0;
    for (u32 ways : {1u, 3u, 8u, 16u}) {
        for (u32 sets : {16u, 12u, 1u}) { // pow2, not pow2, single
            CacheParams p;
            p.name = "ref";
            p.ways = ways;
            p.sizeBytes = u64(sets) * ways * p.lineBytes;
            SCOPED_TRACE("ways=" + std::to_string(ways) +
                         " sets=" + std::to_string(sets));
            ASSERT_EQ(Cache(p).numSets(), sets);
            runAgainstReference<Cache>(p, ++seed);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(SetAssocCache, MatchesReferenceModel)
{
    runSmallGeometriesAgainstReference<SetAssocCache>();
}

TEST(SparseSetAssocCache, MatchesReferenceModel)
{
    runSmallGeometriesAgainstReference<SparseSetAssocCache>();
}

/** A DRAM-cache tag store's shape: many sets, 16 ways, 1 KiB lines. */
CacheParams
dramCacheGeometry(u32 sets)
{
    CacheParams p;
    p.name = "dramCacheTags";
    p.ways = 16;
    p.lineBytes = 1024;
    p.sizeBytes = u64(sets) * p.ways * p.lineBytes;
    return p;
}

TEST(SparseSetAssocCache, MatchesReferenceModelAtDramCacheGeometry)
{
    // 2,048 sets of 16 ways: about 16 insertions per set over the
    // stream, so sets claim their records in scattered order and most
    // of them evict.
    runAgainstReference<SparseSetAssocCache>(dramCacheGeometry(2048), 77,
                                             100000);
}

TEST(SparseSetAssocCache, UnwrittenSetsClaimNoRecord)
{
    // 1 GiB of 1 KiB lines: 65,536 sets. Reads and invalidates of sets
    // never written read the shared all-invalid record.
    SparseSetAssocCache c(dramCacheGeometry(65536));
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.below(c.addrLimit() / 1024) * 1024;
        EXPECT_FALSE(c.probe(a));
        EXPECT_FALSE(c.probeDirty(a));
        EXPECT_FALSE(c.access(a, i % 2 ? AccessType::Write
                                        : AccessType::Read));
        EXPECT_FALSE(c.invalidate(a).has_value());
    }
    EXPECT_EQ(c.setStore().records(), 0u);
    EXPECT_EQ(c.misses(), 20000u);
    EXPECT_EQ(c.numValidLines(), 0u);
    EXPECT_EQ(c.residentLinesInRange(0, 64 * MiB), 0u);

    // The first insertion into a set claims its record; later ones into
    // the same set reuse it, and an emptied set keeps it.
    const u64 setSpan = u64(c.numSets()) * 1024;
    c.insert(0, true);
    c.insert(setSpan, false);
    EXPECT_EQ(c.setStore().records(), 1u);
    c.fill(1024, false);
    EXPECT_EQ(c.setStore().records(), 2u);
    EXPECT_EQ(c.invalidate(0), std::optional<bool>(true));
    EXPECT_EQ(c.invalidate(setSpan), std::optional<bool>(false));
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.setStore().records(), 2u);
    EXPECT_EQ(c.numValidLines(), 1u);
}

TEST(SparseSetAssocCache, ValidLineCountsMatchDenseStorage)
{
    // One op stream over both storages: the valid-line count (a scan
    // of every way for the dense lanes, of the claimed records for the
    // sparse arena) and per-range residency agree.
    CacheParams p = dramCacheGeometry(512);
    SetAssocCache dense(p);
    SparseSetAssocCache sparse(p);
    const u64 lines = 2 * p.sizeBytes / p.lineBytes;
    Rng rng(9);
    for (int op = 0; op < 20000; ++op) {
        Addr a = rng.below(lines) * p.lineBytes;
        bool dirty = rng.chance(0.3);
        if (rng.below(5) == 0) {
            ASSERT_EQ(dense.invalidate(a), sparse.invalidate(a));
        } else {
            ASSERT_TRUE(sameEviction(dense.fill(a, dirty),
                                     sparse.fill(a, dirty)));
        }
        if (op % 1000 == 0) {
            ASSERT_EQ(dense.numValidLines(), sparse.numValidLines());
        }
    }
    EXPECT_GT(dense.numValidLines(), p.sizeBytes / p.lineBytes / 2);
    EXPECT_EQ(dense.numValidLines(), sparse.numValidLines());
    for (u64 base = 0; base < 2 * p.sizeBytes; base += p.sizeBytes / 4) {
        EXPECT_EQ(dense.residentLinesInRange(base, p.sizeBytes / 4),
                  sparse.residentLinesInRange(base, p.sizeBytes / 4))
            << base;
    }
    EXPECT_EQ(dense.residentLinesInRange(0, 2 * p.sizeBytes),
              dense.numValidLines());
}

struct GeometryParam
{
    u32 ways;
    u32 lineBytes;
};

class CacheGeometry : public ::testing::TestWithParam<GeometryParam>
{
};

TEST_P(CacheGeometry, FillWholeCacheThenHitEverything)
{
    auto [ways, lineBytes] = GetParam();
    CacheParams p;
    p.name = "sweep";
    p.sizeBytes = 64 * KiB;
    p.ways = ways;
    p.lineBytes = lineBytes;
    SetAssocCache c(p);

    u64 lines = p.sizeBytes / lineBytes;
    for (u64 i = 0; i < lines; ++i)
        ASSERT_FALSE(c.insert(i * lineBytes, false).has_value());
    EXPECT_EQ(c.numValidLines(), lines);
    for (u64 i = 0; i < lines; ++i)
        ASSERT_TRUE(c.access(i * lineBytes, AccessType::Read));
    // One more distinct line forces exactly one eviction.
    EXPECT_TRUE(c.insert(lines * lineBytes, false).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeometryParam{1, 64}, GeometryParam{2, 64},
                      GeometryParam{4, 64}, GeometryParam{8, 256},
                      GeometryParam{16, 64}, GeometryParam{16, 1024},
                      GeometryParam{4, 4096}));

} // namespace
} // namespace h2::cache
