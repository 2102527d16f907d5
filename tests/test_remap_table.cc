/**
 * @file
 * Tests for the remap / inverted remap tables (paper section 3.3).
 */

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "core/remap_table.h"
#include "resident.h"

namespace h2::core {
namespace {

// Layout: 100 NM flat sectors, 20 cache sectors, 400 FM sectors.
RemapTable
makeTable()
{
    return RemapTable(500, 100, 20, 400);
}

TEST(RemapTable, IdentityDefaultsNmRegion)
{
    auto t = makeTable();
    // Flat sector 0 lives right after the cache carve-out.
    EXPECT_EQ(t.lookup(0), (Loc{true, 20}));
    EXPECT_EQ(t.lookup(99), (Loc{true, 119}));
}

TEST(RemapTable, IdentityDefaultsFmRegion)
{
    auto t = makeTable();
    EXPECT_EQ(t.lookup(100), (Loc{false, 0}));
    EXPECT_EQ(t.lookup(499), (Loc{false, 399}));
}

TEST(RemapTable, UpdateOverridesIdentity)
{
    auto t = makeTable();
    t.update(100, Loc{true, 5});
    EXPECT_EQ(t.lookup(100), (Loc{true, 5}));
    EXPECT_EQ(t.lookup(101), (Loc{false, 1})) << "neighbours untouched";
    t.update(100, Loc{false, 17});
    EXPECT_EQ(t.lookup(100), (Loc{false, 17}));
}

TEST(RemapTable, InvertedIdentity)
{
    auto t = makeTable();
    // Cache-region locations start with no occupant.
    EXPECT_FALSE(t.invLookup(0).has_value());
    EXPECT_FALSE(t.invLookup(19).has_value());
    // Flat-region locations hold their identity sector.
    EXPECT_EQ(t.invLookup(20).value(), 0u);
    EXPECT_EQ(t.invLookup(119).value(), 99u);
}

TEST(RemapTable, InvertedUpdateAndTombstone)
{
    auto t = makeTable();
    t.invUpdate(5, 42u);
    EXPECT_EQ(t.invLookup(5).value(), 42u);
    t.invUpdate(5, std::nullopt);
    EXPECT_FALSE(t.invLookup(5).has_value());
    // Tombstoning a flat-region location masks the identity default.
    t.invUpdate(20, std::nullopt);
    EXPECT_FALSE(t.invLookup(20).has_value());
}

TEST(RemapTable, Accessors)
{
    auto t = makeTable();
    EXPECT_EQ(t.flatSectors(), 500u);
    EXPECT_EQ(t.nmFlatSectors(), 100u);
    EXPECT_EQ(t.cacheSectors(), 20u);
    EXPECT_EQ(t.fmSectors(), 400u);
}

TEST(RemapTable, ZeroCacheRegion)
{
    // The migration baselines reuse the table with no cache carve-out.
    RemapTable t(500, 100, 0, 400);
    EXPECT_EQ(t.lookup(0), (Loc{true, 0}));
    EXPECT_EQ(t.invLookup(0).value(), 0u);
}

TEST(RemapTable, NeverWrittenEntriesAreIdentityAtTheBoundaries)
{
    // The tables store each entry XOR its identity value, so a fresh
    // table must read back the identity layout at the edges of every
    // region, and writing the identity back must restore a zero word.
    for (u64 cache : {u64(20), u64(0)}) {
        SCOPED_TRACE(cache);
        const u64 flat = 500, nmFlat = 100, fm = 400;
        RemapTable t(flat, nmFlat, cache, fm);
        for (u64 s : {u64(0), nmFlat - 1, nmFlat, flat - 1}) {
            Loc identity = s < nmFlat ? Loc{true, cache + s}
                                      : Loc{false, s - nmFlat};
            EXPECT_EQ(t.lookup(s), identity) << s;
            EXPECT_EQ(t.rawForward(s), 0u) << s;
            t.update(s, Loc{false, 7});
            EXPECT_NE(t.rawForward(s), 0u) << s;
            t.update(s, identity);
            EXPECT_EQ(t.rawForward(s), 0u) << s;
        }
        std::vector<u64> locs = {0, cache, cache + nmFlat - 1};
        if (cache > 0)
            locs.push_back(cache - 1);
        for (u64 l : locs) {
            std::optional<u64> identity =
                l < cache ? std::nullopt : std::optional<u64>(l - cache);
            EXPECT_EQ(t.invLookup(l), identity) << l;
            EXPECT_EQ(t.rawInverse(l), 0u) << l;
            t.invUpdate(l, 42u);
            EXPECT_NE(t.rawInverse(l), 0u) << l;
            t.invUpdate(l, identity);
            EXPECT_EQ(t.rawInverse(l), 0u) << l;
        }
    }
}

TEST(RemapTableDeath, LookupOutOfRange)
{
    auto t = makeTable();
    EXPECT_DEATH(t.lookup(500), "out of range");
}

TEST(RemapTableDeath, UpdateBadFmLocation)
{
    auto t = makeTable();
    EXPECT_DEATH(t.update(0, Loc{false, 400}), "bad FM location");
}

TEST(RemapTableDeath, InvLookupOutOfRange)
{
    auto t = makeTable();
    EXPECT_DEATH(t.invLookup(120), "out of range");
}

TEST(RemapTableDeath, MismatchedSizes)
{
    EXPECT_DEATH(RemapTable(500, 99, 20, 400), "NM flat region");
}

TEST(RemapTableDeath, IndicesBeyond31Bits)
{
    // Entries are u32 with 31 index bits; the check fires before any
    // table is allocated.
    const u64 big = u64(1) << 31;
    EXPECT_DEATH(RemapTable(big + 1, 1, 0, big), "more than 31 bits");
    EXPECT_DEATH(RemapTable(big, big / 2, big / 2 + 1, big / 2),
                 "more than 31 bits");
}

TEST(RemapTable, RandomizedAgainstReferenceModel)
{
    // The dense tables must behave exactly like sparse overrides of
    // the identity layout kept in std::unordered_map.
    const u64 flat = 5000, nmFlat = 1000, cache = 200, fm = 4000;
    RemapTable t(flat, nmFlat, cache, fm);
    std::unordered_map<u64, Loc> remapRef;
    std::unordered_map<u64, std::optional<u64>> invRef;
    auto expectedLoc = [&](u64 fs) {
        auto it = remapRef.find(fs);
        return it != remapRef.end() ? it->second
            : fs < nmFlat ? Loc{true, cache + fs}
                          : Loc{false, fs - nmFlat};
    };
    auto expectedOccupant = [&](u64 nmLoc) {
        auto it = invRef.find(nmLoc);
        return it != invRef.end() ? it->second
            : nmLoc >= cache ? std::optional<u64>(nmLoc - cache)
                             : std::nullopt;
    };
    Rng rng(99);
    for (int i = 0; i < 50000; ++i) {
        switch (rng.below(4)) {
          case 0: {
            u64 fs = rng.below(flat);
            Loc loc = rng.chance(0.5)
                ? Loc{true, rng.below(cache + nmFlat)}
                : Loc{false, rng.below(fm)};
            t.update(fs, loc);
            remapRef[fs] = loc;
            break;
          }
          case 1: {
            u64 nmLoc = rng.below(cache + nmFlat);
            std::optional<u64> fs = rng.chance(0.3)
                ? std::nullopt
                : std::optional<u64>(rng.below(flat));
            t.invUpdate(nmLoc, fs);
            invRef[nmLoc] = fs;
            break;
          }
          case 2: {
            u64 fs = rng.below(flat);
            ASSERT_EQ(t.lookup(fs), expectedLoc(fs));
            break;
          }
          default: {
            u64 nmLoc = rng.below(cache + nmFlat);
            ASSERT_EQ(t.invLookup(nmLoc), expectedOccupant(nmLoc));
            break;
          }
        }
    }
    // Every entry of both tables, touched or not, matches the model.
    for (u64 fs = 0; fs < flat; ++fs)
        ASSERT_EQ(t.lookup(fs), expectedLoc(fs)) << "flat sector " << fs;
    for (u64 nmLoc = 0; nmLoc < cache + nmFlat; ++nmLoc)
        ASSERT_EQ(t.invLookup(nmLoc), expectedOccupant(nmLoc))
            << "NM location " << nmLoc;
}

TEST(RemapTable, ScatteredUpdatesAtPaperScaleStayResidentSmall)
{
    // Hybrid2 at 1 GiB NM over 16 GiB FM has a 35 MB forward table,
    // and random page placement scatters a run's remaps across all of
    // it. Resident memory must follow the entries written, not their
    // spread: a flat lane would hold one page (4 KiB, or a 2 MiB huge
    // page) per update, 16-35 MB for these 4096.
    mem::MemSystemParams mp;
    mp.nmBytes = 1024 * MiB;
    mp.fmBytes = 16384 * MiB;
    Dcmc hybrid2(mp, Hybrid2Params{});
    const RemapTable &geo = hybrid2.remapTable();
    RemapTable t(geo.flatSectors(), geo.nmFlatSectors(), geo.cacheSectors(),
                 geo.fmSectors());
    ASSERT_GT(t.flatSectors() * sizeof(u32), 32 * MiB);
    Rng rng(2020);
    std::unordered_map<u64, Loc> written;
    u64 before = test::residentBytes();
    for (int i = 0; i < 4096; ++i) {
        u64 fs = rng.below(t.flatSectors());
        Loc loc{false, rng.below(t.fmSectors())};
        t.update(fs, loc);
        written[fs] = loc;
    }
    EXPECT_LT(test::residentGrowth(before), 8 * MiB);
    for (const auto &[fs, loc] : written)
        ASSERT_EQ(t.lookup(fs), loc) << fs;
}

TEST(RemapTable, RoundTripSwap)
{
    // Model a full swap: flat sector 0 (NM) <-> flat sector 100 (FM).
    auto t = makeTable();
    Loc nmHome = t.lookup(0);
    Loc fmHome = t.lookup(100);
    t.update(0, fmHome);
    t.update(100, nmHome);
    t.invUpdate(nmHome.idx, 100u);
    EXPECT_EQ(t.lookup(0), fmHome);
    EXPECT_EQ(t.lookup(100), nmHome);
    EXPECT_EQ(t.invLookup(nmHome.idx).value(), 100u);
}

} // namespace
} // namespace h2::core
