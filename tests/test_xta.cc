/**
 * @file
 * Tests for the eXtended Tag Array (paper section 3.2).
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/xta.h"

namespace h2::core {
namespace {

TEST(Xta, Geometry)
{
    Xta x(1024, 16, 8);
    EXPECT_EQ(x.numSets(), 64u);
    EXPECT_EQ(x.numWays(), 16u);
    EXPECT_EQ(x.capacitySectors(), 1024u);
    EXPECT_EQ(x.linesPerSector(), 8u);
}

TEST(Xta, MissThenHit)
{
    Xta x(64, 4, 8);
    EXPECT_EQ(x.find(5), nullptr);
    EXPECT_EQ(x.misses(), 1u);
    XtaEntry *way = x.victimWay(5);
    x.fill(5, *way);
    XtaEntry *found = x.find(5);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, way);
    EXPECT_EQ(x.hits(), 1u);
}

TEST(Xta, FreshArrayHasNoValidWayAndFillsWayZeroFirst)
{
    Xta x(64, 4, 8);
    for (u64 set = 0; set < x.numSets(); ++set)
        for (u32 w = 0; w < x.numWays(); ++w) {
            const XtaEntry &e = x.entryAt(set, w);
            EXPECT_FALSE(x.entryValid(e));
            EXPECT_EQ(e.validMask, 0u);
            EXPECT_EQ(e.lruStamp, 0u);
        }
    const u64 sector = 13;
    XtaEntry *way = x.victimWay(sector);
    EXPECT_EQ(way, &x.entryAt(x.setOf(sector), 0));
    x.fill(sector, *way);
    EXPECT_TRUE(x.entryValid(*way));
    EXPECT_EQ(x.entryTag(*way), x.tagOf(sector));
    EXPECT_EQ(x.flatSectorOf(x.setOf(sector), *way), sector);
    EXPECT_EQ(x.victimWay(sector), &x.entryAt(x.setOf(sector), 1));
}

TEST(Xta, FillInitializesEntry)
{
    Xta x(64, 4, 8);
    XtaEntry *way = x.victimWay(7);
    way->validMask = 0xFF;
    way->accessCounter = 99;
    x.fill(7, *way);
    EXPECT_TRUE(x.entryValid(*way));
    EXPECT_EQ(way->validMask, 0u);
    EXPECT_EQ(way->dirtyMask, 0u);
    EXPECT_EQ(way->accessCounter, 0u);
    EXPECT_EQ(x.entryTag(*way), x.tagOf(7));
}

TEST(Xta, SetMapping)
{
    Xta x(64, 4, 8); // 16 sets
    EXPECT_EQ(x.setOf(5), 5u);
    EXPECT_EQ(x.setOf(21), 5u);
    EXPECT_NE(x.tagOf(5), x.tagOf(21));
    XtaEntry *e = x.victimWay(21);
    x.fill(21, *e);
    EXPECT_EQ(x.flatSectorOf(5, *e), 21u);
}

TEST(Xta, LruVictimSelection)
{
    Xta x(16, 4, 8); // 4 sets, 4 ways
    // Fill all four ways of set 0 with sectors 0, 4, 8, 12.
    for (u64 s : {0, 4, 8, 12})
        x.fill(s, *x.victimWay(s));
    x.find(0); // refresh sector 0
    XtaEntry *victim = x.victimWay(16); // set 0 again
    EXPECT_EQ(x.flatSectorOf(0, *victim), 4u); // LRU is sector 4
}

TEST(Xta, InvalidWayPreferredOverLru)
{
    Xta x(16, 4, 8);
    x.fill(0, *x.victimWay(0));
    XtaEntry *victim = x.victimWay(4);
    EXPECT_FALSE(x.entryValid(*victim));
}

TEST(Xta, PeekDoesNotDisturbLruOrStats)
{
    Xta x(16, 4, 8);
    for (u64 s : {0, 4, 8, 12})
        x.fill(s, *x.victimWay(s));
    u64 missesBefore = x.misses();
    EXPECT_NE(x.peek(0), nullptr);
    EXPECT_EQ(x.peek(16), nullptr);
    EXPECT_EQ(x.misses(), missesBefore);
    // Sector 0 was peeked, not accessed: it is still the LRU victim.
    XtaEntry *victim = x.victimWay(16);
    EXPECT_EQ(x.flatSectorOf(0, *victim), 0u);
}

TEST(Xta, ForOthersInSet)
{
    Xta x(16, 4, 8);
    for (u64 s : {0, 4, 8})
        x.fill(s, *x.victimWay(s));
    const XtaEntry *self = x.peek(0);
    u32 seen = 0;
    x.forOthersInSet(0, *self, [&](const XtaEntry &e) {
        ++seen;
        EXPECT_NE(&e, self);
    });
    EXPECT_EQ(seen, 2u);
}

TEST(Xta, PaperConfigFitsOnChip)
{
    // 64 MB cache / 2 KB sectors = 32768 entries, 16-way, 8 lines of
    // 256 B per sector: the paper requires the XTA to stay ~512 KB.
    Xta x(32768, 16, 8);
    EXPECT_LE(x.storageBytes(), 600 * KiB);
    EXPECT_GE(x.storageBytes(), 300 * KiB);
}

TEST(Xta, PopcountHelpers)
{
    XtaEntry e;
    e.validMask = 0xF0;
    e.dirtyMask = 0x30;
    EXPECT_EQ(e.popcountValid(), 4u);
    EXPECT_EQ(e.popcountDirty(), 2u);
}

TEST(Xta, SixtyFourLinesPerSector)
{
    // 4 KB sectors with 64 B lines stress the full vector width.
    Xta x(64, 4, 64);
    XtaEntry *way = x.victimWay(1);
    x.fill(1, *way);
    way->validMask = ~u64(0);
    EXPECT_EQ(way->popcountValid(), 64u);
}

TEST(XtaDeath, TooManyLines)
{
    EXPECT_DEATH(Xta(64, 4, 65), "1..64 lines");
}

TEST(XtaDeath, IndivisibleWays)
{
    EXPECT_DEATH(Xta(65, 4, 8), "divisible");
}

TEST(Xta, CollectStats)
{
    Xta x(64, 4, 8);
    x.find(0);
    StatSet out;
    x.collectStats(out, "xta");
    EXPECT_DOUBLE_EQ(out.get("xta.misses"), 1.0);
    EXPECT_GT(out.get("xta.storageBytes"), 0.0);
}

} // namespace
} // namespace h2::core
