/**
 * @file
 * Tests for NM location bookkeeping and the FIFO victim scan
 * (paper section 3.5).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/nm_allocator.h"
#include "resident.h"

namespace h2::core {
namespace {

TEST(NmAllocator, BootCarveOut)
{
    NmAllocator a(100, 10);
    EXPECT_EQ(a.numLocs(), 100u);
    EXPECT_EQ(a.poolSize(), 10u);
    for (u64 i = 0; i < 10; ++i)
        EXPECT_EQ(a.owner(i), NmAllocator::Owner::CachePool);
    for (u64 i = 10; i < 100; ++i)
        EXPECT_EQ(a.owner(i), NmAllocator::Owner::Flat);
    EXPECT_EQ(a.flatCount(), 90u);
}

TEST(NmAllocator, PopPushPoolRoundTrip)
{
    NmAllocator a(100, 10);
    u64 loc = a.popPool();
    EXPECT_EQ(a.owner(loc), NmAllocator::Owner::CacheData);
    EXPECT_EQ(a.poolSize(), 9u);
    a.pushPool(loc);
    EXPECT_EQ(a.owner(loc), NmAllocator::Owner::CachePool);
    EXPECT_EQ(a.poolSize(), 10u);
}

TEST(NmAllocator, PopDrainsDistinctLocations)
{
    NmAllocator a(100, 10);
    std::set<u64> locs;
    while (!a.poolEmpty())
        locs.insert(a.popPool());
    EXPECT_EQ(locs.size(), 10u);
}

TEST(NmAllocator, VictimScanSkipsNonFlat)
{
    NmAllocator a(20, 5);
    u64 probes = 0;
    u64 victim = a.findVictim([](u64) { return false; },
                              [&](u64) { ++probes; });
    // The scan starts after the boot carve-out, so the first flat
    // location wins immediately.
    EXPECT_GE(victim, 5u);
    EXPECT_EQ(a.owner(victim), NmAllocator::Owner::Flat);
    EXPECT_EQ(probes, 1u);
}

TEST(NmAllocator, VictimScanSkipsPinned)
{
    NmAllocator a(20, 5);
    // Pin the first three flat locations (as if their sectors were in
    // the XTA).
    std::set<u64> pinned = {5, 6, 7};
    u64 victim = a.findVictim(
        [&](u64 loc) { return pinned.count(loc) != 0; },
        [](u64) {});
    EXPECT_EQ(victim, 8u);
    EXPECT_EQ(a.skips(), 3u);
}

TEST(NmAllocator, FifoAdvancesAcrossCalls)
{
    NmAllocator a(20, 5);
    u64 v1 = a.findVictim([](u64) { return false; }, [](u64) {});
    u64 v2 = a.findVictim([](u64) { return false; }, [](u64) {});
    EXPECT_NE(v1, v2);
    EXPECT_EQ(v2, v1 + 1);
}

TEST(NmAllocator, FifoWrapsAround)
{
    NmAllocator a(8, 2);
    std::set<u64> seen;
    for (int i = 0; i < 6; ++i)
        seen.insert(a.findVictim([](u64) { return false; }, [](u64) {}));
    EXPECT_EQ(seen.size(), 6u); // all flat locations visited once
    // The next victim wraps back to the first flat location.
    u64 again = a.findVictim([](u64) { return false; }, [](u64) {});
    EXPECT_TRUE(seen.count(again));
}

TEST(NmAllocator, OwnerTransitions)
{
    NmAllocator a(20, 5);
    u64 victim = a.findVictim([](u64) { return false; }, [](u64) {});
    a.setOwner(victim, NmAllocator::Owner::CacheData);
    EXPECT_EQ(a.owner(victim), NmAllocator::Owner::CacheData);
    a.pushPool(victim);
    EXPECT_EQ(a.owner(victim), NmAllocator::Owner::CachePool);
}

TEST(NmAllocator, PoolOrderMatchesAStackOverTheBootRange)
{
    // The pool behaves as one LIFO stack that starts as the boot range
    // 0, 1, ..., cacheSectors - 1 (last on top): a std::vector model
    // of it gives every pop.
    const u64 boot = 40;
    NmAllocator a(100, boot);
    std::vector<u64> model;
    for (u64 loc = 0; loc < boot; ++loc)
        model.push_back(loc);
    std::vector<u64> taken;
    Rng rng(3);
    for (int op = 0; op < 5000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        bool pop = !model.empty() && (taken.empty() || rng.chance(0.5));
        if (pop) {
            u64 loc = a.popPool();
            ASSERT_EQ(loc, model.back());
            model.pop_back();
            taken.push_back(loc);
            ASSERT_EQ(a.owner(loc), NmAllocator::Owner::CacheData);
        } else {
            u64 i = rng.below(taken.size());
            u64 loc = taken[i];
            taken[i] = taken.back();
            taken.pop_back();
            a.pushPool(loc);
            model.push_back(loc);
            ASSERT_EQ(a.owner(loc), NmAllocator::Owner::CachePool);
        }
        ASSERT_EQ(a.poolSize(), model.size());
        ASSERT_EQ(a.poolEmpty(), model.empty());
    }
    for (u64 loc : model)
        EXPECT_EQ(a.owner(loc), NmAllocator::Owner::CachePool);
    for (u64 loc : taken)
        EXPECT_EQ(a.owner(loc), NmAllocator::Owner::CacheData);
    EXPECT_EQ(a.flatCount(), 100 - boot);
}

TEST(NmAllocator, ConstructionAtPaperScaleStaysResidentSmall)
{
    // Hybrid2 at 1 GiB NM: 2 KiB locations, 64 MiB of them boot as the
    // DRAM cache's pool. Construction writes no owner and pushes no
    // pool entry, so it touches next to no memory (the bound leaves
    // room for the code pages the first calls fault in; eager tables
    // cost 0.75 MiB).
    const u64 locs = 1 * GiB / (2 * KiB);
    const u64 cacheSectors = 64 * MiB / (2 * KiB);
    u64 before = test::residentBytes();
    NmAllocator a(locs, cacheSectors);
    EXPECT_LT(test::residentGrowth(before), 256 * KiB);
    EXPECT_EQ(a.poolSize(), cacheSectors);
    EXPECT_EQ(a.owner(cacheSectors - 1), NmAllocator::Owner::CachePool);
    EXPECT_EQ(a.owner(cacheSectors), NmAllocator::Owner::Flat);
    EXPECT_EQ(a.popPool(), cacheSectors - 1);
}

TEST(NmAllocatorDeath, PopEmptyPool)
{
    NmAllocator a(20, 1);
    a.popPool();
    EXPECT_DEATH(a.popPool(), "empty");
}

TEST(NmAllocatorDeath, PushNonCacheLocation)
{
    NmAllocator a(20, 5);
    EXPECT_DEATH(a.pushPool(15), "non-cache");
}

TEST(NmAllocatorDeath, CacheConsumesWholeNm)
{
    EXPECT_DEATH(NmAllocator(10, 10), "whole NM");
}

TEST(NmAllocatorDeath, AllPinnedPanics)
{
    NmAllocator a(8, 2);
    EXPECT_DEATH(a.findVictim([](u64) { return true; }, [](u64) {}),
                 "no flat-resident");
}

} // namespace
} // namespace h2::core
