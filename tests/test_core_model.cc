/**
 * @file
 * Tests for the interval core model and the page-placement AddressMap.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/flat_baseline.h"
#include "common/units.h"
#include "sim/core_model.h"

namespace h2::sim {
namespace {

TEST(AddressMap, PagePlacementIsBijective)
{
    AddressMap map(16 * MiB, 4 * MiB, 7);
    std::set<u64> pages;
    for (Addr v = 0; v < 4 * MiB; v += AddressMap::pageBytes)
        pages.insert(map.toPhysical(v) / AddressMap::pageBytes);
    EXPECT_EQ(pages.size(), 4 * MiB / AddressMap::pageBytes);
}

TEST(AddressMap, OffsetPreservedWithinPage)
{
    AddressMap map(16 * MiB, 4 * MiB, 7);
    Addr p0 = map.toPhysical(0);
    Addr p1 = map.toPhysical(123);
    EXPECT_EQ(p1 - p0, 123u);
}

TEST(AddressMap, SpreadsProportionally)
{
    // With flat = 16 MiB and a permutation over all pages, about 1/4 of
    // a 4 MiB footprint lands in the first quarter of the flat space.
    AddressMap map(16 * MiB, 4 * MiB, 11);
    u64 inFirstQuarter = 0;
    u64 pages = 4 * MiB / AddressMap::pageBytes;
    for (u64 v = 0; v < pages; ++v)
        inFirstQuarter +=
            map.toPhysical(v * AddressMap::pageBytes) < 4 * MiB;
    EXPECT_NEAR(double(inFirstQuarter) / pages, 0.25, 0.06);
}

TEST(AddressMap, TranslatesPhysicalPageZero)
{
    // The page lane stores ~ppage so that 0 means "not yet
    // translated"; the page placed at physical page 0 must still
    // memoize and keep the permutation's result.
    const u64 pages = 64;
    const u64 seed = 5;
    RandomPermutation perm(pages, seed);
    u64 vpage = 0;
    while (perm.map(vpage) != 0)
        ++vpage;
    AddressMap map(pages * AddressMap::pageBytes,
                   pages * AddressMap::pageBytes, seed);
    Addr v = vpage * AddressMap::pageBytes + 40;
    EXPECT_EQ(map.toPhysical(v), 40u);
    EXPECT_EQ(map.toPhysical(v), 40u);
    for (u64 p = 0; p < pages; ++p)
        EXPECT_EQ(map.toPhysical(p * AddressMap::pageBytes),
                  perm.map(p) * AddressMap::pageBytes);
}

TEST(AddressMapDeath, FootprintTooLarge)
{
    EXPECT_DEATH(AddressMap(4 * MiB, 8 * MiB, 1), "page faults");
}

TEST(AddressMapDeath, OutOfFootprint)
{
    AddressMap map(16 * MiB, 4 * MiB, 7);
    EXPECT_DEATH(map.toPhysical(4 * MiB), "footprint");
}

// ---------------------------------------------------------------------

/** A scripted trace source. */
class ScriptedTrace : public workloads::TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<workloads::TraceRecord> recs)
        : records(std::move(recs))
    {
    }

    workloads::TraceRecord
    next() override
    {
        auto r = records[pos % records.size()];
        ++pos;
        return r;
    }

  private:
    std::vector<workloads::TraceRecord> records;
    u64 pos = 0;
};

class CoreModelTest : public ::testing::Test
{
  protected:
    CoreModelTest()
        : hier(tinyHier()), memParams(makeMem()), memory(memParams),
          map(memParams.fmBytes, 1 * MiB, 3)
    {
    }

    static cache::HierarchyParams
    tinyHier()
    {
        cache::HierarchyParams p;
        p.numCores = 1;
        p.l1 = {"L1", 1 * KiB, 2, 64};
        p.l2 = {"L2", 4 * KiB, 4, 64};
        p.llc = {"LLC", 16 * KiB, 4, 64};
        return p;
    }

    static mem::MemSystemParams
    makeMem()
    {
        mem::MemSystemParams p;
        p.fmBytes = 64 * MiB;
        return p;
    }

    cache::CacheHierarchy hier;
    mem::MemSystemParams memParams;
    baselines::FlatBaseline memory;
    AddressMap map;
    CoreParams cp;
};

TEST_F(CoreModelTest, InstructionAccounting)
{
    ScriptedTrace trace({{9, 0, AccessType::Read}});
    CoreModel core(0, cp, trace, hier, memory, map, 0, 100);
    while (!core.done())
        core.step();
    core.drain();
    EXPECT_GE(core.instructions(), 100u);
    EXPECT_EQ(core.memAccesses(), 10u); // 100 instr / (9+1) per access
}

TEST_F(CoreModelTest, GapAdvancesClockAtIssueWidth)
{
    // 400 gap instructions at width 4 = 100 cycles minimum.
    ScriptedTrace trace({{400, 0, AccessType::Read}});
    CoreModel core(0, cp, trace, hier, memory, map, 0, 401);
    core.step();
    core.drain();
    EXPECT_GE(core.now(), 100u * cp.periodPs);
}

TEST_F(CoreModelTest, LlcMissesReachMemory)
{
    ScriptedTrace trace({{0, 0, AccessType::Read},
                         {0, 64 * KiB, AccessType::Read},
                         {0, 128 * KiB, AccessType::Read}});
    CoreModel core(0, cp, trace, hier, memory, map, 0, 3);
    while (!core.done())
        core.step();
    core.drain();
    EXPECT_EQ(core.llcMisses(), 3u);
    EXPECT_EQ(memory.requests(), 3u);
}

TEST_F(CoreModelTest, SerialMissesStallWithMlpOne)
{
    // With maxOutstanding=1, consecutive misses serialize; with 8 they
    // overlap. Same trace, same memory: MLP-1 must take longer.
    std::vector<workloads::TraceRecord> recs;
    for (int i = 0; i < 64; ++i)
        recs.push_back({0, Addr(i) * 4096, AccessType::Read});

    auto runWith = [&](u32 mlp) {
        cache::CacheHierarchy h(tinyHier());
        baselines::FlatBaseline m(makeMem());
        ScriptedTrace t(recs);
        CoreParams p;
        p.maxOutstanding = mlp;
        CoreModel core(0, p, t, h, m, map, 0, 64);
        while (!core.done())
            core.step();
        core.drain();
        return core.now();
    };
    EXPECT_GT(runWith(1), runWith(8));
}

TEST_F(CoreModelTest, WritesDoNotStall)
{
    // Write misses are fire-and-forget; read misses block at drain.
    std::vector<workloads::TraceRecord> writes, reads;
    for (int i = 0; i < 32; ++i) {
        writes.push_back({0, Addr(i) * 4096, AccessType::Write});
        reads.push_back({0, Addr(i) * 4096, AccessType::Read});
    }
    auto runType = [&](const std::vector<workloads::TraceRecord> &recs) {
        cache::CacheHierarchy h(tinyHier());
        baselines::FlatBaseline m(makeMem());
        ScriptedTrace t(recs);
        CoreParams p;
        p.maxOutstanding = 1;
        CoreModel core(0, p, t, h, m, map, 0, 32);
        while (!core.done())
            core.step();
        core.drain();
        return core.now();
    };
    EXPECT_LT(runType(writes), runType(reads));
}

TEST_F(CoreModelTest, DrainWaitsForOutstanding)
{
    ScriptedTrace trace({{0, 0, AccessType::Read}});
    CoreModel core(0, cp, trace, hier, memory, map, 0, 1);
    core.step();
    Tick beforeDrain = core.now();
    core.drain();
    EXPECT_GE(core.now(), beforeDrain);
}

TEST_F(CoreModelTest, CacheHitsStayLocal)
{
    ScriptedTrace trace({{0, 0, AccessType::Read}});
    CoreModel core(0, cp, trace, hier, memory, map, 0, 10);
    while (!core.done())
        core.step();
    core.drain();
    EXPECT_EQ(core.llcMisses(), 1u); // 9 L1 hits after the first miss
    EXPECT_EQ(memory.requests(), 1u);
}

} // namespace
} // namespace h2::sim
