/**
 * @file
 * Tests for the three-level SRAM hierarchy, including op-by-op
 * equality with the probe + setDirty / insert cascade it replaced.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_hierarchy.h"
#include "common/rng.h"
#include "common/units.h"
#include "ref_cache.h"

namespace h2::cache {
namespace {

HierarchyParams
tinyHierarchy(u32 cores = 2)
{
    HierarchyParams p;
    p.numCores = cores;
    p.l1 = {"L1", 1 * KiB, 2, 64};
    p.l2 = {"L2", 4 * KiB, 4, 64};
    p.llc = {"LLC", 16 * KiB, 4, 64};
    return p;
}

TEST(Hierarchy, ColdMissHitsMemory)
{
    CacheHierarchy h(tinyHierarchy());
    auto r = h.access(0, 0x1000, AccessType::Read);
    EXPECT_TRUE(r.llcMiss);
    EXPECT_EQ(r.hitLevel, 0u);
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x1000, AccessType::Read);
    auto r = h.access(0, 0x1000, AccessType::Read);
    EXPECT_FALSE(r.llcMiss);
    EXPECT_EQ(r.hitLevel, 1u);
    EXPECT_EQ(r.latencyCycles, h.params().l1LatencyCycles);
}

TEST(Hierarchy, SubLineAccessSameLine)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x1000, AccessType::Read);
    auto r = h.access(0, 0x1030, AccessType::Read);
    EXPECT_EQ(r.hitLevel, 1u);
}

TEST(Hierarchy, PerCoreL1Isolation)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x1000, AccessType::Read);
    // Core 1 misses its private L1/L2 but the line is NOT in the LLC
    // yet (it sits in core 0's L1), so this is another memory miss.
    auto r = h.access(1, 0x1000, AccessType::Read);
    EXPECT_TRUE(r.llcMiss);
}

TEST(Hierarchy, EvictionCascadesToL2)
{
    auto p = tinyHierarchy();
    CacheHierarchy h(p);
    // L1: 1 KiB, 2-way, 64 B lines -> 8 sets. Fill 3 lines of set 0.
    u64 setStride = 8 * 64;
    h.access(0, 0 * setStride, AccessType::Read);
    h.access(0, 1 * setStride, AccessType::Read);
    h.access(0, 2 * setStride, AccessType::Read); // evicts line 0 to L2
    auto r = h.access(0, 0, AccessType::Read);
    EXPECT_EQ(r.hitLevel, 2u); // found in L2
}

TEST(Hierarchy, DirtyDataReachesMemoryEventually)
{
    auto p = tinyHierarchy(1);
    CacheHierarchy h(p);
    // Write a line, then stream enough distinct lines to push it out of
    // L1, L2 and the LLC; a writeback must surface exactly once.
    h.access(0, 0, AccessType::Write);
    u64 wbCount = 0;
    for (u64 i = 1; i < 2048; ++i) {
        auto r = h.access(0, i * 64, AccessType::Read);
        if (r.writeback && *r.writeback == 0)
            ++wbCount;
    }
    EXPECT_EQ(wbCount, 1u);
}

TEST(Hierarchy, LlcHolds)
{
    CacheHierarchy h(tinyHierarchy());
    u64 setStride = 8 * 64;
    // Push a line down to the LLC via L1+L2 eviction pressure.
    for (u64 i = 0; i < 16; ++i)
        h.access(0, i * setStride, AccessType::Read);
    // At least one early line must now be LLC-resident.
    u32 resident = h.llcResidentLinesInRange(0, 16 * setStride);
    EXPECT_GT(resident, 0u);
}

TEST(Hierarchy, LatenciesFollowLevels)
{
    auto p = tinyHierarchy();
    CacheHierarchy h(p);
    auto miss = h.access(0, 0x2000, AccessType::Read);
    EXPECT_EQ(miss.latencyCycles, p.llcLatencyCycles);
    auto l1 = h.access(0, 0x2000, AccessType::Read);
    EXPECT_EQ(l1.latencyCycles, p.l1LatencyCycles);
}

TEST(Hierarchy, AccessCounting)
{
    CacheHierarchy h(tinyHierarchy());
    for (int i = 0; i < 10; ++i)
        h.access(0, 0x3000, AccessType::Read);
    EXPECT_EQ(h.accesses(), 10u);
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, CollectStats)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0, AccessType::Read);
    StatSet out;
    h.collectStats(out);
    EXPECT_DOUBLE_EQ(out.get("hier.llc.hits"), 0.0);
    EXPECT_DOUBLE_EQ(out.get("hier.llc.misses"), 1.0);
}

TEST(Hierarchy, WriteMissInstallsDirtyLine)
{
    CacheHierarchy h(tinyHierarchy(1));
    h.access(0, 0x40, AccessType::Write);
    // Stream over the same set until the dirty line surfaces; dirty
    // data must not be lost (exactly one writeback of 0x40).
    u64 setStride = 8 * 64;
    u64 wb = 0;
    for (u64 i = 1; i < 1024; ++i) {
        auto r = h.access(0, 0x40 + i * setStride, AccessType::Read);
        if (r.writeback && *r.writeback == 0x40)
            ++wb;
    }
    EXPECT_EQ(wb, 1u);
}

TEST(Hierarchy, Table1Geometry)
{
    HierarchyParams p; // defaults are the paper's Table 1
    EXPECT_EQ(p.l1.sizeBytes, 64 * KiB);
    EXPECT_EQ(p.l1.ways, 4u);
    EXPECT_EQ(p.l2.sizeBytes, 256 * KiB);
    EXPECT_EQ(p.l2.ways, 8u);
    EXPECT_EQ(p.llc.sizeBytes, 8 * MiB);
    EXPECT_EQ(p.llc.ways, 16u);
    EXPECT_EQ(p.l1LatencyCycles, 1u);
    EXPECT_EQ(p.l2LatencyCycles, 9u);
    EXPECT_EQ(p.llcLatencyCycles, 14u);
}

TEST(Hierarchy, AddrLimitIsTheNarrowestLevels)
{
    // Table 1's L1 has the smallest set span (256 sets * 64 B = 16 KiB),
    // so its 32-bit tags bound the hierarchy just below 64 TiB.
    CacheHierarchy h(HierarchyParams{});
    EXPECT_EQ(h.addrLimit(), (u64(1) << 32) * 16 * KiB - 16 * KiB);
}

// ---------------------------------------------------------------------
// reference model: the hierarchy's fill cascade as first written
// ---------------------------------------------------------------------

/** CacheHierarchy as first written, over reference tag stores: every
 *  fill into L2 or the LLC is a probe, then setDirty on a present line
 *  or insert of an absent one. */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const HierarchyParams &params)
        : llc(params.llc), cfg(params)
    {
        for (u32 c = 0; c < cfg.numCores; ++c) {
            l1s.push_back(std::make_unique<ref::RefCache>(cfg.l1));
            l2s.push_back(std::make_unique<ref::RefCache>(cfg.l2));
        }
    }

    HierarchyResult
    access(CoreId core, Addr addr, AccessType type)
    {
        Addr line = addr & ~Addr(cfg.l1.lineBytes - 1);
        HierarchyResult result;
        if (l1s[core]->access(line, type)) {
            result.latencyCycles = cfg.l1LatencyCycles;
            result.hitLevel = 1;
            return result;
        }
        if (l2s[core]->access(line, type)) {
            result.latencyCycles = cfg.l2LatencyCycles;
            result.hitLevel = 2;
            fillL1(core, line, false, result);
            return result;
        }
        if (llc.access(line, type)) {
            result.latencyCycles = cfg.llcLatencyCycles;
            result.hitLevel = 3;
            fillL1(core, line, false, result);
            return result;
        }
        result.latencyCycles = cfg.llcLatencyCycles;
        result.llcMiss = true;
        ++llcMisses;
        fillL1(core, line, type == AccessType::Write, result);
        return result;
    }

    u32
    llcResidentLinesInRange(Addr base, u64 bytes) const
    {
        u32 n = 0;
        for (Addr a = base; a < base + bytes; a += cfg.llc.lineBytes)
            n += llc.probe(a);
        return n;
    }

    u64 llcMisses = 0;
    ref::RefCache llc;

  private:
    void
    insertLlc(Addr addr, bool dirty, HierarchyResult &result)
    {
        if (llc.probe(addr)) {
            if (dirty)
                llc.setDirty(addr);
            return;
        }
        auto victim = llc.insert(addr, dirty);
        if (victim && victim->dirty)
            result.writeback = victim->addr;
    }

    void
    fillL1(CoreId core, Addr addr, bool dirty, HierarchyResult &result)
    {
        auto v1 = l1s[core]->insert(addr, dirty);
        if (!v1)
            return;
        if (l2s[core]->probe(v1->addr)) {
            if (v1->dirty)
                l2s[core]->setDirty(v1->addr);
            return;
        }
        auto v2 = l2s[core]->insert(v1->addr, v1->dirty);
        if (v2)
            insertLlc(v2->addr, v2->dirty, result);
    }

    HierarchyParams cfg;
    std::vector<std::unique_ptr<ref::RefCache>> l1s;
    std::vector<std::unique_ptr<ref::RefCache>> l2s;
};

/** Drive CacheHierarchy and RefHierarchy with one seeded multi-core
 *  read/write stream, asserting equal results and LLC state after
 *  every access. */
void
runHierarchyAgainstReference(const HierarchyParams &p, u64 seed)
{
    CacheHierarchy h(p);
    RefHierarchy ref(p);
    // Half the accesses go to a region every core shares (so L2
    // victims often find their line already in the LLC), half to the
    // core's own region; together ~3x the LLC keeps every level under
    // replacement pressure.
    const u64 lines = 3 * p.llc.sizeBytes / 64;
    Rng rng(seed);
    u64 writebacks = 0;
    for (int op = 0; op < 20000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        CoreId core = static_cast<CoreId>(rng.below(p.numCores));
        u64 region = rng.chance(0.5) ? 0 : core + 1;
        Addr a = (region * lines + rng.below(lines)) * 64 + rng.below(64);
        AccessType t = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        HierarchyResult got = h.access(core, a, t);
        HierarchyResult want = ref.access(core, a, t);
        ASSERT_EQ(got.latencyCycles, want.latencyCycles);
        ASSERT_EQ(got.hitLevel, want.hitLevel);
        ASSERT_EQ(got.llcMiss, want.llcMiss);
        ASSERT_EQ(got.writeback, want.writeback);
        writebacks += want.writeback.has_value();
        ASSERT_EQ(h.llcMisses(), ref.llcMisses);
        const SetAssocCache &llc = h.llcCache();
        ASSERT_EQ(llc.hits(), ref.llc.hits);
        ASSERT_EQ(llc.misses(), ref.llc.misses);
        ASSERT_EQ(llc.evictions(), ref.llc.evictions);
        Addr page = a & ~Addr(4 * KiB - 1);
        ASSERT_EQ(h.llcResidentLinesInRange(page, 4 * KiB),
                  ref.llcResidentLinesInRange(page, 4 * KiB));
    }
    EXPECT_GT(writebacks, 0u);
    EXPECT_GT(h.llcCache().hits(), 0u);
}

TEST(Hierarchy, MatchesReferenceModel)
{
    HierarchyParams pow2 = tinyHierarchy(4);
    HierarchyParams odd = tinyHierarchy(3);
    odd.l2 = {"L2", 3 * KiB, 4, 64}; // 12 sets
    odd.llc = {"LLC", 24 * KiB, 8, 64};
    u64 seed = 0;
    for (const HierarchyParams &p : {pow2, odd}) {
        SCOPED_TRACE("params " + std::to_string(seed));
        runHierarchyAgainstReference(p, ++seed);
        if (HasFatalFailure())
            return;
    }
}

TEST(HierarchyDeath, BadCoreId)
{
    CacheHierarchy h(tinyHierarchy(2));
    EXPECT_DEATH(h.access(2, 0, AccessType::Read), "core id");
}

} // namespace
} // namespace h2::cache
