/**
 * @file
 * Tests for the synthetic workload suite (paper Table 2).
 */

#include <gtest/gtest.h>

#include <set>

#include "common/units.h"
#include "workloads/workload_registry.h"

namespace h2::workloads {
namespace {

TEST(Registry, ThirtyWorkloadsInThreeClasses)
{
    EXPECT_EQ(allWorkloads().size(), 30u);
    EXPECT_EQ(workloadsByClass(MpkiClass::High).size(), 10u);
    EXPECT_EQ(workloadsByClass(MpkiClass::Medium).size(), 10u);
    EXPECT_EQ(workloadsByClass(MpkiClass::Low).size(), 10u);
}

TEST(Registry, NamesMatchTable2)
{
    for (const char *name :
         {"cg.D", "sp.D", "bt.D", "fotonik3d", "lbm", "bwaves", "lu.D",
          "mcf", "gcc", "roms", "mg.C", "omnetpp", "is.C", "dc.B", "ua.D",
          "xz", "parest", "cactus", "ft.C", "cam4", "wrf", "xalanc",
          "imagick", "x264", "perlbench", "blender", "deepsjeng", "nab",
          "leela", "namd"})
        EXPECT_NO_FATAL_FAILURE(findWorkload(name)) << name;
}

TEST(Registry, UniqueNames)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads())
        names.insert(w.name);
    EXPECT_EQ(names.size(), 30u);
}

TEST(Registry, NasWorkloadsAreMultithreaded)
{
    for (const char *name :
         {"cg.D", "sp.D", "bt.D", "lu.D", "mg.C", "is.C", "dc.B", "ua.D",
          "ft.C"})
        EXPECT_TRUE(findWorkload(name).multithreaded) << name;
    for (const char *name : {"lbm", "mcf", "gcc", "omnetpp", "deepsjeng"})
        EXPECT_FALSE(findWorkload(name).multithreaded) << name;
}

TEST(Registry, FootprintsMatchPaperScale)
{
    EXPECT_NEAR(double(findWorkload("cg.D").footprintBytes) / GiB, 7.8,
                0.1);
    EXPECT_NEAR(double(findWorkload("mcf").footprintBytes) / GiB, 0.1,
                0.01);
    EXPECT_NEAR(double(findWorkload("deepsjeng").footprintBytes) / GiB,
                3.4, 0.1);
}

TEST(Registry, PaperMpkiOrderingWithinTable)
{
    // The registry is in Table 2 order: MPKI (almost) never increases.
    // The paper itself lists namd (0.13) after leela (0.1), so allow
    // that much slack.
    const auto &all = allWorkloads();
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i - 1].paperMpki + 0.05, all[i].paperMpki)
            << all[i].name;
}

TEST(Registry, QuickSuiteCoversAllClasses)
{
    auto quick = quickSuite();
    ASSERT_GE(quick.size(), 3u);
    std::set<MpkiClass> classes;
    for (const auto &w : quick)
        classes.insert(w.cls);
    EXPECT_EQ(classes.size(), 3u);
}

TEST(Registry, PerCoreFootprintSplitsMp)
{
    const auto &mp = findWorkload("lbm");
    EXPECT_EQ(mp.perCoreFootprint(8), (mp.footprintBytes / 8) & ~4095ull);
    const auto &mt = findWorkload("cg.D");
    EXPECT_EQ(mt.perCoreFootprint(8), mt.footprintBytes);
}

TEST(Sources, Deterministic)
{
    const auto &w = findWorkload("gcc");
    auto a = w.makeSource(0, 8, 42);
    auto b = w.makeSource(0, 8, 42);
    for (int i = 0; i < 1000; ++i) {
        auto ra = a->next();
        auto rb = b->next();
        EXPECT_EQ(ra.vaddr, rb.vaddr);
        EXPECT_EQ(ra.instGap, rb.instGap);
        EXPECT_EQ(ra.type, rb.type);
    }
}

TEST(Sources, CoresDiffer)
{
    const auto &w = findWorkload("gcc");
    auto a = w.makeSource(0, 8, 42);
    auto b = w.makeSource(1, 8, 42);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a->next().vaddr == b->next().vaddr;
    EXPECT_LT(same, 10);
}

class AllWorkloads : public ::testing::TestWithParam<int>
{
  protected:
    const Workload &wl() const { return allWorkloads()[GetParam()]; }
};

TEST_P(AllWorkloads, AddressesWithinFootprint)
{
    const auto &w = wl();
    auto src = w.makeSource(0, 8, 1);
    u64 limit = w.perCoreFootprint(8);
    for (int i = 0; i < 2000; ++i)
        ASSERT_LT(src->next().vaddr, limit) << w.name;
}

TEST_P(AllWorkloads, MemRatioHonored)
{
    const auto &w = wl();
    auto src = w.makeSource(0, 8, 1);
    u64 instr = 0;
    const int accesses = 5000;
    for (int i = 0; i < accesses; ++i)
        instr += src->next().instGap + 1;
    double ratio = double(accesses) / double(instr);
    EXPECT_NEAR(ratio, w.memRatio, w.memRatio * 0.05) << w.name;
}

TEST_P(AllWorkloads, WriteFractionHonored)
{
    const auto &w = wl();
    auto src = w.makeSource(0, 8, 1);
    int writes = 0;
    const int accesses = 20000;
    for (int i = 0; i < accesses; ++i)
        writes += src->next().type == AccessType::Write;
    EXPECT_NEAR(double(writes) / accesses, w.writeFrac, 0.02) << w.name;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloads, ::testing::Range(0, 30));

TEST(Patterns, StreamIsSequentialWithinPartition)
{
    GenParams p;
    p.footprintBytes = 1 * MiB;
    p.streams = 1;
    p.accessStride = 8;
    p.memRatio = 0.5;
    StreamGen g(p);
    Addr prev = g.next().vaddr;
    for (int i = 0; i < 100; ++i) {
        Addr cur = g.next().vaddr;
        EXPECT_EQ(cur, (prev + 8) % p.footprintBytes);
        prev = cur;
    }
}

TEST(Patterns, PointerChaseVisitsManyDistinctLines)
{
    GenParams p;
    p.footprintBytes = 1 * MiB;
    p.memRatio = 0.5;
    PointerChaseGen g(p);
    std::set<Addr> lines;
    for (int i = 0; i < 4096; ++i)
        lines.insert(g.next().vaddr / 64);
    // A full-period LCG must not revisit within footprint/64 steps.
    EXPECT_EQ(lines.size(), 4096u);
}

TEST(Patterns, ZipfConcentratesOnHotRegion)
{
    GenParams p;
    p.footprintBytes = 16 * MiB;
    p.hotBytes = p.footprintBytes / 10;
    p.hotProbability = 0.9;
    p.memRatio = 0.5;
    ZipfGen g(p);
    int hot = 0;
    for (int i = 0; i < 10000; ++i)
        hot += g.next().vaddr < p.hotBytes;
    EXPECT_NEAR(hot / 10000.0, 0.9, 0.02);
}

TEST(Patterns, RandomBurstsAreSequential)
{
    GenParams p;
    p.footprintBytes = 16 * MiB;
    p.memRatio = 0.5;
    p.burstLines = 8;
    RandomGen g(p);
    // Within a burst, consecutive addresses advance by one 64 B line.
    Addr prev = g.next().vaddr;
    int sequentialSteps = 0;
    for (int i = 0; i < 800; ++i) {
        Addr cur = g.next().vaddr;
        if (cur == prev + 64)
            ++sequentialSteps;
        prev = cur;
    }
    // 7 of every 8 steps continue the current burst.
    EXPECT_NEAR(sequentialSteps / 800.0, 7.0 / 8.0, 0.05);
}

TEST(Patterns, SingleLineBurstsNeverSequential)
{
    GenParams p;
    p.footprintBytes = 64 * MiB;
    p.memRatio = 0.5;
    p.burstLines = 1;
    RandomGen g(p);
    Addr prev = g.next().vaddr;
    int sequentialSteps = 0;
    for (int i = 0; i < 1000; ++i) {
        Addr cur = g.next().vaddr;
        if (cur == prev + 64)
            ++sequentialSteps;
        prev = cur;
    }
    EXPECT_LT(sequentialSteps, 5);
}

TEST(Patterns, GatherMixesRegionAndStreams)
{
    GenParams p;
    p.footprintBytes = 64 * MiB;
    p.memRatio = 0.5;
    p.hotBytes = 4 * MiB;
    p.hotProbability = 0.3;
    GatherGen g(p);
    int inRegion = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        inRegion += g.next().vaddr < 4 * MiB;
    EXPECT_NEAR(inRegion / double(n), 0.3, 0.02);
}

TEST(Patterns, GatherStreamsAreSequentialOutsideRegion)
{
    GenParams p;
    p.footprintBytes = 64 * MiB;
    p.memRatio = 0.5;
    p.hotBytes = 4 * MiB;
    p.hotProbability = 0.0; // pure stream side
    p.streams = 1;
    p.accessStride = 8;
    GatherGen g(p);
    Addr prev = g.next().vaddr;
    EXPECT_GE(prev, 4 * MiB);
    for (int i = 0; i < 100; ++i) {
        Addr cur = g.next().vaddr;
        EXPECT_EQ(cur, 4 * MiB + (prev - 4 * MiB + 8) % (60 * MiB));
        prev = cur;
    }
}

TEST(Patterns, ZipfHotSideIsResidentLoop)
{
    GenParams p;
    p.footprintBytes = 16 * MiB;
    p.hotBytes = 64 * KiB;
    p.hotProbability = 1.0;
    p.memRatio = 0.5;
    ZipfGen g(p);
    // One full sweep covers every hot line exactly once.
    std::set<Addr> lines;
    for (u64 i = 0; i < 64 * KiB / 64; ++i)
        lines.insert(g.next().vaddr / 64);
    EXPECT_EQ(lines.size(), 64 * KiB / 64);
}

TEST(Registry, GatherAndBurstWorkloadsConfigured)
{
    EXPECT_EQ(findWorkload("cg.D").pattern, Pattern::Gather);
    EXPECT_GT(findWorkload("cg.D").hotBytes, 0u);
    EXPECT_GT(findWorkload("xz").burstLines, 1u);
    EXPECT_EQ(findWorkload("deepsjeng").burstLines, 1u);
}

TEST(Patterns, StrideSweeps)
{
    GenParams p;
    p.footprintBytes = 1 * MiB;
    p.memRatio = 0.5;
    StrideGen g(p, 1024);
    Addr first = g.next().vaddr;
    Addr second = g.next().vaddr;
    EXPECT_EQ(second - first, 1024u);
}

TEST(PatternsDeath, BadMemRatio)
{
    GenParams p;
    p.memRatio = 0.0;
    EXPECT_DEATH(RandomGen{p}, "memRatio");
}

} // namespace
} // namespace h2::workloads
