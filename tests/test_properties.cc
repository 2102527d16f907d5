/**
 * @file
 * Parameterized property tests across configurations and seeds:
 * invariants that must hold for any geometry the DSE explores.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "baselines/ideal_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "dram/dram_device.h"

namespace h2 {
namespace {

mem::MemSystemParams
smallSys()
{
    mem::MemSystemParams p;
    p.nmBytes = 8 * MiB;
    p.fmBytes = 32 * MiB;
    return p;
}

// ---------------------------------------------------------------------
// Hybrid2 geometry sweep: (cacheKiB, sectorBytes, lineBytes, seed)
// ---------------------------------------------------------------------

using DcmcPoint = std::tuple<u64, u32, u32, u64>;

class DcmcGeometry : public ::testing::TestWithParam<DcmcPoint>
{
};

TEST_P(DcmcGeometry, InvariantsHoldUnderRandomTraffic)
{
    auto [cacheKib, sector, line, seed] = GetParam();
    core::Hybrid2Params hp;
    hp.cacheBytes = cacheKib * KiB;
    hp.sectorBytes = sector;
    hp.lineBytes = line;
    core::Dcmc d(smallSys(), hp);

    Rng rng(seed);
    Tick t = 0;
    u64 flatBytes = d.flatCapacity();
    for (int i = 0; i < 8000; ++i) {
        Addr a = rng.below(flatBytes / 64) * 64;
        d.access(a, rng.chance(0.3) ? AccessType::Write : AccessType::Read,
                 t += 4000);
    }
    d.checkInvariants();
    // Conservation (paper 3.3): the Free-FM-Stack is bounded by the
    // DRAM-cache sector count.
    EXPECT_LE(d.freeFmStack().size(), hp.cacheBytes / sector);
    // Every request was either NM- or FM-served.
    EXPECT_EQ(d.requests(), 8000u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DcmcGeometry,
    ::testing::Combine(::testing::Values(256, 512),       // cache KiB
                       ::testing::Values(2048u, 4096u),   // sector
                       ::testing::Values(64u, 256u, 512u),// line
                       ::testing::Values(1u, 2u)));       // seed

// ---------------------------------------------------------------------
// Figure 1 property: wasted fetch fraction grows with line size.
// ---------------------------------------------------------------------

TEST(WasteMonotonicity, BiggerLinesWasteMore)
{
    auto sys = smallSys();
    std::vector<u32> lines = {64, 256, 1024, 4096};
    std::vector<double> waste;
    for (u32 line : lines) {
        baselines::IdealCache c(sys, line);
        Rng rng(5);
        Tick t = 0;
        for (int i = 0; i < 30000; ++i) {
            Addr a = rng.below(sys.fmBytes / 64) * 64;
            c.access(a, AccessType::Read, t += 3000);
        }
        waste.push_back(c.wastedFetchFraction());
    }
    for (size_t i = 1; i < waste.size(); ++i)
        EXPECT_GE(waste[i], waste[i - 1])
            << lines[i] << "B vs " << lines[i - 1] << "B";
}

// ---------------------------------------------------------------------
// DRAM device properties.
// ---------------------------------------------------------------------

class DramSeeds : public ::testing::TestWithParam<u64>
{
};

TEST_P(DramSeeds, CompletionNeverPrecedesIssue)
{
    dram::DramDevice dev(dram::DramParams::ddr4_3200(64 * MiB));
    Rng rng(GetParam());
    Tick now = 0;
    u64 expectBytes = 0;
    for (int i = 0; i < 2000; ++i) {
        now += rng.below(5000);
        u32 bytes = 64u << rng.below(3); // 64..256
        Addr a = rng.below((64 * MiB - 4096) / 64) * 64;
        Tick done = dev.access(a, bytes,
                               rng.chance(0.4) ? AccessType::Write
                                               : AccessType::Read,
                               now);
        ASSERT_GT(done, now);
        expectBytes += bytes;
    }
    EXPECT_EQ(dev.stats().totalBytes(), expectBytes);
    // Row-buffer decisions happen per interleave chunk, so there are at
    // least as many as there are accesses.
    EXPECT_GE(dev.stats().rowHits + dev.stats().rowMisses +
              dev.stats().rowEmpty,
              dev.stats().reads + dev.stats().writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramSeeds, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Hybrid2 ablation orderings that must hold on cache-friendly traffic.
// ---------------------------------------------------------------------

TEST(AblationOrdering, NoRemapIsNeverSlowerThanDefault)
{
    // Identical traffic; the only difference is metadata cost, so the
    // No-Remap ablation must finish no later.
    auto runWith = [&](bool freeRemap) {
        core::Hybrid2Params hp;
        hp.cacheBytes = 512 * KiB;
        hp.freeRemap = freeRemap;
        core::Dcmc d(smallSys(), hp);
        Rng rng(9);
        Tick t = 0;
        Tick lastDone = 0;
        for (int i = 0; i < 20000; ++i) {
            Addr a = rng.below(d.flatCapacity() / 64) * 64;
            auto r = d.access(a, AccessType::Read, t += 4000);
            lastDone = std::max(lastDone, r.completeAt());
        }
        return lastDone;
    };
    EXPECT_LE(runWith(true), runWith(false));
}

TEST(AblationOrdering, MigrationsBoundedByEvictions)
{
    core::Hybrid2Params hp;
    hp.cacheBytes = 512 * KiB;
    core::Dcmc d(smallSys(), hp);
    Rng rng(11);
    Tick t = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr a = rng.below(d.flatCapacity() / 64) * 64;
        d.access(a, AccessType::Read, t += 4000);
    }
    StatSet out;
    d.collectStats(out);
    double evictions = out.get("dcmc.migrations") +
        out.get("dcmc.evictionsToFm") + out.get("dcmc.reassignedNm");
    EXPECT_GT(evictions, 0.0);
    EXPECT_LE(out.get("dcmc.migrations"), evictions);
    // Denials are recorded.
    EXPECT_GE(out.get("dcmc.deniedByCounter") +
              out.get("dcmc.deniedByBudget"), 0.0);
}

} // namespace
} // namespace h2
