/**
 * @file
 * Critical-path timeline semantics: structural traffic (evictions,
 * swap-outs, migrations, metadata reads) must measurably extend miss
 * completion times in every design, and a miss can never complete
 * faster than the sum of its serialized DRAM components.
 *
 * All scenario accesses are spaced far apart (quiesced devices), so the
 * measured latencies decompose into the serialized segments only.
 */

#include <gtest/gtest.h>

#include <vector>

#include "baselines/chameleon.h"
#include "baselines/ideal_cache.h"
#include "baselines/lgm.h"
#include "baselines/mempod.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "dram/dram_device.h"
#include "mem/timeline.h"

namespace h2 {
namespace {

// ---------------------------------------------------------------------
// Timeline combinator unit tests.
// ---------------------------------------------------------------------

TEST(Timeline, SerializeExtendsCriticalPath)
{
    mem::Timeline tl(1000);
    EXPECT_EQ(tl.issuedAt(), 1000u);
    EXPECT_EQ(tl.completeAt(), 1000u);
    tl.advance(30);
    EXPECT_EQ(tl.now(), 1030u);
    tl.serialize(1500);
    EXPECT_EQ(tl.completeAt(), 1500u);
    tl.serialize(1200); // already past 1200: no-op extension
    EXPECT_EQ(tl.completeAt(), 1500u);
    EXPECT_EQ(tl.criticalPathPs(), 500u);
    EXPECT_EQ(tl.segments(), 3u);
}

TEST(Timeline, OverlapNeverExtendsCompletion)
{
    mem::Timeline tl(1000);
    tl.serialize(1400);
    tl.overlap(9999);
    EXPECT_EQ(tl.completeAt(), 1400u);
    EXPECT_EQ(tl.trailingAt(), 9999u);
    tl.serialize(1500);
    EXPECT_EQ(tl.trailingAt(), 9999u); // trailing still dominates
    tl.overlap(1450);                  // behind the head: absorbed
    EXPECT_EQ(tl.completeAt(), 1500u);
}

TEST(Timeline, DefaultIsEmpty)
{
    mem::Timeline tl;
    EXPECT_EQ(tl.issuedAt(), 0u);
    EXPECT_EQ(tl.criticalPathPs(), 0u);
    EXPECT_EQ(tl.segments(), 0u);
}

// ---------------------------------------------------------------------
// Shared scenario plumbing.
// ---------------------------------------------------------------------

constexpr Tick kGap = 10'000'000; // 10 us: lets all traffic drain

mem::MemSystemParams
smallSys()
{
    mem::MemSystemParams p;
    p.nmBytes = 16 * MiB;
    p.fmBytes = 64 * MiB;
    return p;
}

core::Hybrid2Params
smallParams()
{
    core::Hybrid2Params p;
    p.cacheBytes = 1 * MiB; // 512 sectors, 32 sets x 16 ways
    p.sectorBytes = 2048;
    p.lineBytes = 256;
    return p;
}

/** Minimal (idle, row-hit) latency of a @p bytes read on @p params. */
Tick
minReadLatencyPs(const dram::DramParams &params, u32 bytes)
{
    dram::DramDevice dev(params);
    dev.access(0, bytes, AccessType::Read, 0); // open the covered rows
    const Tick idle = Tick(1) << 40;
    return dev.access(0, bytes, AccessType::Read, idle) - idle;
}

/** Latency of one quiesced access. */
Tick
quiescedLatency(mem::HybridMemory &m, Addr addr, AccessType type, Tick &t)
{
    t += kGap;
    return m.access(addr, type, t).completeAt() - t;
}

// ---------------------------------------------------------------------
// Hybrid2 (DCMC) decomposition:
//   hit < clean miss < miss+eviction < miss+swap-out
// ---------------------------------------------------------------------

class DcmcLatency : public ::testing::Test
{
  protected:
    static core::Dcmc
    make(bool migrateAll, bool migrateNone)
    {
        core::Hybrid2Params p = smallParams();
        p.migrateAll = migrateAll;
        p.migrateNone = migrateNone;
        return core::Dcmc(smallSys(), p);
    }

    /** First flat sector of XTA set @p k whose home is FM. */
    static u64
    fmSector(const core::Dcmc &d, u64 k)
    {
        u64 sets = d.xta().numSets();
        u64 nmFlat = d.remapTable().nmFlatSectors();
        u64 base = ((nmFlat + sets - 1) / sets + 1) * sets;
        return base + k;
    }
};

TEST_F(DcmcLatency, DecompositionOrdersStructuralOverheads)
{
    Tick ctrl = smallSys().controllerLatencyPs;
    Tick xta = smallParams().xtaLatencyPs;
    Tick nm64 = minReadLatencyPs(dram::DramParams::hbm2(16 * MiB), 64);
    Tick nm256 = minReadLatencyPs(dram::DramParams::hbm2(16 * MiB), 256);
    Tick nm2k = minReadLatencyPs(dram::DramParams::hbm2(16 * MiB), 2048);
    Tick fm256 = minReadLatencyPs(dram::DramParams::ddr4_3200(64 * MiB),
                                  256);

    // Clean miss (2b, pool space available, set empty) and line hit.
    core::Dcmc plain = make(false, false);
    Tick t = 0;
    u64 s = fmSector(plain, 0);
    Tick cleanMiss = quiescedLatency(plain, s * 2048, AccessType::Read, t);
    Tick hit = quiescedLatency(plain, s * 2048, AccessType::Read, t);

    // The serialized components put a floor under each scenario:
    // hit  = controller + XTA + NM demand read
    // miss = controller + XTA + remap read + FM line fetch
    EXPECT_GE(hit, ctrl + xta + nm64);
    EXPECT_GE(cleanMiss, ctrl + xta + nm64 + fm256);
    EXPECT_LT(hit, cleanMiss);

    // Miss + eviction: fill set 0 with dirtied sectors, then one more.
    core::Dcmc mn = make(false, true);
    t = 0;
    u64 sets = mn.xta().numSets();
    for (u64 k = 0; k < 16; ++k)
        quiescedLatency(mn, fmSector(mn, k * sets) * 2048,
                        AccessType::Write, t);
    // A clean miss in this instance (different set, pool not empty).
    Tick cleanMn = quiescedLatency(mn, fmSector(mn, 1) * 2048,
                                   AccessType::Read, t);
    u64 evictions = mn.evictionsToFm();
    Tick evictMiss = quiescedLatency(mn, fmSector(mn, 16 * sets) * 2048,
                                     AccessType::Read, t);
    ASSERT_EQ(mn.evictionsToFm(), evictions + 1)
        << "scenario bug: the 17th fill did not evict";
    // The dirty-line writeback's NM read serializes ahead of the fetch.
    EXPECT_GE(evictMiss, ctrl + xta + nm64 + nm256 + fm256);
    EXPECT_LT(cleanMn, evictMiss);

    // Miss + swap-out: exhaust the pool under migrate-all, then touch a
    // fresh FM sector. The access pays the way eviction (migration),
    // the FIFO victim scan (inverted-remap reads) and the 2 KB victim
    // sector copy-out before its own FM fetch.
    core::Dcmc ma = make(true, false);
    t = 0;
    u64 nmFlat = ma.remapTable().nmFlatSectors();
    for (u64 i = 0; i < 1200; ++i)
        ma.access((nmFlat + i) * 2048, AccessType::Read, t += 10000);
    ASSERT_GT(ma.swapOuts(), 0u);
    u64 swapsBefore = ma.swapOuts();
    Tick swapMiss = quiescedLatency(ma, (nmFlat + 1200) * 2048,
                                    AccessType::Read, t);
    ASSERT_GT(ma.swapOuts(), swapsBefore)
        << "scenario bug: the access did not swap out a victim";
    EXPECT_GE(swapMiss, ctrl + xta + nm64 + nm64 + nm2k + fm256);
    EXPECT_LT(evictMiss, swapMiss);
}

TEST_F(DcmcLatency, MissLatencyCoversSerializedSegments)
{
    // Any request's critical path equals completeAt - issue and is
    // composed of at least the controller + XTA segments.
    core::Dcmc d = make(false, false);
    Rng rng(7);
    Tick t = 0;
    for (int i = 0; i < 4000; ++i) {
        Addr a = rng.below(d.flatCapacity() / 64) * 64;
        t += 4000;
        mem::MemResult r = d.access(
            a, rng.chance(0.3) ? AccessType::Write : AccessType::Read, t);
        ASSERT_EQ(r.timeline.issuedAt(), t);
        ASSERT_EQ(r.timeline.criticalPathPs(), r.completeAt() - t);
        ASSERT_GE(r.completeAt() - t,
                  Tick(smallSys().controllerLatencyPs) +
                      smallParams().xtaLatencyPs);
        ASSERT_GE(r.timeline.trailingAt(), r.completeAt());
        ASSERT_GE(r.timeline.segments(), 2u);
    }
    d.checkInvariants();
}

// ---------------------------------------------------------------------
// DRAM-cache family: hit < clean miss < miss + dirty eviction.
// ---------------------------------------------------------------------

TEST(IdealCacheLatency, DirtyEvictionExtendsMiss)
{
    baselines::IdealCache c(smallSys(), 1024);
    Tick t = 0;

    Tick cleanMiss = quiescedLatency(c, 0, AccessType::Write, t);
    Tick hit = quiescedLatency(c, 0, AccessType::Write, t);
    EXPECT_LT(hit, cleanMiss);

    // Fill every NM line frame with dirty lines; the next distinct line
    // evicts a dirty victim, whose NM source read serializes ahead of
    // the demand fetch.
    u64 lines = smallSys().nmBytes / c.lineBytes();
    for (u64 i = 1; i < lines; ++i)
        c.access(i * c.lineBytes(), AccessType::Write, t += 20000);
    u64 evicted = c.fills();
    t += kGap;
    Tick evictMiss = quiescedLatency(c, lines * c.lineBytes(),
                                     AccessType::Write, t);
    ASSERT_EQ(c.fills(), evicted + 1);
    EXPECT_LT(cleanMiss, evictMiss);
    Tick nm1k = minReadLatencyPs(dram::DramParams::hbm2(16 * MiB), 1024);
    Tick fm64 = minReadLatencyPs(dram::DramParams::ddr4_3200(64 * MiB),
                                 64);
    EXPECT_GE(evictMiss,
              Tick(smallSys().controllerLatencyPs) + nm1k + fm64);
}

// ---------------------------------------------------------------------
// Chameleon: the promoting (swap-triggering) access pays the swap.
// ---------------------------------------------------------------------

TEST(ChameleonLatency, SwapSerializesOntoTriggeringAccess)
{
    baselines::ChameleonParams p;
    p.cacheMode = false; // pure group-swap design: every FM access counts
    baselines::Chameleon c(smallSys(), p);
    Tick t = 0;

    // Hammer one FM segment: access #competingK trips the promotion.
    Addr fmSegAddr = (smallSys().nmBytes / p.segmentBytes)
        * u64(p.segmentBytes);
    std::vector<Tick> lat;
    for (u32 i = 0; i < p.competingK; ++i) {
        ASSERT_EQ(c.swaps(), 0u);
        lat.push_back(quiescedLatency(c, fmSegAddr, AccessType::Read, t));
    }
    ASSERT_EQ(c.swaps(), 1u) << "scenario bug: no promotion happened";
    // The promoting access serialized the swap's segment reads.
    EXPECT_GT(lat.back(), lat[lat.size() - 2]);
    // And the segment is NM-resident afterwards: cheaper than before.
    Tick after = quiescedLatency(c, fmSegAddr, AccessType::Read, t);
    EXPECT_LT(after, lat.back());
}

// ---------------------------------------------------------------------
// MemPod / LGM: interval migrations delay the first request past the
// interval boundary.
// ---------------------------------------------------------------------

TEST(MemPodLatency, IntervalMigrationDelaysNextRequest)
{
    baselines::MemPodParams p;
    p.requirePersistence = false; // migrate on the first hot interval
    auto run = [&](bool makeHot) {
        baselines::MemPod m(smallSys(), p);
        u64 nmSegs = smallSys().nmBytes / p.segmentBytes;
        Addr hot = nmSegs * u64(p.segmentBytes);       // FM-resident
        Addr probe = (nmSegs + 64) * u64(p.segmentBytes); // FM-resident
        Tick t = 0;
        if (makeHot)
            for (int i = 0; i < 8; ++i)
                m.access(hot, AccessType::Read, t += 10000);
        // First request past the interval boundary pays the swaps.
        Tick at = p.intervalPs + 1000;
        Tick lat = m.access(probe, AccessType::Read, at).completeAt() - at;
        return std::make_pair(lat, m.access(hot, AccessType::Read,
                                            at + kGap).fromNm);
    };
    auto [quiet, hotStillFm] = run(false);
    auto [delayed, hotNowNm] = run(true);
    EXPECT_FALSE(hotStillFm);
    EXPECT_TRUE(hotNowNm) << "scenario bug: the hot segment never moved";
    EXPECT_GT(delayed, quiet);
}

TEST(LgmLatency, IntervalMigrationDelaysNextRequest)
{
    baselines::LgmParams p;
    mem::EmptyLlcView llc;
    auto run = [&](bool makeHot) {
        baselines::Lgm m(smallSys(), llc, p);
        u64 nmSegs = smallSys().nmBytes / p.segmentBytes;
        Addr hot = nmSegs * u64(p.segmentBytes);
        Addr probe = (nmSegs + 64) * u64(p.segmentBytes);
        Tick t = 0;
        if (makeHot)
            for (u32 i = 0; i < p.watermark; ++i)
                m.access(hot, AccessType::Read, t += 10000);
        Tick at = p.intervalPs + 1000;
        Tick lat = m.access(probe, AccessType::Read, at).completeAt() - at;
        return std::make_pair(lat, m.access(hot, AccessType::Read,
                                            at + kGap).fromNm);
    };
    auto [quiet, hotStillFm] = run(false);
    auto [delayed, hotNowNm] = run(true);
    EXPECT_FALSE(hotStillFm);
    EXPECT_TRUE(hotNowNm) << "scenario bug: the hot segment never moved";
    EXPECT_GT(delayed, quiet);
}

} // namespace
} // namespace h2
