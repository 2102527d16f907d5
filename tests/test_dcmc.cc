/**
 * @file
 * Tests for the DCMC: the Figure 7 access path, Figure 8 allocation,
 * Figure 9 evictions, migration, ablations, and metadata accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "core/dcmc.h"

namespace h2::core {
namespace {

mem::MemSystemParams
smallSys()
{
    mem::MemSystemParams p;
    p.nmBytes = 16 * MiB;
    p.fmBytes = 64 * MiB;
    return p;
}

Hybrid2Params
smallParams()
{
    Hybrid2Params p;
    p.cacheBytes = 1 * MiB; // 512 sectors, 32 sets x 16 ways
    p.sectorBytes = 2048;
    p.lineBytes = 256;
    return p;
}

/** NM metadata bytes: every metadata access moves one 64 B block. */
u64
metaBytes(const Dcmc &d)
{
    StatSet out;
    d.collectStats(out);
    return 64 * u64(out.get("dcmc.metaReads") + out.get("dcmc.metaWrites"));
}

class DcmcTest : public ::testing::Test
{
  protected:
    DcmcTest()
        : dcmc(smallSys(), smallParams())
    {
    }

    /** Sector counts of the small layout, derived the same way. */
    static constexpr u64 kCacheSectors = 512;
    u64 nmFlatSectors() const { return dcmc.remapTable().nmFlatSectors(); }
    u64 fmSectorOf(u64 flat) const { return flat - nmFlatSectors(); }

    Addr
    sectorAddr(u64 flatSector, u64 offset = 0) const
    {
        return flatSector * 2048 + offset;
    }

    /** A flat sector that initially lives in FM, aligned to set 0. */
    u64
    fmFlatSector(u64 k = 0) const
    {
        u64 sets = dcmc.xta().numSets();
        u64 base = ((nmFlatSectors() + sets - 1) / sets + 1) * sets;
        return base + k * sets; // all map to set 0
    }

    Dcmc dcmc;
    Tick t = 0;

    mem::MemResult
    access(Addr addr, AccessType type = AccessType::Read)
    {
        t += 10000;
        return dcmc.access(addr, type, t);
    }
};

TEST_F(DcmcTest, LayoutAndCapacity)
{
    // flat = (NM lined - cache) + FM sectors.
    u64 nmSectors = 16 * MiB / 2048;
    // Fractional metadata sectors round up (the tables must fit).
    u64 metaSectors = u64(std::ceil(double(nmSectors) * 0.035));
    u64 nmLocs = nmSectors - metaSectors;
    EXPECT_EQ(nmFlatSectors(), nmLocs - kCacheSectors);
    EXPECT_EQ(dcmc.flatCapacity(),
              (nmLocs - kCacheSectors + 64 * MiB / 2048) * 2048);
    // Hybrid2's headline: more capacity than a cache of the whole NM.
    EXPECT_GT(dcmc.flatCapacity(), smallSys().fmBytes);
}

TEST_F(DcmcTest, Case2bFirstTouchOfFmSector)
{
    u64 s = fmFlatSector();
    auto r = access(sectorAddr(s));
    EXPECT_FALSE(r.fromNm); // the line came from FM
    auto view = dcmc.inspect(s);
    EXPECT_TRUE(view.cached);
    EXPECT_FALSE(view.home.inNm);
    EXPECT_EQ(view.home.idx, fmSectorOf(s));
    EXPECT_EQ(view.validMask, 1u); // only line 0 fetched
    EXPECT_EQ(dcmc.allocator().poolSize(), kCacheSectors - 1);
}

TEST_F(DcmcTest, Case1aLineHitServedFromNm)
{
    u64 s = fmFlatSector();
    access(sectorAddr(s));
    auto r = access(sectorAddr(s));
    EXPECT_TRUE(r.fromNm);
    EXPECT_EQ(dcmc.requestsFromNm(), 1u);
}

TEST_F(DcmcTest, Case1bFetchesMissingLine)
{
    u64 s = fmFlatSector();
    access(sectorAddr(s));            // line 0
    auto r = access(sectorAddr(s, 256)); // line 1: XTA hit, line miss
    EXPECT_FALSE(r.fromNm);
    EXPECT_EQ(dcmc.inspect(s).validMask, 0b11u);
}

TEST_F(DcmcTest, Case2aLinksNmSectorWithoutCopy)
{
    u64 s = 100; // NM-resident flat sector
    u64 fmBytesBefore = dcmc.fmDevice().stats().totalBytes();
    auto r = access(sectorAddr(s));
    EXPECT_TRUE(r.fromNm);
    auto view = dcmc.inspect(s);
    EXPECT_TRUE(view.cached);
    EXPECT_TRUE(view.home.inNm);
    EXPECT_EQ(view.home.idx, kCacheSectors + s);
    // All lines valid and dirty by the paper's convention.
    EXPECT_EQ(view.validMask, 0xFFu);
    EXPECT_EQ(view.dirtyMask, 0xFFu);
    // Linking must not touch FM and must not consume cache pool space.
    dcmc.drainQueues(t);
    EXPECT_EQ(dcmc.fmDevice().stats().totalBytes(), fmBytesBefore);
    EXPECT_EQ(dcmc.allocator().poolSize(), kCacheSectors);
}

TEST_F(DcmcTest, WriteSetsDirtyBit)
{
    u64 s = fmFlatSector();
    access(sectorAddr(s), AccessType::Write);
    EXPECT_EQ(dcmc.inspect(s).dirtyMask, 1u);
    access(sectorAddr(s, 256), AccessType::Read);
    EXPECT_EQ(dcmc.inspect(s).dirtyMask, 1u); // read does not dirty
}

TEST_F(DcmcTest, NmSectorEvictionMovesNothing)
{
    // Fill one set with 17 NM-resident sectors: the LRU entry is simply
    // re-assigned (Figure 9 case 1).
    u64 sets = dcmc.xta().numSets();
    for (u64 k = 0; k <= 16; ++k)
        access(sectorAddr(k * sets));
    EXPECT_EQ(dcmc.migrations() + dcmc.evictionsToFm(), 0u);
    EXPECT_GE(dcmc.xta().numSets(), 1u);
    dcmc.checkInvariants();
    dcmc.drainQueues(t);
    EXPECT_EQ(dcmc.fmDevice().stats().totalBytes(), 0u);
}

class DcmcAblationTest : public ::testing::Test
{
  protected:
    static Dcmc
    makeDcmc(bool migrateAll, bool migrateNone, bool freeRemap = false)
    {
        Hybrid2Params p = smallParams();
        p.migrateAll = migrateAll;
        p.migrateNone = migrateNone;
        p.freeRemap = freeRemap;
        return Dcmc(smallSys(), p);
    }
};

TEST_F(DcmcAblationTest, MigrNoneEvictsToFm)
{
    Dcmc d = makeDcmc(false, true);
    u64 sets = d.xta().numSets();
    u64 base = (d.remapTable().nmFlatSectors() / sets + 2) * sets;
    Tick t = 0;
    for (u64 k = 0; k <= 16; ++k)
        d.access(base * 2048 + k * sets * 2048, AccessType::Write,
                 t += 10000);
    EXPECT_EQ(d.migrations(), 0u);
    EXPECT_EQ(d.evictionsToFm(), 1u);
    // The dirty line was written back to FM.
    EXPECT_GT(d.traffic().fmWriteback, 0u);
    // The NM location returned to the pool: 17 fills, one return.
    EXPECT_EQ(d.allocator().poolSize(), 512u - 17 + 1);
    d.checkInvariants();
}

TEST_F(DcmcAblationTest, MigrAllPromotesEvictedSector)
{
    Dcmc d = makeDcmc(true, false);
    u64 sets = d.xta().numSets();
    u64 base = (d.remapTable().nmFlatSectors() / sets + 2) * sets;
    Tick t = 0;
    u64 first = base;
    for (u64 k = 0; k <= 16; ++k)
        d.access((base + k * sets) * 2048, AccessType::Read, t += 10000);
    EXPECT_EQ(d.migrations(), 1u);
    EXPECT_EQ(d.freeFmStack().size(), 1u);
    // The evicted (migrated) sector now lives in NM.
    auto view = d.inspect(first);
    EXPECT_FALSE(view.cached);
    EXPECT_TRUE(view.home.inNm);
    // Migration fetched the 7 missing lines of the sector from FM.
    EXPECT_EQ(d.traffic().fmMigration, 7u * 256);
    d.checkInvariants();

    // Re-touching the migrated sector is now a 2a NM link.
    auto r = d.access(first * 2048, AccessType::Read, t += 10000);
    EXPECT_TRUE(r.fromNm);
}

TEST_F(DcmcAblationTest, PoolExhaustionTriggersSwap)
{
    Dcmc d = makeDcmc(true, false);
    Tick t = 0;
    u64 nmFlat = d.remapTable().nmFlatSectors();
    // Touch far more distinct FM sectors than the cache has room for;
    // with migrate-all every eviction leaks a pool location, so the
    // allocator must start swapping flat NM sectors out to FM.
    for (u64 i = 0; i < 1200; ++i)
        d.access((nmFlat + i) * 2048, AccessType::Read, t += 10000);
    EXPECT_GT(d.swapOuts(), 0u);
    EXPECT_GT(d.traffic().fmSwap, 0u);
    EXPECT_GT(d.traffic().nmSwap, 0u);
    d.checkInvariants();
}

TEST_F(DcmcAblationTest, NoRemapSkipsMetadata)
{
    Dcmc d = makeDcmc(false, false, /*freeRemap=*/true);
    Tick t = 0;
    u64 nmFlat = d.remapTable().nmFlatSectors();
    for (u64 i = 0; i < 100; ++i)
        d.access((nmFlat + i) * 2048, AccessType::Read, t += 10000);
    EXPECT_EQ(metaBytes(d), 0u);
    StatSet out;
    d.collectStats(out);
    EXPECT_GT(out.get("dcmc.metaSkipped"), 0.0);
    EXPECT_DOUBLE_EQ(out.get("dcmc.metaReads"), 0.0);
}

TEST_F(DcmcAblationTest, DefaultChargesMetadata)
{
    Dcmc d = makeDcmc(false, false);
    Tick t = 0;
    u64 nmFlat = d.remapTable().nmFlatSectors();
    for (u64 i = 0; i < 100; ++i)
        d.access((nmFlat + i) * 2048, AccessType::Read, t += 10000);
    EXPECT_GT(metaBytes(d), 0u);
}

TEST_F(DcmcTest, AccessCounterOnlyForFmSectors)
{
    u64 fmSector = fmFlatSector();
    access(sectorAddr(fmSector));
    access(sectorAddr(fmSector));
    access(sectorAddr(fmSector));
    const XtaEntry *e = dcmc.xta().peek(fmSector);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->accessCounter, 3u); // fill + 2 hits

    access(sectorAddr(100)); // NM-resident
    access(sectorAddr(100));
    const XtaEntry *n = dcmc.xta().peek(100);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->accessCounter, 0u);
}

TEST_F(DcmcTest, CounterSaturates)
{
    u64 s = fmFlatSector();
    for (int i = 0; i < 600; ++i)
        access(sectorAddr(s));
    const XtaEntry *e = dcmc.xta().peek(s);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->accessCounter, 511u);
}

TEST_F(DcmcTest, ServedFromNmAccounting)
{
    u64 s = fmFlatSector();
    access(sectorAddr(s));   // FM
    access(sectorAddr(s));   // NM
    access(sectorAddr(100)); // NM (2a)
    EXPECT_EQ(dcmc.requests(), 3u);
    EXPECT_EQ(dcmc.requestsFromNm(), 2u);
}

TEST_F(DcmcTest, CollectStatsKeys)
{
    access(sectorAddr(fmFlatSector()));
    StatSet out;
    dcmc.collectStats(out);
    for (const char *key :
         {"dcmc.lineHits", "dcmc.lineMisses", "dcmc.missSectorNm",
          "dcmc.missSectorFm", "dcmc.migrations", "dcmc.swapOuts",
          "dcmc.metaReads", "mem.demandReads", "fm.reads", "nm.reads"})
        EXPECT_TRUE(out.has(key)) << key;
    EXPECT_DOUBLE_EQ(out.get("dcmc.missSectorFm"), 1.0);
}

TEST_F(DcmcTest, TimingOrdersNmBelowFm)
{
    // An NM hit must complete faster than an equivalent FM fetch, once
    // the fill traffic of the first access has drained.
    u64 s = fmFlatSector();
    auto fmFirst = access(sectorAddr(s));
    Tick fmLatency = fmFirst.completeAt() - t;
    t += 1000 * 1000; // let the NM fill write finish
    auto nmHit = access(sectorAddr(s));
    Tick nmLatency = nmHit.completeAt() - t;
    EXPECT_LT(nmLatency, fmLatency);
}

TEST_F(DcmcTest, InvariantsAfterMixedSequence)
{
    Tick tt = 0;
    for (u64 i = 0; i < 4000; ++i) {
        u64 sector = (i * 37) % (dcmc.flatCapacity() / 2048);
        dcmc.access(sector * 2048 + (i % 8) * 256,
                    i % 3 ? AccessType::Read : AccessType::Write,
                    tt += 5000);
    }
    dcmc.checkInvariants();
    EXPECT_EQ(dcmc.requests(), 4000u);
}

TEST(DcmcWarmupReset, InvariantsHoldAfterResetStats)
{
    // resetStats() zeroes the measured migration/swap counters but the
    // Free-FM-Stack keeps its depth: the conservation invariant must be
    // tracked with lifetime counters, not measured ones.
    Hybrid2Params p = smallParams();
    p.migrateAll = true;
    Dcmc d(smallSys(), p);
    Tick t = 0;
    u64 sets = d.xta().numSets();
    u64 base = (d.remapTable().nmFlatSectors() / sets + 2) * sets;
    // Overflow set 0: each eviction migrates and leaves one free FM
    // location on the stack (the pool still has room, so no swap-out
    // pops it back off).
    for (u64 k = 0; k <= 20; ++k)
        d.access((base + k * sets) * 2048, AccessType::Read, t += 10000);
    ASSERT_GT(d.migrations(), 0u);
    ASSERT_EQ(d.swapOuts(), 0u);
    ASSERT_GT(d.freeFmStack().size(), 0u);

    d.resetStats();
    EXPECT_EQ(d.migrations(), 0u);
    d.checkInvariants(); // non-empty stack vs. zeroed measured counters

    // Keep migrating after the reset; the invariant must still hold.
    for (u64 k = 21; k <= 40; ++k)
        d.access((base + k * sets) * 2048, AccessType::Read, t += 10000);
    EXPECT_GT(d.migrations(), 0u);
    d.checkInvariants();
}

TEST(DcmcReconciliation, TrafficCountersMatchDramDevices)
{
    // Every byte a DRAM device moves must be attributed to exactly one
    // purpose: a dcmc.bytes.* counter (demand, migration, swap,
    // writeback) or a 64 B metadata access (dcmc.metaReads/metaWrites)
    // — otherwise the Figure 16/17 traffic breakdowns drift from
    // DramStats.
    Dcmc d(smallSys(), smallParams());
    Rng rng(13);
    Tick t = 0;
    for (int i = 0; i < 8000; ++i) {
        Addr a = rng.below(d.flatCapacity() / 64) * 64;
        d.access(a, rng.chance(0.3) ? AccessType::Write : AccessType::Read,
                 t += 4000);
    }
    d.drainQueues(t);
    const DcmcTraffic &b = d.traffic();
    // The scenario must exercise the once-missing counter.
    EXPECT_GT(d.evictionsToFm(), 0u);
    EXPECT_GT(b.nmWriteback, 0u);
    EXPECT_EQ(b.nmDemand + metaBytes(d) + b.nmMigration + b.nmSwap +
              b.nmWriteback,
              d.nmDevice().stats().totalBytes());
    EXPECT_EQ(b.fmDemand + b.fmWriteback + b.fmMigration + b.fmSwap,
              d.fmDevice().stats().totalBytes());
}

TEST(DcmcExtension, FreeSpaceHintsSkipSwapCopies)
{
    // Section 3.8: with every sector marked unused, swap-outs move no
    // data; with none marked, every swap-out copies a sector.
    struct Outcome
    {
        u64 swaps;
        u64 freeSwaps;
        u64 fmSwapBytes;
    };
    auto runWith = [](double unusedFrac) {
        Hybrid2Params p = smallParams();
        p.migrateAll = true;
        p.unusedSectorFraction = unusedFrac;
        Dcmc d(smallSys(), p);
        Tick t = 0;
        u64 nmFlat = d.remapTable().nmFlatSectors();
        for (u64 i = 0; i < 1200; ++i)
            d.access((nmFlat + i) * 2048, AccessType::Read, t += 10000);
        d.checkInvariants();
        return Outcome{d.swapOuts(), d.freeSwapOuts(),
                       d.traffic().fmSwap};
    };
    Outcome base = runWith(0.0);
    EXPECT_GT(base.swaps, 0u);
    EXPECT_EQ(base.freeSwaps, 0u);
    EXPECT_GT(base.fmSwapBytes, 0u);

    Outcome hinted = runWith(1.0);
    EXPECT_GT(hinted.swaps, 0u);
    EXPECT_EQ(hinted.freeSwaps, hinted.swaps);
    EXPECT_EQ(hinted.fmSwapBytes, 0u);
}

TEST(DcmcExtension, UnusedMarkingIsDeterministic)
{
    Hybrid2Params p = smallParams();
    p.unusedSectorFraction = 0.3;
    Dcmc a(smallSys(), p), b(smallSys(), p);
    u64 marked = 0;
    for (u64 s = 0; s < 10000; ++s) {
        EXPECT_EQ(a.sectorUnused(s), b.sectorUnused(s));
        marked += a.sectorUnused(s);
    }
    EXPECT_NEAR(double(marked) / 10000.0, 0.3, 0.03);
}

TEST(DcmcConfig, DseGeometries)
{
    // Every Figure 11 design point must construct and run.
    for (u64 cacheMb : {1, 2}) {
        for (u32 sector : {2048u, 4096u}) {
            for (u32 line : {64u, 128u, 256u, 512u}) {
                Hybrid2Params p;
                p.cacheBytes = cacheMb * MiB;
                p.sectorBytes = sector;
                p.lineBytes = line;
                Dcmc d(smallSys(), p);
                Tick t = 0;
                for (u64 i = 0; i < 50; ++i)
                    d.access(i * sector, AccessType::Read, t += 10000);
                d.checkInvariants();
            }
        }
    }
}

TEST(DcmcConfigDeath, LineLargerThanSector)
{
    Hybrid2Params p = smallParams();
    p.lineBytes = 4096;
    EXPECT_DEATH(Dcmc(smallSys(), p), "line size");
}

TEST(DcmcConfigDeath, CacheBiggerThanNm)
{
    Hybrid2Params p = smallParams();
    p.cacheBytes = 32 * MiB;
    EXPECT_DEATH(Dcmc(smallSys(), p), "larger than");
}

} // namespace
} // namespace h2::core
