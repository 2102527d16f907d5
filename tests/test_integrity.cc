/**
 * @file
 * Data-placement integrity: shadow oracles verify that every design
 * keeps a bijective, loss-free mapping between flat sectors and
 * physical locations across caching, migration, eviction and swaps.
 * (The simulator is functional over addresses, so location bijection is
 * exactly the "reads return the last write" property.)
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baselines/chameleon.h"
#include "baselines/lgm.h"
#include "baselines/mempod.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dcmc.h"

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

/** Key for a physical sector-granular location. */
std::pair<int, u64>
key(const core::Loc &loc)
{
    return {loc.inNm ? 1 : 0, loc.idx};
}

TEST(IntegrityDcmc, HomesStayUniqueUnderRandomTraffic)
{
    core::Hybrid2Params hp;
    hp.cacheBytes = 512 * KiB; // 256 sectors
    core::Dcmc d(smallSys(), hp);
    u64 flatSectors = d.numFlatSectors();

    Rng rng(17);
    std::set<u64> touched;
    Tick t = 0;
    for (int i = 0; i < 30000; ++i) {
        u64 sector = rng.below(flatSectors);
        u64 off = rng.below(8) * 256;
        d.access(sector * 2048 + off,
                 rng.chance(0.3) ? AccessType::Write : AccessType::Read,
                 t += 5000);
        touched.insert(sector);

        if (i % 5000 == 4999) {
            d.checkInvariants();
            // No two touched sectors may share a home.
            std::map<std::pair<int, u64>, u64> homes;
            for (u64 s : touched) {
                auto view = d.inspect(s);
                auto [it, fresh] = homes.emplace(key(view.home), s);
                ASSERT_TRUE(fresh)
                    << "sectors " << it->second << " and " << s
                    << " share a home";
            }
        }
    }
}

TEST(IntegrityDcmc, CachedLineVisibleAfterAccess)
{
    core::Hybrid2Params hp;
    hp.cacheBytes = 512 * KiB;
    core::Dcmc d(smallSys(), hp);
    Rng rng(23);
    Tick t = 0;
    for (int i = 0; i < 5000; ++i) {
        u64 sector = rng.below(d.numFlatSectors());
        u32 line = static_cast<u32>(rng.below(8));
        d.access(sector * 2048 + line * 256, AccessType::Read, t += 5000);
        auto view = d.inspect(sector);
        ASSERT_TRUE(view.cached);
        ASSERT_TRUE(view.validMask & (u64(1) << line));
        ASSERT_EQ(view.dirtyMask & ~view.validMask, 0u);
    }
}

TEST(IntegrityDcmc, WrittenLinesStayDirtyUntilEviction)
{
    core::Hybrid2Params hp;
    hp.cacheBytes = 512 * KiB;
    hp.migrateNone = true;
    core::Dcmc d(smallSys(), hp);
    u64 nmFlat = d.remapTable().nmFlatSectors();
    Tick t = 0;
    u64 victim = nmFlat + 5; // FM sector
    d.access(victim * 2048, AccessType::Write, t += 5000);
    EXPECT_EQ(d.inspect(victim).dirtyMask, 1u);
    d.drainQueues(t);
    u64 fmWritesBefore = d.fmDevice().stats().bytesWritten;
    // Evict it by filling its set with 16 more FM sectors.
    u64 sets = d.xta().numSets();
    for (u64 k = 1; k <= 16; ++k)
        d.access((victim + k * sets) * 2048, AccessType::Read, t += 5000);
    EXPECT_FALSE(d.inspect(victim).cached);
    // The dirty line was written back: data not lost.
    d.drainQueues(t);
    EXPECT_EQ(d.fmDevice().stats().bytesWritten,
              fmWritesBefore + hp.lineBytes);
}

TEST(IntegrityMemPod, LocateIsBijectiveOverTouchedSegments)
{
    baselines::MemPodParams mp;
    mp.pods = 4;
    mp.intervalPs = 2 * psPerUs;
    mp.minCountToMigrate = 1; // migrate aggressively: stress the remap
    mp.requirePersistence = false;
    baselines::MemPod m(smallSys(), mp);
    u64 segments = m.flatCapacity() / 2048;

    Rng rng(31);
    Tick t = 0;
    std::set<u64> touched;
    for (int i = 0; i < 20000; ++i) {
        u64 seg = rng.below(segments / 2) * 2; // bias to force reuse
        m.access(seg * 2048, AccessType::Read, t += 1000);
        touched.insert(seg);
    }
    std::map<std::pair<int, u64>, u64> homes;
    for (u64 s : touched) {
        auto loc = m.locate(s);
        auto [it, fresh] = homes.emplace(key(loc), s);
        ASSERT_TRUE(fresh) << "segments " << it->second << " and " << s
                           << " collide";
    }
    EXPECT_GT(m.migrations(), 0u); // the test actually moved data
}

TEST(IntegrityLgm, LocateIsBijectiveOverTouchedSegments)
{
    mem::EmptyLlcView llc;
    baselines::LgmParams lp;
    lp.watermark = 4;
    lp.intervalPs = 2 * psPerUs;
    baselines::Lgm l(smallSys(), llc, lp);
    u64 segments = l.flatCapacity() / 2048;

    Rng rng(37);
    Tick t = 0;
    std::set<u64> touched;
    for (int i = 0; i < 20000; ++i) {
        u64 seg = rng.below(segments / 4); // hot quarter
        l.access(seg * 2048, AccessType::Read, t += 1000);
        touched.insert(seg);
    }
    std::map<std::pair<int, u64>, u64> homes;
    for (u64 s : touched) {
        auto [it, fresh] = homes.emplace(key(l.locate(s)), s);
        ASSERT_TRUE(fresh) << "segments " << it->second << " and " << s
                           << " collide";
    }
    EXPECT_GT(l.migrations(), 0u);
}

TEST(IntegrityChameleon, OneResidentPerGroup)
{
    baselines::ChameleonParams cp;
    cp.competingK = 3;
    cp.cacheSliceBytes = 512 * KiB;
    baselines::Chameleon c(smallSys(), cp);
    u64 nmGroupSegs = (8 * MiB - 512 * KiB) / 2048;
    u64 fmSegs = 32 * MiB / 2048;

    Rng rng(41);
    Tick t = 0;
    std::set<u64> touchedGroups;
    for (int i = 0; i < 20000; ++i) {
        u64 seg = rng.below(nmGroupSegs + fmSegs);
        c.access(seg * 2048, AccessType::Read, t += 1000);
        touchedGroups.insert(seg < nmGroupSegs
                             ? seg : (seg - nmGroupSegs) % nmGroupSegs);
    }
    EXPECT_GT(c.swaps(), 0u);
    // Exactly one member of every touched group occupies its NM slot.
    for (u64 g : touchedGroups) {
        u32 inSlot = c.inNmSlot(g) ? 1 : 0;
        for (u64 seg = nmGroupSegs + g; seg < nmGroupSegs + fmSegs;
             seg += nmGroupSegs)
            inSlot += c.inNmSlot(seg) ? 1 : 0;
        ASSERT_EQ(inSlot, 1u) << "group " << g;
    }
}

} // namespace
} // namespace h2
