#include "baselines/interval_migration.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace h2::baselines {

IntervalMigration::IntervalMigration(const mem::MemSystemParams &sysParams,
                                     u32 segBytes, Tick interval,
                                     std::string prefix)
    : mem::HybridMemory(sysParams),
      segmentBytes(segBytes),
      nmSegs(sysParams.nmBytes / segBytes),
      fmSegs(sysParams.fmBytes / segBytes),
      remap(nmSegs + fmSegs, nmSegs, 0, fmSegs),
      remapCache(),
      intervalPs(interval),
      nextInterval(interval),
      statPrefix(std::move(prefix))
{
}

u64
IntervalMigration::occupant(u64 nmLoc) const
{
    auto resident = remap.invLookup(nmLoc);
    h2_assert(resident, name(), " NM location ", nmLoc, " has no resident");
    return *resident;
}

void
IntervalMigration::swap(u64 hotSeg, u64 nmLoc, u32 victimBytes,
                        u32 hotBytes, mem::Timeline &tl)
{
    // The NM location's occupant goes to the hot segment's FM home; the
    // hot segment moves into NM.
    u64 victim = occupant(nmLoc);
    core::Loc hotHome = remap.lookup(hotSeg);
    h2_assert(!hotHome.inNm, "hot segment already in NM");
    u64 segB = segmentBytes;

    // Read both segments (issued together, the swap resumes when the
    // slower one lands), then post both destination writes.
    Tick base = tl.now();
    Tick copied = base;
    if (victimBytes > 0)
        copied = std::max(copied, nmc().access(nmLoc * segB, victimBytes,
                                               AccessType::Read, base));
    if (hotBytes > 0)
        copied = std::max(copied, fmc().access(hotHome.idx * segB,
                                               hotBytes, AccessType::Read,
                                               base));
    tl.serialize(copied);
    if (hotBytes > 0)
        postWrite(nmc(), nmLoc * segB, hotBytes, tl.now());
    if (victimBytes > 0)
        postWrite(fmc(), hotHome.idx * segB, victimBytes, tl.now());

    remap.update(hotSeg, core::Loc{true, nmLoc});
    remap.update(victim, core::Loc{false, hotHome.idx});
    remap.invUpdate(nmLoc, hotSeg);
    u64 region = baselineMetaRegionBytes();
    nmMetaRegionAccess(AccessType::Write, region, tl);
    nmMetaRegionAccess(AccessType::Write, region, tl);
    remapCache.invalidate(hotSeg);
    remapCache.invalidate(victim);
    ++nMigrations;
    nUncopiedLines += (2 * segB - victimBytes - hotBytes) / mem::llcLineBytes;
}

bool
IntervalMigration::serve(Addr addr, AccessType type, mem::Timeline &tl)
{
    // Interval-end migrations run in the controller when the first
    // request past the boundary arrives; that request (and everything
    // behind it) waits for the swaps' serialized reads.
    while (tl.issuedAt() >= nextInterval) {
        endInterval(tl);
        ++nIntervals;
        nextInterval += intervalPs;
    }

    u64 seg = addr / segmentBytes;
    u64 offset = addr % segmentBytes;
    // Remap-table reads gate the data access; updates are posted.
    if (!remapCache.lookup(seg))
        nmMetaRegionAccess(AccessType::Read, baselineMetaRegionBytes(), tl);

    core::Loc loc = remap.lookup(seg);
    Addr devAddr = loc.idx * u64(segmentBytes) + offset;
    if (loc.inNm) {
        tl.serialize(nmc().access(devAddr, mem::llcLineBytes, type,
                                  tl.now()));
    } else {
        tl.serialize(fmc().access(devAddr, mem::llcLineBytes, type,
                                  tl.now()));
        onFmAccess(seg);
    }
    return loc.inNm;
}

void
IntervalMigration::checkInvariants() const
{
    for (u64 nmLoc = 0; nmLoc < nmSegs; ++nmLoc) {
        u64 seg = occupant(nmLoc);
        h2_assert((remap.lookup(seg) == core::Loc{true, nmLoc}), name(),
                  " segment ", seg, " occupies NM location ", nmLoc,
                  " but its remap entry points elsewhere");
    }
}

void
IntervalMigration::resetStats()
{
    mem::HybridMemory::resetStats();
    remapCache.resetStats();
    nMigrations = 0;
    nIntervals = 0;
    nUncopiedLines = 0;
}

void
IntervalMigration::collectStats(StatSet &out) const
{
    mem::HybridMemory::collectStats(out);
    out.add(statPrefix + ".migrations", double(nMigrations));
    out.add(statPrefix + ".intervals", double(nIntervals));
    out.add(statPrefix + ".remapCacheHits", double(remapCache.hits()));
    out.add(statPrefix + ".remapCacheMisses", double(remapCache.misses()));
    out.add(statPrefix + ".metaReads", double(metaReads()));
    out.add(statPrefix + ".metaWrites", double(metaWrites()));
}

} // namespace h2::baselines
