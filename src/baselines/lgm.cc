#include "baselines/lgm.h"

#include <algorithm>
#include <vector>

#include "sim/design_registry.h"

namespace h2::baselines {

Lgm::Lgm(const mem::MemSystemParams &sysParams, const mem::LlcView &llcView,
         const LgmParams &params)
    : IntervalMigration(sysParams, params.segmentBytes, params.intervalPs,
                        "lgm"),
      cfg(params),
      llc(llcView)
{
}

void
Lgm::onFmAccess(u64 seg)
{
    ++intervalCounts[seg];
}

void
Lgm::migrateSegment(u64 hotSeg, mem::Timeline &tl)
{
    if (locate(hotSeg).inNm)
        return; // migrated by an earlier candidate this interval
    u64 segB = segmentBytes;

    // FIFO victim over the NM locations, named by an inverted remap
    // table read.
    u64 nmLoc = fifoPtr % nmSegs;
    fifoPtr += 1;
    u64 victim = occupant(nmLoc);
    nmMetaRegionAccess(AccessType::Read, baselineMetaRegionBytes(), tl);

    // Bandwidth economizing: skip lines of both segments that are
    // currently in the LLC (they will be written back to the new homes).
    u32 lines = segB / mem::llcLineBytes;
    u32 hotResident = llc.residentLines(hotSeg * segB, segB);
    u32 victimResident = llc.residentLines(victim * segB, segB);
    swap(hotSeg, nmLoc, (lines - victimResident) * mem::llcLineBytes,
         (lines - hotResident) * mem::llcLineBytes, tl);
}

void
Lgm::endInterval(mem::Timeline &tl)
{
    std::vector<std::pair<u32, u64>> hot;
    for (const auto &[seg, count] : intervalCounts)
        if (count >= cfg.watermark)
            hot.emplace_back(count, seg);
    std::sort(hot.rbegin(), hot.rend());
    if (hot.size() > cfg.maxMigrationsPerInterval)
        hot.resize(cfg.maxMigrationsPerInterval);
    for (const auto &[count, seg] : hot)
        migrateSegment(seg, tl);
    intervalCounts.clear();
}

void
Lgm::collectStats(StatSet &out) const
{
    IntervalMigration::collectStats(out);
    out.add("lgm.llcLinesSkipped", double(llcLinesSkipped()));
}

H2_REGISTER_DESIGN(lgm, [] {
    sim::DesignInfo d;
    d.name = "lgm";
    d.description =
        "LLC-Guided Migration (Vasilakis et al., IPDPS'19): flat space "
        "with watermark-triggered segment swaps";
    d.figure12Order = 2;
    sim::ParamDef watermark;
    watermark.name = "watermark";
    watermark.type = sim::ParamDef::Type::U64;
    watermark.description =
        "per-interval access count that makes a segment migrate";
    watermark.defU64 = LgmParams{}.watermark;
    watermark.minU64 = 1;
    watermark.maxU64 = ~u32(0);
    d.params = {watermark};
    d.factory = [](const sim::DesignSpec &spec,
                   const mem::MemSystemParams &mp, const mem::LlcView &llc)
        -> std::unique_ptr<mem::HybridMemory> {
        LgmParams p;
        p.watermark = static_cast<u32>(spec.u64Param("watermark"));
        return std::make_unique<Lgm>(mp, llc, p);
    };
    return d;
}())

} // namespace h2::baselines
