#include "baselines/dfc_cache.h"

#include <algorithm>

#include "sim/design_registry.h"

namespace h2::baselines {

DfcCache::DfcCache(const mem::MemSystemParams &sysParams, u32 lineBytes)
    : IdealCache(sysParams, lineBytes, "DFC-" + std::to_string(lineBytes)),
      tagCache()
{
}

void
DfcCache::tagLookup(Addr addr, mem::Timeline &tl)
{
    Addr lineAddr = addr & ~Addr(lineB - 1);
    if (tagCache.lookup(lineAddr / lineB))
        return; // fused on-chip tag hit: no overhead
    // The tag store occupies a reserved NM slice; reads gate the data
    // access, writes are posted.
    nmMetaRegionAccess(AccessType::Read, baselineMetaRegionBytes(), tl);
}

void
DfcCache::onFill(Addr, mem::Timeline &tl)
{
    // Fills update the NM-resident tag store off the critical path.
    nmMetaRegionAccess(AccessType::Write, baselineMetaRegionBytes(), tl);
}

void
DfcCache::resetStats()
{
    IdealCache::resetStats();
    tagCache.resetStats();
}

void
DfcCache::collectStats(StatSet &out) const
{
    IdealCache::collectStats(out);
    out.add("dfc.tagCacheHits", double(tagCache.hits()));
    out.add("dfc.tagCacheMisses", double(tagCache.misses()));
    out.add("dfc.tagReads", double(metaReads()));
    out.add("dfc.tagWrites", double(metaWrites()));
}

H2_REGISTER_DESIGN(dfc, [] {
    sim::DesignInfo d;
    d.name = "dfc";
    d.description =
        "Decoupled Fused Cache (Vasilakis et al., TACO'19): in-DRAM "
        "tags with an on-chip fused tag cache";
    d.figure12Order = 4;
    sim::ParamDef line;
    line.name = "line";
    line.type = sim::ParamDef::Type::U64;
    line.description = "cache-line (fetch) bytes";
    line.defU64 = 1024;
    line.minU64 = 64;
    // IdealCache's used-block bitmap holds at most 64 blocks of 64 B.
    line.maxU64 = 4096;
    line.powerOfTwo = true;
    line.positional = true;
    d.params = {line};
    d.factory = [](const sim::DesignSpec &spec,
                   const mem::MemSystemParams &mp, const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        return std::make_unique<DfcCache>(
            mp, static_cast<u32>(spec.u64Param("line")));
    };
    return d;
}())

} // namespace h2::baselines
