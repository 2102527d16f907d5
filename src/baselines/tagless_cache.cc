#include "baselines/tagless_cache.h"

#include "sim/design_registry.h"

namespace h2::baselines {

TaglessCache::TaglessCache(const mem::MemSystemParams &sysParams)
    : IdealCache(sysParams, DramCacheParams{4096}, "TAGLESS")
{
}

H2_REGISTER_DESIGN(tagless, [] {
    sim::DesignInfo d;
    d.name = "tagless";
    d.description =
        "Tagless DRAM cache (Lee et al., ISCA'15): page-granular, "
        "TLB-tracked, no tag cost";
    d.figure12Order = 3;
    d.factory = [](const sim::DesignSpec &, const mem::MemSystemParams &mp,
                   const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        return std::make_unique<TaglessCache>(mp);
    };
    return d;
}())

} // namespace h2::baselines
