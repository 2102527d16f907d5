#include "baselines/flat_baseline.h"

#include "sim/design_registry.h"

namespace h2::baselines {

FlatBaseline::FlatBaseline(const mem::MemSystemParams &sysParams)
    : mem::HybridMemory(sysParams, false)
{
}

bool
FlatBaseline::serve(Addr addr, AccessType type, mem::Timeline &tl)
{
    tl.serialize(fmc().access(addr, mem::llcLineBytes, type, tl.now()));
    return false;
}

H2_REGISTER_DESIGN(baseline, [] {
    sim::DesignInfo d;
    d.name = "baseline";
    d.description =
        "FM-only system (no 3D-stacked DRAM); the normalization baseline";
    d.factory = [](const sim::DesignSpec &, const mem::MemSystemParams &mp,
                   const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        return std::make_unique<FlatBaseline>(mp);
    };
    return d;
}())

} // namespace h2::baselines
