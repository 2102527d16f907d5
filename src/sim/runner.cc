#include "sim/runner.h"

#include <algorithm>

#include "common/log.h"
#include "sim/design_registry.h"

namespace h2::sim {

std::unique_ptr<mem::HybridMemory>
makeDesign(const DesignSpec &spec, const mem::MemSystemParams &memParams,
           const mem::LlcView &llc)
{
    return spec.info().factory(spec, memParams, llc);
}

std::unique_ptr<mem::HybridMemory>
makeDesign(const std::string &spec, const mem::MemSystemParams &memParams,
           const mem::LlcView &llc)
{
    return makeDesign(DesignSpec::parseOrFatal(spec), memParams, llc);
}

const std::vector<std::string> &
evaluatedDesigns()
{
    // The Figure 12-18 lineup, in paper order, from the registry.
    static const std::vector<std::string> designs = [] {
        std::vector<std::pair<int, std::string>> ordered;
        for (const DesignInfo *d : DesignRegistry::instance().all())
            if (d->figure12Order >= 0)
                ordered.emplace_back(d->figure12Order,
                                     d->defaultSpec().toString());
        std::sort(ordered.begin(), ordered.end());
        std::vector<std::string> out;
        for (auto &[order, spec] : ordered)
            out.push_back(std::move(spec));
        return out;
    }();
    return designs;
}

namespace {

/** makeSystemConfig without the validation. */
SystemConfig
expandRunConfig(const RunConfig &cfg)
{
    SystemConfig sc = table1Config(cfg.nmBytes, cfg.fmBytes);
    sc.numCores = cfg.numCores;
    sc.instrPerCore = cfg.instrPerCore;
    sc.warmupInstrPerCore = cfg.warmupInstrPerCore;
    sc.seed = cfg.seed;
    sc.mem.fmTech = cfg.fm;
    sc.runTimeoutMs = cfg.runTimeoutMs;
    return sc;
}

} // namespace

std::string
validateRunConfig(const RunConfig &cfg)
{
    if (!cfg.queue)
        return "queue=false is no longer supported: the queued memory "
               "controller is the only dispatch path";
    return validateSystemConfig(expandRunConfig(cfg));
}

SystemConfig
makeSystemConfig(const RunConfig &cfg)
{
    if (std::string err = validateRunConfig(cfg); !err.empty())
        h2_fatal("invalid run config: ", err);
    return expandRunConfig(cfg);
}

Metrics
simulateOne(const RunConfig &cfg, const workloads::Workload &workload,
            const std::string &designSpec)
{
    System system(makeSystemConfig(cfg), workload,
                  [&](const mem::MemSystemParams &mp,
                      const mem::LlcView &llc) {
                      return makeDesign(designSpec, mp, llc);
                  });
    system.run();
    return system.metrics();
}

} // namespace h2::sim
