#include "baselines/mempod.h"

#include <utility>

#include "common/log.h"
#include "sim/design_registry.h"

namespace h2::baselines {

MemPod::MemPod(const mem::MemSystemParams &sysParams,
               const MemPodParams &params)
    : IntervalMigration(sysParams, params.segmentBytes, params.intervalPs,
                        "mempod"),
      cfg(params)
{
    h2_assert(nmSegs % cfg.pods == 0, "NM segments not divisible by pods");
    podMea.assign(cfg.pods, Mea(cfg.meaCounters));
    podFifo.assign(cfg.pods, 0);
    // Stagger the FIFO pointers so pods do not evict in lockstep.
    for (u32 p = 0; p < cfg.pods; ++p)
        podFifo[p] = p;
}

void
MemPod::onFmAccess(u64 seg)
{
    podMea[seg % cfg.pods].touch(seg);
}

void
MemPod::endInterval(mem::Timeline &tl)
{
    u64 nmSegsPerPod = nmSegs / cfg.pods;
    std::unordered_set<u64> trackedNow;
    for (u32 p = 0; p < cfg.pods; ++p) {
        u32 migrated = 0;
        for (const auto &[seg, count] : podMea[p].tracked()) {
            trackedNow.insert(seg);
            if (count < cfg.minCountToMigrate)
                continue;
            if (migrated >= cfg.maxMigrationsPerPodInterval)
                continue;
            if (cfg.requirePersistence && !prevTracked.count(seg))
                continue; // one-shot burst: not worth a swap yet
            if (locate(seg).inNm)
                continue; // already resident
            // Round-robin FIFO victim within this pod's NM slice.
            u64 victimIdx = podFifo[p] % nmSegsPerPod;
            podFifo[p] += 1;
            u64 nmLoc = victimIdx * cfg.pods + p;
            swap(seg, nmLoc, segmentBytes, segmentBytes, tl);
            ++migrated;
        }
        podMea[p].clear();
    }
    prevTracked = std::move(trackedNow);
}

H2_REGISTER_DESIGN(mempod, [] {
    sim::DesignInfo d;
    d.name = "mempod";
    d.description =
        "MemPod (Prodromou et al., HPCA'17): clustered flat space, "
        "MEA-driven interval migration";
    d.figure12Order = 0;
    d.factory = [](const sim::DesignSpec &, const mem::MemSystemParams &mp,
                   const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        return std::make_unique<MemPod>(mp);
    };
    return d;
}())

} // namespace h2::baselines
