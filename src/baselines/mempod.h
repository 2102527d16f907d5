/**
 * @file
 * MemPod (Prodromou et al., HPCA'17) baseline.
 *
 * A clustered flat-address-space migration scheme: NM and FM are split
 * into pods; within each pod, an MEA (Majority Element Algorithm) sketch
 * identifies hot 2 KB segments over a fixed interval, and at interval
 * boundaries the tracked segments are swapped into the pod's NM slice.
 * Remapping is all-to-all within a pod, with the in-memory remap table
 * fronted by an on-chip remap cache sized like Hybrid2's XTA.
 *
 * Paper configuration (section 5): 64 MEA counters, 50 us intervals.
 *
 * The remap table, remap cache, interval clock, access path and swap
 * live in IntervalMigration; MemPod owns only its selection policy: the
 * per-pod MEA sketches, the per-pod FIFO victim pointers and the
 * two-interval persistence filter.
 */

#pragma once

#include <unordered_set>
#include <vector>

#include "baselines/interval_migration.h"
#include "baselines/mea.h"
#include "common/units.h"

namespace h2::baselines {

struct MemPodParams
{
    u32 segmentBytes = 2048;
    u32 pods = 8;
    u32 meaCounters = 64;
    Tick intervalPs = 50 * psPerUs;
    /** Minimum MEA count for a segment to be worth swapping in; filters
     *  the one-touch noise that streaming leaves in the sketch. */
    u64 minCountToMigrate = 4;
    /** Swap-bandwidth cap per pod per interval. */
    u32 maxMigrationsPerPodInterval = 32;
    /** Require a segment to be MEA-tracked in two consecutive intervals
     *  before it migrates; one-shot spatial bursts never repay a swap. */
    bool requirePersistence = true;
};

class MemPod : public IntervalMigration
{
  public:
    MemPod(const mem::MemSystemParams &sysParams,
           const MemPodParams &params = {});

    std::string name() const override { return "MPOD"; }

  private:
    void onFmAccess(u64 seg) override;
    void endInterval(mem::Timeline &tl) override;

    MemPodParams cfg;
    std::vector<Mea> podMea;
    std::vector<u64> podFifo; ///< round-robin NM victim pointer per pod
    std::unordered_set<u64> prevTracked; ///< MEA survivors, last interval
};

} // namespace h2::baselines
