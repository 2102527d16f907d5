/**
 * @file
 * LLC-Guided Migration (LGM; Vasilakis et al., IPDPS'19) baseline.
 *
 * A flat NM+FM address space with all-to-all 2 KB segment migration.
 * Per-interval access counters (fed by the traffic the LLC lets
 * through) select hot FM segments; segments crossing the watermark are
 * swapped into NM at interval boundaries against a FIFO-chosen victim.
 * LGM economizes migration bandwidth by not copying the cache lines of
 * a migrating segment that are currently resident in the LLC - those
 * are written back to the segment's new home on LLC eviction.
 *
 * The remap table, remap cache, interval clock, access path and swap
 * live in IntervalMigration; LGM owns only its selection policy: the
 * per-interval watermark counts, the FIFO victim pointer, the
 * inverted-table read that names the victim, and the LLC-resident copy
 * sizing.
 */

#pragma once

#include <unordered_map>

#include "baselines/interval_migration.h"
#include "common/units.h"

namespace h2::baselines {

struct LgmParams
{
    u32 segmentBytes = 2048;
    /** Accesses within one interval that make a segment migrate. The
     *  paper's DSE found 256 at 1 B-instruction traces; the default here
     *  is rescaled for the shorter synthetic traces. */
    u32 watermark = 16;
    Tick intervalPs = 50 * psPerUs;
    u32 maxMigrationsPerInterval = 64;
};

class Lgm : public IntervalMigration
{
  public:
    Lgm(const mem::MemSystemParams &sysParams, const mem::LlcView &llc,
        const LgmParams &params = {});

    std::string name() const override { return "LGM"; }
    void collectStats(StatSet &out) const override;

    /** LLC-resident lines migrations skipped copying. */
    u64 llcLinesSkipped() const { return uncopiedLines(); }

  private:
    void onFmAccess(u64 seg) override;
    void endInterval(mem::Timeline &tl) override;
    void migrateSegment(u64 hotSeg, mem::Timeline &tl);

    LgmParams cfg;
    const mem::LlcView &llc;
    std::unordered_map<u64, u32> intervalCounts;
    u64 fifoPtr = 0;
};

} // namespace h2::baselines
