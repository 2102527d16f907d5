/**
 * @file
 * The migration decision (paper section 3.7, Figure 10).
 *
 * When an FM-resident sector is evicted from the DRAM cache, Hybrid2
 * decides between migrating it into NM and evicting it back to FM using
 * three inputs: the sector's access counter relative to its XTA set, a
 * net-cost function over its valid/dirty lines, and an FM-traffic budget
 * that scales migration aggressiveness with demand FM traffic.
 */

#pragma once

#include "common/types.h"
#include "core/xta.h"

namespace h2::core {

/**
 * Net cost of migrating vs. evicting a sector (paper 3.7.2):
 *
 *   Mcost  = (Nall - Nvalid) + Nall + 1
 *   Ecost  = Ndirty
 *   Netcost = Mcost - Ecost = 2*Nall - Nvalid - Ndirty + 1
 *
 * Ranges from 1 (all lines valid and dirty) to 2*Nall (one clean valid
 * line).
 */
u32 migrationNetCost(u32 linesPerSector, u32 numValid, u32 numDirty);

/** Why a migration was or was not performed (for stats). */
enum class MigrationVerdict : u8 {
    Migrate,         ///< all three checks passed
    DeniedByCounter, ///< another set member saw more accesses
    DeniedByBudget,  ///< net cost exceeds the FM-traffic budget
};

class MigrationPolicy
{
  public:
    /**
     * @param counterMax     access-counter saturation value (9 bits)
     * @param budgetResetPs  FM budget counter reset period
     */
    MigrationPolicy(u32 counterMax, Tick budgetResetPs);

    /** Account one demand FM access (DRAM-cache miss served from FM). */
    void onDemandFmAccess() { ++fmAccessCounter; }

    /** Periodic budget reset (paper: every 100K cycles). */
    void advanceTo(Tick now);

    /**
     * Decide for @p victim, which must hold an FM sector, in the set of
     * @p flatSector. On Migrate, the net cost is deducted from the
     * budget.
     */
    MigrationVerdict decide(const Xta &xta, u64 flatSector,
                            const XtaEntry &victim);

    u64 budget() const { return fmAccessCounter; }

  private:
    u32 counterMax;
    Tick resetPeriod;
    Tick nextReset;
    u64 fmAccessCounter = 0;
};

} // namespace h2::core
