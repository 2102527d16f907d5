/**
 * @file
 * The on-chip SRAM hierarchy: per-core L1/L2 plus a shared,
 * non-inclusive LLC, per the paper's Table 1.
 *
 * The hierarchy is the core-side filter in every experiment: it turns the
 * core's 64 B accesses into LLC misses (demand fills) and dirty LLC
 * victims (writebacks) for the memory system under test, and its hit
 * latencies feed the interval core model.
 */

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/types.h"

namespace h2::cache {

/** Geometry/latency of the full SRAM stack. */
struct HierarchyParams
{
    u32 numCores = 8;
    CacheParams l1{"L1", 64 * 1024, 4, 64};
    CacheParams l2{"L2", 256 * 1024, 8, 64};
    CacheParams llc{"LLC", 8ull * 1024 * 1024, 16, 64};
    u32 l1LatencyCycles = 1;
    u32 l2LatencyCycles = 9;
    u32 llcLatencyCycles = 14;
};

/** What a hierarchy access produced. */
struct HierarchyResult
{
    /** SRAM levels traversed until data was found (or the miss was
     *  determined), in core cycles. */
    u32 latencyCycles = 0;
    /** Level that supplied the data: 1, 2, 3, or 0 for memory. */
    u32 hitLevel = 0;
    bool llcMiss = false;
    /** A dirty line pushed out of the LLC (to be written to memory). */
    std::optional<Addr> writeback;
};

/**
 * Three-level writeback hierarchy with 64 B lines.
 *
 * Fill policy: fills go to L1; L1 victims fall into L2; L2 victims fall
 * into the LLC; dirty LLC victims are surfaced to the caller as memory
 * writebacks. On L2/LLC hits the line is promoted to the levels above
 * while the lower copy is retained (non-inclusive, non-exclusive).
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchyParams &params);

    /** Access one 64 B line from core @p core. */
    HierarchyResult access(CoreId core, Addr addr, AccessType type);

    /** LLC occupancy probe for LGM-style migration policies. */
    u32 llcResidentLinesInRange(Addr base, u64 bytes) const;

    /** Exclusive bound of the addresses every level's tags can name
     *  (SetAssocCache::addrLimit over L1, L2 and the LLC). */
    u64 addrLimit() const;

    const HierarchyParams &params() const { return cfg; }
    u64 llcMisses() const { return llc->misses(); }
    /** Accesses since the last resetStats(): every one probes its
     *  core's L1 once. */
    u64 accesses() const;

    /** Zero counters after warm-up (cache contents are kept). */
    void resetStats();

    SetAssocCache &llcCache() { return *llc; }
    const SetAssocCache &llcCache() const { return *llc; }

    void collectStats(StatSet &out) const;

  private:
    /** Insert into L1, cascading each victim downward with one fill()
     *  per level. A dirty LLC victim is reported through @p result. */
    void fillL1(CoreId core, Addr addr, bool dirty, HierarchyResult &result);
    void insertLlc(Addr addr, bool dirty, HierarchyResult &result);

    HierarchyParams cfg;
    std::vector<std::unique_ptr<SetAssocCache>> l1s;
    std::vector<std::unique_ptr<SetAssocCache>> l2s;
    std::unique_ptr<SetAssocCache> llc;
};

} // namespace h2::cache
