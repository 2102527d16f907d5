#include "cache/cache_hierarchy.h"

#include <algorithm>

#include "common/log.h"

namespace h2::cache {

CacheHierarchy::CacheHierarchy(const HierarchyParams &params)
    : cfg(params)
{
    h2_assert(cfg.numCores > 0, "hierarchy needs at least one core");
    h2_assert(cfg.l1.lineBytes == cfg.l2.lineBytes &&
              cfg.l2.lineBytes == cfg.llc.lineBytes,
              "all SRAM levels must share one line size");
    for (u32 c = 0; c < cfg.numCores; ++c) {
        l1s.push_back(std::make_unique<SetAssocCache>(cfg.l1));
        l2s.push_back(std::make_unique<SetAssocCache>(cfg.l2));
    }
    llc = std::make_unique<SetAssocCache>(cfg.llc);
}

void
CacheHierarchy::insertLlc(Addr addr, bool dirty, HierarchyResult &result)
{
    // Non-inclusive: a copy may already live here; fill merges dirt.
    auto victim = llc->fill(addr, dirty);
    if (victim && victim->dirty) {
        h2_assert(!result.writeback,
                  "one access produced two LLC writebacks");
        result.writeback = victim->addr;
    }
}

void
CacheHierarchy::fillL1(CoreId core, const SetAssocCache::SetRef &s,
                       bool dirty, HierarchyResult &result)
{
    // Nothing entered the L1 since its miss located s.
    auto v1 = l1s[core]->insert(s, dirty);
    if (!v1)
        return;
    // L1 victim falls into L2 (merge if already present).
    auto v2 = l2s[core]->fill(v1->addr, v1->dirty);
    if (v2)
        insertLlc(v2->addr, v2->dirty, result);
}

HierarchyResult
CacheHierarchy::access(CoreId core, Addr addr, AccessType type)
{
    h2_assert(core < cfg.numCores, "core id out of range");
    Addr line = addr & ~Addr(cfg.l1.lineBytes - 1);
    HierarchyResult result;

    SetAssocCache &l1 = *l1s[core];
    SetAssocCache::SetRef l1Set = l1.locate(line);
    if (l1.access(l1Set, type)) {
        result.latencyCycles = cfg.l1LatencyCycles;
        result.hitLevel = 1;
        return result;
    }
    if (l2s[core]->access(line, type)) {
        result.latencyCycles = cfg.l2LatencyCycles;
        result.hitLevel = 2;
        // Promote to L1, retaining the L2 copy (non-inclusive). The L1
        // copy starts clean; dirt stays in L2 until eviction merges it.
        fillL1(core, l1Set, false, result);
        return result;
    }
    if (llc->access(line, type)) {
        result.latencyCycles = cfg.llcLatencyCycles;
        result.hitLevel = 3;
        fillL1(core, l1Set, false, result);
        return result;
    }

    // Demand miss: the caller fetches the line from the memory system.
    result.latencyCycles = cfg.llcLatencyCycles;
    result.hitLevel = 0;
    result.llcMiss = true;
    fillL1(core, l1Set, type == AccessType::Write, result);
    return result;
}

u64
CacheHierarchy::accesses() const
{
    u64 n = 0;
    for (const auto &c : l1s)
        n += c->hits() + c->misses();
    return n;
}

u64
CacheHierarchy::addrLimit() const
{
    return std::min({l1s[0]->addrLimit(), l2s[0]->addrLimit(),
                     llc->addrLimit()});
}

u32
CacheHierarchy::llcResidentLinesInRange(Addr base, u64 bytes) const
{
    return llc->residentLinesInRange(base, bytes);
}

void
CacheHierarchy::resetStats()
{
    for (auto &c : l1s)
        c->resetStats();
    for (auto &c : l2s)
        c->resetStats();
    llc->resetStats();
}

void
CacheHierarchy::collectStats(StatSet &out) const
{
    llc->collectStats(out, "hier.llc");
}

} // namespace h2::cache
