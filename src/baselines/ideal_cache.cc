#include "baselines/ideal_cache.h"

#include <algorithm>

#include "common/log.h"
#include "sim/design_registry.h"

namespace h2::baselines {

IdealCache::IdealCache(const mem::MemSystemParams &sysParams,
                       u32 lineBytes, const std::string &displayName)
    : mem::HybridMemory(sysParams),
      lineB(lineBytes), label(displayName),
      tags({"dramCacheTags", sysParams.nmBytes, 16, lineBytes})
{
    h2_assert(lineB >= mem::llcLineBytes &&
              lineB % mem::llcLineBytes == 0,
              "DRAM-cache line must be a multiple of 64 B");
    h2_assert(lineB / mem::llcLineBytes <= 64,
              "used-block tracking supports up to 4 KB lines");
}

void
IdealCache::onFill(Addr, mem::Timeline &)
{
    // No metadata traffic in the ideal design.
}

bool
IdealCache::serve(Addr addr, AccessType type, mem::Timeline &tl)
{
    Addr lineAddr = addr & ~Addr(lineB - 1);
    u32 blockIdx = static_cast<u32>((addr - lineAddr) / mem::llcLineBytes);
    tagLookup(addr, tl);

    if (tags.access(lineAddr, type)) {
        usedBlocks[lineAddr] |= u64(1) << blockIdx;
        // The NM frame is the line address modulo NM capacity (so are
        // the fill below and the dirty-victim read). This is not 1:1:
        // the tag store is 16-way LRU, and lines whose addresses differ
        // by a multiple of NM capacity share a set, so up to 16 resident
        // lines map to one frame and its bank and row. A 1:1 frame
        // would come from the (set, way) the line was placed in.
        Addr nmAddr = lineAddr % sys.nmBytes + (addr - lineAddr);
        tl.serialize(nmc().access(nmAddr, mem::llcLineBytes, type,
                                tl.now()));
        return true;
    }

    // Miss: fetch the full line from FM (critical 64 B first), fill NM.
    auto victim = tags.insert(lineAddr, type == AccessType::Write);
    if (victim) {
        auto it = usedBlocks.find(victim->addr);
        u64 used = it == usedBlocks.end() ? 0 : it->second;
        u32 blocksPerLine = lineB / mem::llcLineBytes;
        wastedBlocks += blocksPerLine - __builtin_popcountll(used);
        if (it != usedBlocks.end())
            usedBlocks.erase(it);
        if (victim->dirty) {
            // Write the whole victim line back to FM: the NM read
            // drains the frame before it is refilled (serialized); the
            // FM write is posted once the data is buffered and drains
            // behind the demand fetch.
            tl.serialize(nmc().access(victim->addr % sys.nmBytes,
                                    lineB, AccessType::Read,
                                    tl.now()));
            postWrite(fmc(), victim->addr, lineB, tl.now());
        }
    }
    usedBlocks[lineAddr] = u64(1) << blockIdx;

    // Critical word first; the rest of the line and the NM fill stream
    // in behind it, off the critical path.
    tl.serialize(fmc().access(addr, mem::llcLineBytes, AccessType::Read,
                            tl.now()));
    Tick critical = tl.now();
    Tick lineReady = critical; // when the whole line is buffered
    if (lineB > mem::llcLineBytes) {
        // Remaining bytes of the line (split around the critical block).
        if (addr > lineAddr) {
            Tick rd = fmc().access(lineAddr,
                                 static_cast<u32>(addr - lineAddr),
                                 AccessType::Read, critical);
            lineReady = std::max(lineReady, rd);
        }
        Addr after = addr + mem::llcLineBytes;
        if (after < lineAddr + lineB) {
            Tick rd = fmc().access(
                after, static_cast<u32>(lineAddr + lineB - after),
                AccessType::Read, critical);
            lineReady = std::max(lineReady, rd);
        }
    }
    postWrite(nmc(), lineAddr % sys.nmBytes, lineB, lineReady);
    onFill(lineAddr, tl);
    return false;
}

double
IdealCache::wastedFetchFraction() const
{
    // Count both evicted lines (whose waste is final) and currently
    // resident lines (fetched but not yet used); with a 1 GB cache and
    // bounded traces most fetched lines are still resident at the end
    // of the run.
    u32 blocksPerLine = lineB / mem::llcLineBytes;
    u64 fetched = tags.evictions() * u64(blocksPerLine);
    u64 wasted = wastedBlocks;
    for (const auto &[line, used] : usedBlocks) {
        fetched += blocksPerLine;
        wasted += blocksPerLine - __builtin_popcountll(used);
    }
    if (fetched == 0)
        return 0.0;
    return double(wasted) / double(fetched);
}

void
IdealCache::resetStats()
{
    mem::HybridMemory::resetStats();
    wastedBlocks = 0;
    tags.resetStats();
}

void
IdealCache::collectStats(StatSet &out) const
{
    mem::HybridMemory::collectStats(out);
    out.add("cache.wastedFetchFraction", wastedFetchFraction());
    tags.collectStats(out, "cache.tags");
}

H2_REGISTER_DESIGN(ideal, [] {
    sim::DesignInfo d;
    d.name = "ideal";
    d.description =
        "overhead-free DRAM cache with a parametric line size (Figure 2)";
    sim::ParamDef line;
    line.name = "line";
    line.type = sim::ParamDef::Type::U64;
    line.description = "cache-line (fetch) bytes";
    line.defU64 = 256;
    line.minU64 = 64;
    // The used-block bitmap holds at most 64 blocks of 64 B.
    line.maxU64 = 4096;
    line.powerOfTwo = true;
    line.positional = true;
    d.params = {line};
    d.factory = [](const sim::DesignSpec &spec,
                   const mem::MemSystemParams &mp, const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        auto lineBytes = static_cast<u32>(spec.u64Param("line"));
        return std::make_unique<IdealCache>(
            mp, lineBytes, "IDEAL-" + std::to_string(lineBytes));
    };
    return d;
}())

// The Tagless DRAM cache (Lee et al., ISCA'15) tracks DRAM-cache
// contents through the page tables and TLBs, so it pays no tag-lookup
// cost, but it caches whole 4 KB pages. Per the paper's methodology
// ("we optimistically do not model any operating system overheads") it
// behaves as an overhead-free page-granular cache, which is exactly the
// IDEAL cache at a 4 KB line. Its weakness, reproduced here, is
// page-granularity over-fetch on workloads with poor spatial locality.
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
        return std::make_unique<IdealCache>(mp, 4096, "TAGLESS");
    };
    return d;
}())

} // namespace h2::baselines
