#include "core/xta.h"

#include "common/log.h"

namespace h2::core {

Xta::Xta(u64 numSectors, u32 ways, u32 linesPerSector)
    : waysN(ways), lps(linesPerSector)
{
    h2_assert(ways > 0 && numSectors >= ways,
              "XTA needs at least one full set");
    h2_assert(numSectors % ways == 0, "XTA sectors not divisible by ways");
    h2_assert(linesPerSector >= 1 && linesPerSector <= 64,
              "valid/dirty vectors support 1..64 lines per sector, got ",
              linesPerSector);
    // Round the set count down to a power of two (see the header
    // comment) so setOf/tagOf are a mask and a shift on the hot path.
    sets = u64(1) << floorLog2(numSectors / ways);
    setShift = floorLog2(sets);
    setMask = sets - 1;
    tagLane = ZeroLane<u64>(sets * waysN);
    entries = ZeroLane<XtaEntry>(sets * waysN);
}

XtaEntry *
Xta::find(u64 flatSector)
{
    u64 tag = ~tagOf(flatSector);
    u64 base = setOf(flatSector) * waysN;
    for (u32 w = 0; w < waysN; ++w) {
        if (tagLane[base + w] == tag) {
            ++nHits;
            entries[base + w].lruStamp = ++clock;
            return &entries[base + w];
        }
    }
    ++nMisses;
    return nullptr;
}

const XtaEntry *
Xta::peek(u64 flatSector) const
{
    u64 tag = ~tagOf(flatSector);
    u64 base = setOf(flatSector) * waysN;
    for (u32 w = 0; w < waysN; ++w)
        if (tagLane[base + w] == tag)
            return &entries[base + w];
    return nullptr;
}

XtaEntry *
Xta::victimWay(u64 flatSector)
{
    u64 base = setOf(flatSector) * waysN;
    u32 victim = 0;
    for (u32 w = 0; w < waysN; ++w) {
        if (tagLane[base + w] == kInvalidTag)
            return &entries[base + w];
        if (entries[base + w].lruStamp < entries[base + victim].lruStamp)
            victim = w;
    }
    return &entries[base + victim];
}

void
Xta::fill(u64 flatSector, XtaEntry &entry)
{
    tagLane[indexOf(entry)] = ~tagOf(flatSector);
    entry.validMask = 0;
    entry.dirtyMask = 0;
    entry.accessCounter = 0;
    entry.lruStamp = ++clock;
}

u64
Xta::storageBytes() const
{
    // Per entry: tag (~4 B), valid+dirty vectors (2 * lps bits),
    // 9-bit counter, two pointers (~4 B each), LRU (~1 B).
    u64 bitsPerEntry = 32 + 2 * lps + 9 + 2 * 32 + 8;
    return ceilDiv(entries.size() * bitsPerEntry, 8);
}

void
Xta::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".hits", double(nHits));
    out.add(prefix + ".misses", double(nMisses));
    out.add(prefix + ".storageBytes", double(storageBytes()));
}

} // namespace h2::core
