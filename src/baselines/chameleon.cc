#include "baselines/chameleon.h"

#include <algorithm>

#include "common/log.h"
#include "common/units.h"
#include "sim/design_registry.h"

namespace h2::baselines {

namespace {

ChameleonParams
resolveParams(const mem::MemSystemParams &sys, ChameleonParams cfg)
{
    if (cfg.cacheSliceBytes == 0)
        cfg.cacheSliceBytes = sys.nmBytes / 16;
    return cfg;
}

cache::CacheParams
cacheModeParams(const ChameleonParams &cfg)
{
    cache::CacheParams p;
    p.name = "chameleonCacheMode";
    p.sizeBytes = cfg.cacheSliceBytes;
    p.ways = 16;
    p.lineBytes = cfg.segmentBytes;
    return p;
}

} // namespace

Chameleon::Chameleon(const mem::MemSystemParams &sysParams,
                     const ChameleonParams &params)
    : mem::HybridMemory(sysParams),
      cfg(resolveParams(sysParams, params)),
      nmGroupSegs((sysParams.nmBytes - cfg.cacheSliceBytes)
                  / cfg.segmentBytes),
      fmSegs(sysParams.fmBytes / cfg.segmentBytes),
      remapCache(),
      cacheMode(cacheModeParams(cfg))
{
    h2_assert(cfg.cacheSliceBytes < sysParams.nmBytes,
              "cache slice must leave room for group mode");
}

u64
Chameleon::flatCapacity() const
{
    return (nmGroupSegs + fmSegs) * u64(cfg.segmentBytes);
}

u64
Chameleon::groupOf(u64 seg) const
{
    if (isNative(seg))
        return seg;
    return (seg - nmGroupSegs) % nmGroupSegs;
}

u64
Chameleon::fmHomeOf(u64 seg) const
{
    h2_assert(!isNative(seg), "native segments have no FM home");
    return seg - nmGroupSegs;
}

Chameleon::GroupState &
Chameleon::state(u64 group)
{
    auto it = groups.find(group);
    if (it == groups.end())
        it = groups.emplace(group, GroupState{nativeOf(group)}).first;
    return it->second;
}

bool
Chameleon::inNmSlot(u64 seg) const
{
    auto it = groups.find(groupOf(seg));
    if (it == groups.end())
        return isNative(seg);
    return it->second.nmMember == seg;
}

void
Chameleon::promote(u64 group, u64 seg, mem::Timeline &tl)
{
    GroupState &st = state(group);
    h2_assert(st.nmMember != seg, "promoting the resident segment");
    u64 segB = cfg.segmentBytes;
    Addr nmSlot = group * segB;
    u64 old = st.nmMember;

    // The swap blocks further accesses to the group, so the segment
    // reads serialize onto the triggering request (they issue together
    // and the swap resumes once the slowest lands); the destination
    // writes are posted from the swap buffer.
    Tick base = tl.now();
    if (seg == nativeOf(group)) {
        // The displaced native wins back its slot: plain swap with the
        // member currently holding it (the native lives in that
        // member's FM home).
        Tick rdNm = nmc().access(nmSlot, segB, AccessType::Read, base);
        Tick rdFm = fmc().access(fmHomeOf(old) * segB, segB,
                               AccessType::Read, base);
        tl.serialize(std::max(rdNm, rdFm));
        postWrite(nmc(), nmSlot, segB, tl.now());
        postWrite(fmc(), fmHomeOf(old) * segB, segB, tl.now());
    } else if (old == nativeOf(group)) {
        // Plain pairwise swap: native <-> seg.
        Tick rdNm = nmc().access(nmSlot, segB, AccessType::Read, base);
        Tick rdFm = fmc().access(fmHomeOf(seg) * segB, segB,
                               AccessType::Read, base);
        tl.serialize(std::max(rdNm, rdFm));
        postWrite(nmc(), nmSlot, segB, tl.now());
        postWrite(fmc(), fmHomeOf(seg) * segB, segB, tl.now());
    } else {
        // Three-way exchange: old returns home, native moves to seg's
        // home, seg enters the NM slot.
        Tick rdNm = nmc().access(nmSlot, segB, AccessType::Read, base);
        Tick rdOld = fmc().access(fmHomeOf(old) * segB, segB,
                                AccessType::Read, base);
        Tick rdSeg = fmc().access(fmHomeOf(seg) * segB, segB,
                                AccessType::Read, base);
        tl.serialize(std::max({rdNm, rdOld, rdSeg}));
        postWrite(nmc(), nmSlot, segB, tl.now());
        postWrite(fmc(), fmHomeOf(old) * segB, segB, tl.now());
        postWrite(fmc(), fmHomeOf(seg) * segB, segB, tl.now());
    }
    st.nmMember = seg;
    st.challenger = ~u64(0);
    st.counter = 0;
    nmMetaRegionAccess(AccessType::Write, baselineMetaRegionBytes(), tl);
    remapCache.invalidate(group);
    // The promoted segment's data left the cache-mode slice's domain.
    cacheMode.invalidate(seg * segB);
    ++nSwaps;
}

bool
Chameleon::serve(Addr addr, AccessType type, mem::Timeline &tl)
{
    u64 seg = addr / cfg.segmentBytes;
    u64 offset = addr % cfg.segmentBytes;
    u64 group = groupOf(seg);
    u64 segB = cfg.segmentBytes;

    // Remap-table reads gate the data access; updates are posted.
    if (!remapCache.lookup(group))
        nmMetaRegionAccess(AccessType::Read, baselineMetaRegionBytes(), tl);

    GroupState &st = state(group);
    bool fromNm;
    if (st.nmMember == seg) {
        // Served from the group's NM slot.
        if (st.counter > 0)
            --st.counter;
        tl.serialize(nmc().access(group * segB + offset, mem::llcLineBytes,
                                type, tl.now()));
        fromNm = true;
    } else {
        // FM-resident (either its own home, or the native segment
        // displaced into the promoted member's home).
        u64 fmLoc = isNative(seg) ? fmHomeOf(st.nmMember) : fmHomeOf(seg);

        // Cache-mode slice: segment-granular cache in front of FM.
        Addr cacheKey = seg * segB;
        if (cfg.cacheMode && cacheMode.access(cacheKey, type)) {
            ++nCacheModeHits;
            Addr nmBase = sys.nmBytes - cfg.cacheSliceBytes;
            tl.serialize(nmc().access(nmBase
                                    + cacheKey % cfg.cacheSliceBytes
                                    + offset, mem::llcLineBytes, type,
                                    tl.now()));
            fromNm = true;
        } else {
            tl.serialize(fmc().access(fmLoc * segB + offset,
                                    mem::llcLineBytes, type, tl.now()));
            fromNm = false;
            if (cfg.cacheMode && seenSegments.lookup(seg)) {
                // Fill the whole segment into the cache slice on
                // reuse; first touches only register in the sketch.
                // The demand word already returned, so the fill (and
                // any victim writeback it forces) trails off the
                // critical path.
                ++nCacheModeFills;
                auto victim = cacheMode.insert(cacheKey, false);
                Addr nmBase = sys.nmBytes - cfg.cacheSliceBytes;
                if (victim && victim->dirty) {
                    u64 vSeg = victim->addr / segB;
                    u64 vLoc = isNative(vSeg)
                        ? fmHomeOf(state(groupOf(vSeg)).nmMember)
                        : fmHomeOf(vSeg);
                    Tick vRd = nmc().access(
                        nmBase + victim->addr % cfg.cacheSliceBytes,
                        segB, AccessType::Read, tl.now());
                    postWrite(fmc(), vLoc * segB, segB, vRd);
                }
                Tick fillRd = fmc().access(fmLoc * segB, segB,
                                         AccessType::Read, tl.now());
                postWrite(nmc(), nmBase + cacheKey % cfg.cacheSliceBytes,
                          segB, fillRd);
            }

            // Competing counter (MJRTY-style), advanced only by
            // requests the cache mode could not absorb: persistent
            // reuse beyond the cache slice earns a swap, transients
            // do not.
            if (st.challenger == seg) {
                ++st.counter;
            } else if (st.counter == 0) {
                st.challenger = seg;
                st.counter = 1;
            } else {
                --st.counter;
            }
            if (st.counter >= cfg.competingK)
                promote(group, seg, tl);
        }
    }
    return fromNm;
}

void
Chameleon::resetStats()
{
    mem::HybridMemory::resetStats();
    remapCache.resetStats();
    nSwaps = 0;
    nCacheModeHits = 0;
    nCacheModeFills = 0;
}

void
Chameleon::collectStats(StatSet &out) const
{
    mem::HybridMemory::collectStats(out);
    out.add("chameleon.swaps", double(nSwaps));
    out.add("chameleon.cacheModeHits", double(nCacheModeHits));
    out.add("chameleon.cacheModeFills", double(nCacheModeFills));
    out.add("chameleon.remapCacheHits", double(remapCache.hits()));
    out.add("chameleon.remapCacheMisses", double(remapCache.misses()));
    out.add("chameleon.metaWrites", double(metaWrites()));
}

H2_REGISTER_DESIGN(chameleon, [] {
    sim::DesignInfo d;
    d.name = "chameleon";
    d.description =
        "Chameleon (Kotra et al., MICRO'18): congruence-group swaps "
        "plus a Hybrid2-sized cache-mode slice";
    d.figure12Order = 1;
    d.factory = [](const sim::DesignSpec &, const mem::MemSystemParams &mp,
                   const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        return std::make_unique<Chameleon>(mp);
    };
    return d;
}())

} // namespace h2::baselines
