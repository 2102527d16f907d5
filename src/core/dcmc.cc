#include "core/dcmc.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/log.h"
#include "common/rng.h"
#include "sim/design_registry.h"

namespace h2::core {

Dcmc::Layout
Dcmc::computeLayout(const mem::MemSystemParams &sys,
                    const Hybrid2Params &cfg)
{
    h2_assert(isPowerOf2(cfg.sectorBytes) && isPowerOf2(cfg.lineBytes),
              "sector/line sizes must be powers of two");
    h2_assert(cfg.lineBytes >= mem::llcLineBytes &&
              cfg.lineBytes <= cfg.sectorBytes,
              "line size must be in [64, sectorBytes]");
    Layout l;
    u64 nmSectors = sys.nmBytes / cfg.sectorBytes;
    // Round the fractional metadata sector up: the remap structures
    // must fit entirely inside the reserved region.
    l.metaSectors = static_cast<u64>(
        std::ceil(double(nmSectors) * cfg.metadataFraction));
    l.nmLocs = nmSectors - l.metaSectors;
    l.cacheSectors = cfg.cacheBytes / cfg.sectorBytes;
    // Both reachable from settings (nm-mib, hybrid2:cache=/sector=):
    // fatal, so a sweep fails only this point.
    if (l.cacheSectors % cfg.ways != 0)
        h2_fatal("hybrid2: cache=", cfg.cacheBytes / MiB, " MiB holds ",
                 l.cacheSectors, " sectors of ", cfg.sectorBytes,
                 " B, not a multiple of the ", cfg.ways,
                 " XTA ways; change cache or sector");
    if (l.cacheSectors >= l.nmLocs)
        h2_fatal("hybrid2: cache=", cfg.cacheBytes / MiB,
                 " MiB is larger than the ",
                 l.nmLocs * cfg.sectorBytes / MiB, " MiB that nm-mib ",
                 sys.nmBytes / MiB,
                 " leaves after metadata; raise nm-mib or lower cache");
    l.nmFlatSectors = l.nmLocs - l.cacheSectors;
    l.fmSectors = sys.fmBytes / cfg.sectorBytes;
    return l;
}

Dcmc::Dcmc(const mem::MemSystemParams &sysParams, const Hybrid2Params &params)
    : Dcmc(sysParams, params, computeLayout(sysParams, params))
{
}

Dcmc::Dcmc(const mem::MemSystemParams &sysParams, const Hybrid2Params &params,
           const Layout &l)
    : mem::HybridMemory(sysParams,
                        dram::DramParams::hbm2(sysParams.nmBytes),
                        dram::DramParams::farMemory(sysParams.fmTech,
                                                    sysParams.fmBytes)),
      cfg(params),
      metaSectors(l.metaSectors),
      nmLocs(l.nmLocs),
      cacheSectors(l.cacheSectors),
      nmFlatSectors(l.nmFlatSectors),
      fmSectors(l.fmSectors),
      tags(cacheSectors, params.ways, params.linesPerSector()),
      remap(nmFlatSectors + fmSectors, nmFlatSectors, cacheSectors,
            fmSectors),
      alloc(nmLocs, cacheSectors),
      freeFm(),
      migrPolicy(params.counterMax, params.budgetResetPs)
{
}

u64
Dcmc::flatCapacity() const
{
    return remap.flatSectors() * u64(cfg.sectorBytes);
}

Addr
Dcmc::nmByteAddr(u64 nmLoc, u64 offset) const
{
    h2_assert(nmLoc < nmLocs && offset < cfg.sectorBytes,
              "bad NM location/offset");
    return (metaSectors + nmLoc) * u64(cfg.sectorBytes) + offset;
}

Addr
Dcmc::fmByteAddr(u64 fmLoc, u64 offset) const
{
    h2_assert(fmLoc < fmSectors && offset < cfg.sectorBytes,
              "bad FM location/offset");
    return fmLoc * u64(cfg.sectorBytes) + offset;
}

void
Dcmc::metaAccess(AccessType type, mem::Timeline &tl)
{
    if (cfg.freeRemap) {
        ++nMetaSkipped;
        return;
    }
    u64 metaBytesTotal = metaSectors * u64(cfg.sectorBytes);
    if (metaBytesTotal == 0) {
        ++nMetaSkipped;
        return;
    }
    // Table reads gate the next step of the miss path; table writes are
    // posted and drain behind the request's serialized reads.
    bytes.nmMeta += 64;
    nmMetaRegionAccess(type, metaBytesTotal, tl);
}

void
Dcmc::drainStackTraffic(mem::Timeline &tl)
{
    for (u64 n = freeFm.takeNmSpills(); n > 0; --n)
        metaAccess(AccessType::Write, tl);
    for (u64 n = freeFm.takeNmFills(); n > 0; --n)
        metaAccess(AccessType::Read, tl);
}

u64
Dcmc::allocateNmLoc(mem::Timeline &tl)
{
    if (!alloc.poolEmpty())
        return alloc.popPool();

    // Figure 8: FIFO scan for a flat victim, swap it out to a free FM
    // location, and hand its NM location to the cache. The scan's
    // inverted-remap reads and the victim copy-out all gate the demand
    // fetch that triggered the allocation, so they serialize.
    u64 victimLoc = alloc.findVictim(
        [&](u64 loc) { // pinned: sector has a live XTA entry
            auto flat = remap.invLookup(loc);
            return flat && tags.contains(*flat);
        },
        [&](u64) { // each probe reads the inverted remap table
            metaAccess(AccessType::Read, tl);
        });
    auto victimFlat = remap.invLookup(victimLoc);
    h2_assert(victimFlat, "victim scan returned an empty location");

    u64 fmLoc = freeFm.pop();
    drainStackTraffic(tl);

    if (sectorUnused(*victimFlat)) {
        // Section 3.8: the OS marked the victim unused, so its data
        // need not survive the move - skip the copy entirely.
        ++nFreeSwapOuts;
    } else {
        // Copy the whole victim sector NM -> FM: the read empties the
        // NM location (serialized, the fill reuses it); the FM write is
        // posted once the data is buffered.
        tl.serialize(nmc().access(nmByteAddr(victimLoc, 0), cfg.sectorBytes,
                                AccessType::Read, tl.now()));
        postWrite(*fm, fmByteAddr(fmLoc, 0), cfg.sectorBytes, tl.now());
        bytes.nmSwap += cfg.sectorBytes;
        bytes.fmSwap += cfg.sectorBytes;
    }

    remap.update(*victimFlat, Loc{false, fmLoc});
    metaAccess(AccessType::Write, tl);
    remap.invUpdate(victimLoc, std::nullopt);
    metaAccess(AccessType::Write, tl);

    alloc.setOwner(victimLoc, NmAllocator::Owner::CacheData);
    ++nSwapOuts;
    ++lifetimeSwapOuts;
    return victimLoc;
}

void
Dcmc::migrateSector(u64 victimFlat, XtaEntry &victim, mem::Timeline &tl)
{
    // Fetch the lines not yet present in NM. The reads of all missing
    // lines issue together (they spread over FM channels/banks) and the
    // miss path resumes once the slowest one lands; the NM fill writes
    // are posted as each line arrives.
    u32 lps = cfg.linesPerSector();
    Tick base = tl.now();
    Tick fetched = base;
    for (u32 i = 0; i < lps; ++i) {
        if (victim.validMask & (u64(1) << i))
            continue;
        u64 off = u64(i) * cfg.lineBytes;
        Tick rd = fmc().access(fmByteAddr(victim.fmLoc, off), cfg.lineBytes,
                             AccessType::Read, base);
        postWrite(*nm, nmByteAddr(victim.nmLoc, off), cfg.lineBytes, rd);
        fetched = std::max(fetched, rd);
        bytes.fmMigration += cfg.lineBytes;
        bytes.nmMigration += cfg.lineBytes;
    }
    tl.serialize(fetched);
    // The sector's home is now its NM location; its FM slot frees up.
    remap.update(victimFlat, Loc{true, victim.nmLoc});
    metaAccess(AccessType::Write, tl);
    // The inverted remap table was already updated at fill time
    // (section 3.4, case 2b).
    freeFm.push(victim.fmLoc);
    drainStackTraffic(tl);
    alloc.setOwner(victim.nmLoc, NmAllocator::Owner::Flat);
    ++nMigrations;
    ++lifetimeMigrations;
}

void
Dcmc::evictSectorToFm(u64 victimFlat, XtaEntry &victim, mem::Timeline &tl)
{
    // Write back dirty lines to the sector's FM home. The NM reads
    // sourcing the writebacks issue together and serialize (the NM
    // location must drain before the way is reused); the FM writes are
    // posted once each line is buffered.
    u32 lps = cfg.linesPerSector();
    Tick base = tl.now();
    Tick drained = base;
    for (u32 i = 0; i < lps; ++i) {
        if (!(victim.dirtyMask & (u64(1) << i)))
            continue;
        u64 off = u64(i) * cfg.lineBytes;
        Tick rd = nmc().access(nmByteAddr(victim.nmLoc, off), cfg.lineBytes,
                             AccessType::Read, base);
        postWrite(*fm, fmByteAddr(victim.fmLoc, off), cfg.lineBytes, rd);
        drained = std::max(drained, rd);
        bytes.nmWriteback += cfg.lineBytes;
        bytes.fmWriteback += cfg.lineBytes;
    }
    tl.serialize(drained);
    // The NM location returns to the cache pool; clear its occupant.
    remap.invUpdate(victim.nmLoc, std::nullopt);
    metaAccess(AccessType::Write, tl);
    alloc.pushPool(victim.nmLoc);
    ++nEvictionsToFm;
    (void)victimFlat;
}

void
Dcmc::evictEntry(u64 victimFlat, XtaEntry &victim, mem::Timeline &tl)
{
    if (!victim.inFm) {
        // Case 1 (section 3.6): the sector already lives in NM; simply
        // release the way. No data moves, no metadata changes.
        ++nReassignedNm;
        return;
    }
    bool migrate;
    if (cfg.migrateNone) {
        migrate = false;
    } else if (cfg.migrateAll) {
        migrate = true;
    } else {
        MigrationVerdict verdict = migrPolicy.decide(tags, victimFlat,
                                                     victim);
        migrate = verdict == MigrationVerdict::Migrate;
        if (verdict == MigrationVerdict::DeniedByCounter)
            ++nDeniedByCounter;
        else if (verdict == MigrationVerdict::DeniedByBudget)
            ++nDeniedByBudget;
    }
    if (migrate)
        migrateSector(victimFlat, victim, tl);
    else
        evictSectorToFm(victimFlat, victim, tl);
}

XtaEntry *
Dcmc::prepareWay(u64 flatSector, mem::Timeline &tl)
{
    XtaEntry *way = tags.victimWay(flatSector);
    if (tags.entryValid(*way)) {
        u64 victimFlat = tags.flatSectorOf(tags.setOf(flatSector), *way);
        evictEntry(victimFlat, *way, tl);
        tags.releaseWay(*way);
    }
    return way;
}

mem::MemResult
Dcmc::access(Addr addr, AccessType type, Tick now)
{
    h2_assert(addr + mem::llcLineBytes <= flatCapacity(),
              "access beyond flat capacity: ", addr);
    migrPolicy.advanceTo(now);

    u64 flatSector = addr / cfg.sectorBytes;
    u64 offsetInSector = addr % cfg.sectorBytes;
    u32 lineIdx = static_cast<u32>(offsetInSector / cfg.lineBytes);
    u64 lineBit = u64(1) << lineIdx;
    u64 lineOff = u64(lineIdx) * cfg.lineBytes;

    mem::Timeline tl(now);
    tl.advance(sys.controllerLatencyPs + cfg.xtaLatencyPs);
    bool fromNm;

    XtaEntry *entry = tags.find(flatSector);
    if (entry) {
        if (entry->inFm && entry->accessCounter < cfg.counterMax)
            ++entry->accessCounter;

        if (entry->validMask & lineBit) {
            // 1a: the line is in NM.
            ++nLineHits;
            tl.serialize(nmc().access(nmByteAddr(entry->nmLoc,
                                               offsetInSector),
                                    mem::llcLineBytes, type, tl.now()));
            bytes.nmDemand += mem::llcLineBytes;
            if (type == AccessType::Write)
                entry->dirtyMask |= lineBit;
            fromNm = true;
        } else {
            // 1b: sector tracked, line still in FM; fetch it. The
            // critical word returns with the FM read; the NM line fill
            // trails it off the critical path.
            ++nLineMisses;
            h2_assert(entry->inFm, "line miss on an NM-resident sector");
            migrPolicy.onDemandFmAccess();
            tl.serialize(fmc().access(fmByteAddr(entry->fmLoc, lineOff),
                                    cfg.lineBytes, AccessType::Read,
                                    tl.now()));
            postWrite(*nm, nmByteAddr(entry->nmLoc, lineOff),
                      cfg.lineBytes, tl.now());
            bytes.fmDemand += cfg.lineBytes;
            bytes.nmDemand += cfg.lineBytes;
            entry->validMask |= lineBit;
            if (type == AccessType::Write)
                entry->dirtyMask |= lineBit;
            fromNm = false;
        }
        flushPostedWrites(tl);
        recordService(type, fromNm, tl);
        return {tl, fromNm};
    }

    // 2: XTA miss - the remap-table read, the way eviction (writeback
    // or migration) and, for FM sectors, the NM allocation all gate the
    // demand fetch, in that order (Figure 7 + Figure 8).
    metaAccess(AccessType::Read, tl);
    Loc loc = remap.lookup(flatSector);

    XtaEntry *way = prepareWay(flatSector, tl);
    tags.fill(flatSector, *way);

    if (loc.inNm) {
        // 2a: link the NM-resident sector; everything is already here.
        ++nMissSectorNm;
        way->inFm = false;
        way->nmLoc = loc.idx;
        way->fmLoc = 0;
        way->validMask = (cfg.linesPerSector() == 64)
            ? ~u64(0) : ((u64(1) << cfg.linesPerSector()) - 1);
        way->dirtyMask = way->validMask; // paper's convention
        tl.serialize(nmc().access(nmByteAddr(loc.idx, offsetInSector),
                                mem::llcLineBytes, type, tl.now()));
        bytes.nmDemand += mem::llcLineBytes;
        fromNm = true;
    } else {
        // 2b: allocate NM space and fetch the requested line from FM.
        ++nMissSectorFm;
        u64 nmLoc = allocateNmLoc(tl);
        way->inFm = true;
        way->nmLoc = nmLoc;
        way->fmLoc = loc.idx;
        way->validMask = lineBit;
        way->dirtyMask = (type == AccessType::Write) ? lineBit : 0;
        way->accessCounter = 1;
        migrPolicy.onDemandFmAccess();
        tl.serialize(fmc().access(fmByteAddr(loc.idx, lineOff),
                                cfg.lineBytes, AccessType::Read,
                                tl.now()));
        // Critical word returned; the NM fill and the inverted-remap
        // write trail off the critical path.
        postWrite(*nm, nmByteAddr(nmLoc, lineOff), cfg.lineBytes,
                  tl.now());
        bytes.fmDemand += cfg.lineBytes;
        bytes.nmDemand += cfg.lineBytes;
        // Record the occupant in the inverted remap table now (even
        // though the sector is not migrated) so the allocator's victim
        // scan stays correct (section 3.4).
        remap.invUpdate(nmLoc, flatSector);
        metaAccess(AccessType::Write, tl);
        fromNm = false;
    }
    flushPostedWrites(tl);
    recordService(type, fromNm, tl);
    return {tl, fromNm};
}

bool
Dcmc::sectorUnused(u64 flatSector) const
{
    if (cfg.unusedSectorFraction <= 0.0)
        return false;
    // Deterministic pseudo-random marking, stable across the run (the
    // OS would communicate this via ISA-Alloc/ISA-Free instructions).
    double u = double(splitmix64(flatSector ^ 0x3323ad5cu) >> 11)
        * 0x1.0p-53;
    return u < cfg.unusedSectorFraction;
}

SectorView
Dcmc::inspect(u64 flatSector) const
{
    SectorView view;
    const XtaEntry *entry = tags.peek(flatSector);
    if (entry) {
        view.cached = true;
        view.validMask = entry->validMask;
        view.dirtyMask = entry->dirtyMask;
        view.home = entry->inFm ? Loc{false, entry->fmLoc}
                                : Loc{true, entry->nmLoc};
    } else {
        view.home = remap.lookup(flatSector);
    }
    return view;
}

void
Dcmc::checkInvariants() const
{
    // Per-entry placement invariants and NM-location uniqueness.
    u64 entriesInFm = 0;
    std::unordered_set<u64> nmLocsSeen;
    for (u64 set = 0; set < tags.numSets(); ++set) {
        for (u32 w = 0; w < tags.numWays(); ++w) {
            const XtaEntry &e = tags.entryAt(set, w);
            if (!tags.entryValid(e))
                continue;
            u64 flat = tags.flatSectorOf(set, e);
            h2_assert(nmLocsSeen.insert(e.nmLoc).second,
                      "two XTA entries share NM location ", e.nmLoc);
            auto occupant = remap.invLookup(e.nmLoc);
            h2_assert(occupant && *occupant == flat,
                      "inverted remap disagrees with XTA for sector ",
                      flat);
            if (e.inFm) {
                ++entriesInFm;
                h2_assert(alloc.owner(e.nmLoc) ==
                          NmAllocator::Owner::CacheData,
                          "cached FM sector in a non-cache NM location");
                Loc home = remap.lookup(flat);
                h2_assert(!home.inNm && home.idx == e.fmLoc,
                          "remap table disagrees with XTA FM pointer");
                h2_assert(e.validMask != 0, "cached sector with no lines");
            } else {
                h2_assert(alloc.owner(e.nmLoc) == NmAllocator::Owner::Flat,
                          "linked NM sector not owned by the flat space");
                Loc home = remap.lookup(flat);
                h2_assert(home.inNm && home.idx == e.nmLoc,
                          "remap table disagrees with XTA NM pointer");
            }
            h2_assert((e.dirtyMask & ~e.validMask) == 0,
                      "dirty line without a valid line");
        }
    }

    // Conservation: pool + cache-held + free FM slots == cache size.
    h2_assert(alloc.poolSize() + entriesInFm + freeFm.size() ==
              cacheSectors,
              "NM/FM location conservation violated: pool=",
              alloc.poolSize(), " cacheData=", entriesInFm,
              " stack=", freeFm.size(), " cacheSectors=", cacheSectors);
    // The stack depth must match the *lifetime* migration/swap balance:
    // the measured counters (nMigrations/nSwapOuts) restart at every
    // resetStats() while the stack keeps its depth across warm-up.
    h2_assert(lifetimeMigrations >= lifetimeSwapOuts,
              "more swap-outs than migrations ever happened");
    h2_assert(freeFm.size() == lifetimeMigrations - lifetimeSwapOuts,
              "Free-FM-Stack depth diverged from migration/swap counts");
    h2_assert(freeFm.size() <= cacheSectors,
              "Free-FM-Stack exceeded its paper bound");
}

void
Dcmc::resetStats()
{
    // Measured counters restart after warm-up; cache/remap/allocator
    // state (and the LRU clock) deliberately survives the reset.
    mem::HybridMemory::resetStats();
    tags.resetStats();
    bytes = DcmcTraffic{};
    nLineHits = 0;
    nLineMisses = 0;
    nMissSectorNm = 0;
    nMissSectorFm = 0;
    nMigrations = 0;
    nEvictionsToFm = 0;
    nReassignedNm = 0;
    nSwapOuts = 0;
    nDeniedByCounter = 0;
    nDeniedByBudget = 0;
    nMetaSkipped = 0;
    nFreeSwapOuts = 0;
}

void
Dcmc::collectStats(StatSet &out) const
{
    mem::HybridMemory::collectStats(out);
    tags.collectStats(out, "dcmc.xta");
    out.add("dcmc.lineHits", double(nLineHits));
    out.add("dcmc.lineMisses", double(nLineMisses));
    out.add("dcmc.missSectorNm", double(nMissSectorNm));
    out.add("dcmc.missSectorFm", double(nMissSectorFm));
    out.add("dcmc.migrations", double(nMigrations));
    out.add("dcmc.evictionsToFm", double(nEvictionsToFm));
    out.add("dcmc.reassignedNm", double(nReassignedNm));
    out.add("dcmc.swapOuts", double(nSwapOuts));
    out.add("dcmc.deniedByCounter", double(nDeniedByCounter));
    out.add("dcmc.deniedByBudget", double(nDeniedByBudget));
    out.add("dcmc.metaReads", double(metaReads()));
    out.add("dcmc.metaWrites", double(metaWrites()));
    out.add("dcmc.metaSkipped", double(nMetaSkipped));
    out.add("dcmc.freeSwapOuts", double(nFreeSwapOuts));
    out.add("dcmc.bytes.nmDemand", double(bytes.nmDemand));
    out.add("dcmc.bytes.nmMeta", double(bytes.nmMeta));
    out.add("dcmc.bytes.nmMigration", double(bytes.nmMigration));
    out.add("dcmc.bytes.nmSwap", double(bytes.nmSwap));
    out.add("dcmc.bytes.nmWriteback", double(bytes.nmWriteback));
    out.add("dcmc.bytes.fmDemand", double(bytes.fmDemand));
    out.add("dcmc.bytes.fmWriteback", double(bytes.fmWriteback));
    out.add("dcmc.bytes.fmMigration", double(bytes.fmMigration));
    out.add("dcmc.bytes.fmSwap", double(bytes.fmSwap));
}

H2_REGISTER_DESIGN(hybrid2, [] {
    const Hybrid2Params defaults;
    sim::DesignInfo d;
    d.name = "hybrid2";
    d.description =
        "the paper's DRAM Cache Migration Controller (default: best "
        "Table-DSE configuration)";
    d.figure12Order = 5;

    sim::ParamDef cache;
    cache.name = "cache";
    cache.type = sim::ParamDef::Type::U64;
    cache.description = "DRAM-cache slice of NM, MiB";
    cache.defU64 = defaults.cacheBytes / MiB;
    cache.minU64 = 1;
    cache.maxU64 = 1 * MiB; // 1 TiB expressed in MiB

    sim::ParamDef sector;
    sector.name = "sector";
    sector.type = sim::ParamDef::Type::U64;
    sector.description = "migration/tag granularity, bytes";
    sector.defU64 = defaults.sectorBytes;
    sector.minU64 = 64;
    sector.maxU64 = 1 * MiB;
    sector.powerOfTwo = true;

    sim::ParamDef line;
    line.name = "line";
    line.type = sim::ParamDef::Type::U64;
    line.description = "DRAM-cache line (fetch) granularity, bytes";
    line.defU64 = defaults.lineBytes;
    line.minU64 = 64;
    line.maxU64 = 1 * MiB;
    line.powerOfTwo = true;

    sim::ParamDef unused;
    unused.name = "unused";
    unused.type = sim::ParamDef::Type::F64;
    unused.description =
        "percentage of OS-unused sectors (section 3.8 extension)";
    unused.defF64 = defaults.unusedSectorFraction * 100.0;
    unused.minF64 = 0.0;
    unused.maxF64 = 100.0;

    auto makeFlag = [](const char *name, const char *descr) {
        sim::ParamDef f;
        f.name = name;
        f.type = sim::ParamDef::Type::Flag;
        f.description = descr;
        return f;
    };
    d.params = {
        cache, sector, line, unused,
        makeFlag("cacheonly", "cache mode only (Migr-None + No-Remap)"),
        makeFlag("migrall", "migrate every evicted FM sector (Migr-All)"),
        makeFlag("migrnone", "never migrate (Migr-None)"),
        makeFlag("noremap", "remap-structure accesses are free (No-Remap)"),
    };

    d.crossCheck = [](const sim::DesignSpec &spec) -> std::string {
        if (spec.u64Param("line") > spec.u64Param("sector"))
            return detail::concat("line (", spec.u64Param("line"),
                                  ") must not exceed sector (",
                                  spec.u64Param("sector"), ")");
        // The XTA's valid/dirty vectors hold one bit per line.
        if (spec.u64Param("sector") / spec.u64Param("line") > 64)
            return detail::concat(
                "sector (", spec.u64Param("sector"), ") holds ",
                spec.u64Param("sector") / spec.u64Param("line"),
                " lines of line (", spec.u64Param("line"),
                "); at most 64 are supported");
        if (spec.flag("migrall") &&
            (spec.flag("migrnone") || spec.flag("cacheonly")))
            return "migrall conflicts with migrnone/cacheonly";
        return {};
    };

    d.factory = [](const sim::DesignSpec &spec,
                   const mem::MemSystemParams &mp, const mem::LlcView &)
        -> std::unique_ptr<mem::HybridMemory> {
        Hybrid2Params p;
        p.cacheBytes = spec.u64Param("cache") * MiB;
        p.sectorBytes = static_cast<u32>(spec.u64Param("sector"));
        p.lineBytes = static_cast<u32>(spec.u64Param("line"));
        p.unusedSectorFraction = spec.f64Param("unused") / 100.0;
        if (spec.flag("cacheonly")) {
            p.migrateNone = true;
            p.freeRemap = true;
        }
        if (spec.flag("migrall"))
            p.migrateAll = true;
        if (spec.flag("migrnone"))
            p.migrateNone = true;
        if (spec.flag("noremap"))
            p.freeRemap = true;
        return std::make_unique<Dcmc>(mp, p);
    };
    return d;
}())

} // namespace h2::core
