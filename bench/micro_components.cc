/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * XTA lookups, remap-table lookups, DRAM-device and memory-controller
 * accesses, SRAM cache, DRAM-cache tag store and hierarchy operations,
 * and trace generation throughput.
 */

#include <benchmark/benchmark.h>

#include "baselines/mea.h"
#include "cache/cache_hierarchy.h"
#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "core/remap_table.h"
#include "core/xta.h"
#include "dram/dram_device.h"
#include "mem/mem_controller.h"
#include "workloads/workload_registry.h"

namespace {

using namespace h2;

void
BM_XtaLookup(benchmark::State &state)
{
    core::Xta xta(32768, 16, 8);
    for (u64 s = 0; s < 32768; ++s)
        xta.fill(s, *xta.victimWay(s));
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(xta.find(rng.below(65536)));
}
BENCHMARK(BM_XtaLookup);

void
BM_RemapLookup(benchmark::State &state)
{
    core::RemapTable t(1 << 23, 1 << 19, 1 << 15, (1 << 23) - (1 << 19));
    Rng rng(2);
    for (u64 i = 0; i < 100000; ++i)
        t.update(rng.below(1 << 23), core::Loc{false, rng.below(1 << 20)});
    for (auto _ : state)
        benchmark::DoNotOptimize(t.lookup(rng.below(1 << 23)));
}
BENCHMARK(BM_RemapLookup);

void
BM_DramAccess(benchmark::State &state)
{
    dram::DramDevice dev(dram::DramParams::hbm2(1 * GiB));
    Rng rng(3);
    Tick now = 0;
    for (auto _ : state) {
        now += 1000;
        benchmark::DoNotOptimize(
            dev.access(rng.below(GiB / 64) * 64, 64, AccessType::Read,
                       now));
    }
}
BENCHMARK(BM_DramAccess);

/** A demand read of range(0) bytes through MemController::access, one
 *  posted 64 B write per read, so the split, the idle drain, the
 *  FR-FCFS pick and forced drains run as on a design's path: 64 B is
 *  a demand line, 4096 tagless's page fetch (8 chunks per DDR4
 *  channel). Reads arrive slower than the bus drains them, so the
 *  in-flight lists stay bounded. Ungated. */
void
BM_ControllerAccess(benchmark::State &state)
{
    mem::MemController ctrl(dram::DramParams::ddr4_3200(1 * GiB));
    const u32 bytes = static_cast<u32>(state.range(0));
    Rng rng(10);
    Tick now = 0;
    for (auto _ : state) {
        now += 20'000 + 25 * Tick(bytes);
        ctrl.post(rng.below(GiB / 64) * 64, 64, now);
        benchmark::DoNotOptimize(ctrl.access(
            rng.below(GiB / bytes) * bytes, bytes, AccessType::Read, now));
    }
}
BENCHMARK(BM_ControllerAccess)->Arg(64)->Arg(4096);

void
BM_SramCacheAccess(benchmark::State &state)
{
    cache::CacheParams p{"bench", 8 * MiB, 16, 64};
    cache::SetAssocCache c(p);
    Rng rng(4);
    for (auto _ : state) {
        Addr a = rng.below(32 * MiB / 64) * 64;
        if (!c.access(a, AccessType::Read))
            c.insert(a, false);
    }
}
BENCHMARK(BM_SramCacheAccess);

/** The DRAM-cache tag store on IdealCache's path (ideal, DFC, tagless):
 *  1 GiB of NM in 1 KiB lines (65,536 16-way sets on sparse storage),
 *  random lines over 16 GiB, access then insert on a miss as
 *  IdealCache::serve does. Ungated. */
void
BM_DramCacheTagAccess(benchmark::State &state)
{
    cache::CacheParams p{"dramCacheTags", 1 * GiB, 16, 1024};
    cache::SparseSetAssocCache c(p);
    Rng rng(11);
    for (auto _ : state) {
        Addr a = rng.below(16 * GiB / 1024) * 1024;
        if (!c.access(a, AccessType::Read))
            c.insert(a, false);
    }
}
BENCHMARK(BM_DramCacheTagAccess);

/** The hierarchy on h2-xalanc-low's shape: 8 cores, each reading and
 *  writing a random 192 KiB working set, so most accesses miss the
 *  64 KiB L1, hit the 256 KiB L2 and fill L1, whose victim falls into
 *  L2. Ungated: it tracks the fill path, not a CI reference. */
void
BM_HierarchyAccess(benchmark::State &state)
{
    cache::CacheHierarchy h(cache::HierarchyParams{});
    const u64 lines = 192 * KiB / 64;
    const u32 cores = h.params().numCores;
    Rng rng(8);
    CoreId core = 0;
    for (auto _ : state) {
        Addr a = (u64(core) * lines + rng.below(lines)) * 64;
        AccessType t =
            rng.below(4) == 0 ? AccessType::Write : AccessType::Read;
        benchmark::DoNotOptimize(h.access(core, a, t));
        core = core + 1 == cores ? 0 : core + 1;
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_MeaTouch(benchmark::State &state)
{
    baselines::Mea mea(64);
    Rng rng(5);
    for (auto _ : state)
        mea.touch(rng.below(4096));
}
BENCHMARK(BM_MeaTouch);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &w = workloads::findWorkload("cg.D");
    auto src = w.makeSource(0, 8, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(src->next());
}
BENCHMARK(BM_TraceGeneration);

void
BM_DcmcAccess(benchmark::State &state)
{
    mem::MemSystemParams mp;
    mp.nmBytes = 64 * MiB;
    mp.fmBytes = 256 * MiB;
    core::Hybrid2Params hp;
    hp.cacheBytes = 4 * MiB;
    core::Dcmc d(mp, hp);
    Rng rng(6);
    Tick now = 0;
    u64 flat = d.flatCapacity();
    for (auto _ : state) {
        now += 2000;
        benchmark::DoNotOptimize(
            d.access(rng.below(flat / 64) * 64, AccessType::Read, now));
    }
}
BENCHMARK(BM_DcmcAccess);

void
BM_PagePermutation(benchmark::State &state)
{
    RandomPermutation perm(1 << 22, 9);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(perm.map(rng.below(1 << 22)));
}
BENCHMARK(BM_PagePermutation);

} // namespace

BENCHMARK_MAIN();
