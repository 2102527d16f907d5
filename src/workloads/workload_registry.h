/**
 * @file
 * The 30-workload suite mirroring the paper's Table 2.
 *
 * The paper evaluates 21 SPEC2017 (multi-programmed, 8 instances) and
 * 9 NAS (multi-threaded, 8 threads) benchmarks grouped into high /
 * medium / low MPKI classes. Each entry here is a synthetic stand-in
 * with the same name, class, footprint and a pattern chosen to match
 * the original's qualitative behaviour (streaming, pointer-chasing,
 * hot/cold reuse, ...). DESIGN.md documents the substitution.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/generators.h"
#include "workloads/trace.h"

namespace h2::workloads {

struct TraceData; // workloads/trace_file.h

enum class MpkiClass : u8 { High, Medium, Low };

std::string to_string(MpkiClass cls);

enum class Pattern : u8 {
    Stream,       ///< sequential sweeps (stencils, streaming kernels)
    Stride,       ///< fixed-stride sweeps (grids, multigrid)
    Random,       ///< uniform touches over the whole footprint
    Gather,       ///< streams + random gathers into a shared region
    Zipf,         ///< hot/cold reuse (integer codes)
    PointerChase, ///< dependent chains (graph/tree codes)
};

struct Workload
{
    std::string name;
    MpkiClass cls = MpkiClass::Medium;
    bool multithreaded = false; ///< MT: shared space; MP: 8 instances
    u64 footprintBytes = 0;     ///< total job footprint (paper Table 2)
    double memRatio = 0.1;
    double writeFrac = 0.3;
    Pattern pattern = Pattern::Random;
    u64 patternParam = 0;       ///< stride bytes (Stride pattern)
    u64 hotBytes = 0; ///< hot-region size (Zipf and Gather patterns)
    double hotProbability = 0.9;
    u32 streams = 4;
    u32 accessStride = 8;
    u32 burstLines = 1; ///< spatial burst length of random/cold touches
    u32 mlp = 8;                ///< sustainable outstanding misses/core

    /** Paper-reported MPKI (Table 2), for reference output. */
    double paperMpki = 0.0;

    // ----- non-synthetic workload kinds (workloads/workload_spec.h) --

    /** The spec this workload was resolved from when it differs from
     *  @c name ("trace:<path>" replays keep the captured workload's
     *  name for Metrics identity); see cacheName(). */
    std::string spec;

    /** Captured records to replay instead of a generator. */
    std::shared_ptr<const TraceData> trace;
    u32 traceStreams = 0;      ///< per-core streams in @c trace
    u64 traceVirtualBytes = 0; ///< virtual space @c trace's records use

    /** Components of an interleaved `mix:` workload (empty otherwise);
     *  each gets its own page-aligned virtual-space slice. */
    std::vector<Workload> mixParts;
    u32 mixWeight = 1; ///< records from mixParts[0] per 1 of the others

    /** Key for memoized runners: distinguishes a trace replay from the
     *  synthetic workload it was captured from. */
    const std::string &cacheName() const { return spec.empty() ? name
                                                               : spec; }

    /** Virtual footprint seen by one core's trace. */
    u64 perCoreFootprint(u32 numCores) const;

    /** Total virtual address space the job needs. */
    u64 totalVirtualBytes(u32 numCores) const;

    /** Build core @p core's trace source. */
    std::unique_ptr<TraceSource> makeSource(u32 core, u32 numCores,
                                            u64 seed) const;
};

/** All 30 workloads in Table 2 order (high to low MPKI). */
const std::vector<Workload> &allWorkloads();

/** The ten workloads of one MPKI class. */
std::vector<Workload> workloadsByClass(MpkiClass cls);

/** Lookup by name; nullptr if unknown. */
const Workload *tryFindWorkload(const std::string &name);

/** Lookup by name; fatal if unknown. */
const Workload &findWorkload(const std::string &name);

/** A small representative subset (one per class and suite) used by the
 *  benches' quick mode. */
std::vector<Workload> quickSuite();

} // namespace h2::workloads
