/**
 * @file
 * Synthetic access-pattern generators.
 *
 * Each generator models one archetype the paper's benchmark suite spans:
 * streaming sweeps, strided grids, uniform random gathers, hot/cold
 * (Zipf-like) reuse, dependent pointer chases, and phase-changing
 * working sets. Generators are deterministic given a seed and emit
 * instruction gaps tuned so the target memory intensity is met exactly
 * in expectation.
 */

#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "workloads/trace.h"

namespace h2::workloads {

/** Parameters shared by every generator. */
struct GenParams
{
    u64 footprintBytes = 64 * 1024 * 1024;
    double memRatio = 0.25;  ///< memory ops per instruction
    double writeFrac = 0.3;
    u64 seed = 1;
    /** Bytes between successive accesses for sequential patterns;
     *  sub-64 B steps express intra-line spatial locality. */
    u32 accessStride = 8;
    /** Concurrent streams for streaming patterns. */
    u32 streams = 4;
    /** Hot-region size of the Zipf and Gather patterns; they require
     *  it non-zero. */
    u64 hotBytes = 0;
    /** Probability an access goes to the hot region. */
    double hotProbability = 0.9;
    /**
     * Spatial burst length (in 64 B lines) of random/cold accesses:
     * after jumping to a random spot, the generator walks this many
     * consecutive lines before jumping again. Real workloads touch
     * memory in such runs (the paper's Figure 1 shows ~74% of each
     * 4 KB fetched line being used on average); 1 = worst-case
     * single-line touches (deepsjeng/omnetpp-like).
     */
    u32 burstLines = 1;
};

/** Base class handling gap synthesis and read/write mixing. */
class GeneratorBase : public TraceSource
{
  public:
    explicit GeneratorBase(const GenParams &params);

    TraceRecord next() final;

  protected:
    /** Produce the next virtual address. */
    virtual Addr nextAddr() = 0;

    GenParams p;
    Rng rng;

  private:
    /** 1/memRatio - 1, hoisted out of next(): the FP divide is
     *  loop-invariant and the precomputed value is bit-identical to
     *  evaluating it per record. */
    double gapBase = 0.0;
    double gapCarry = 0.0;
};

/** Sequential streams sweeping disjoint partitions of the footprint. */
class StreamGen : public GeneratorBase
{
  public:
    explicit StreamGen(const GenParams &params);

  protected:
    Addr nextAddr() override;

  private:
    std::vector<u64> cursors;
    u64 partitionBytes;
    u32 turn = 0;
};

/** Fixed-stride sweep (grid/stencil-like partial spatial locality). */
class StrideGen : public GeneratorBase
{
  public:
    StrideGen(const GenParams &params, u64 strideBytes);

  protected:
    Addr nextAddr() override;

  private:
    u64 stride;
    u64 cursor = 0;
};

/** Random jumps followed by short sequential bursts (burstLines). */
class RandomGen : public GeneratorBase
{
  public:
    explicit RandomGen(const GenParams &params);

  protected:
    Addr nextAddr() override;

  private:
    Addr cursor = 0;
    u32 remainingInBurst = 0;
};

/**
 * Hot/cold two-level reuse (Zipf-like). The hot region is walked as a
 * resident loop (it models a working set that lives in SRAM, like the
 * low-MPKI SPEC codes); the cold tail is uniform random over the rest.
 */
class ZipfGen : public GeneratorBase
{
  public:
    explicit ZipfGen(const GenParams &params);

  protected:
    Addr nextAddr() override;

  private:
    u64 hotBytes;
    u64 hotCursor = 0;
    Addr coldCursor = 0;
    u32 coldRemaining = 0;
};

/** Dependent pointer chase over a pseudo-random permutation cycle. */
class PointerChaseGen : public GeneratorBase
{
  public:
    explicit PointerChaseGen(const GenParams &params);

  protected:
    Addr nextAddr() override;

  private:
    u64 nodes;
    u64 pos;
    u64 mult;
    u64 inc;
};

/**
 * Sparse-algebra style mix: streaming sweeps over most of the
 * footprint (the matrix) interleaved with random gathers into a shared
 * region at its base (the vector). The gather region gives DRAM-level
 * reuse that caching and migration can both capture.
 */
class GatherGen : public GeneratorBase
{
  public:
    explicit GatherGen(const GenParams &params);

  protected:
    Addr nextAddr() override;

  private:
    u64 regionBytes;     ///< gather region at the footprint base
    u64 streamSpan;      ///< footprint minus the gather region
    std::vector<u64> cursors;
    u64 partitionBytes;
    u32 turn = 0;
};

/**
 * Deterministic weighted interleave of component sources, each offset
 * into its own slice of a shared virtual space - the per-stream engine
 * behind `mix:` workload specs (workloads/workload_spec.h). Records
 * pass through unchanged except for the address offset, so each
 * component keeps its own instruction gaps and read/write mix.
 */
class MixSource final : public TraceSource
{
  public:
    /** @param weights records taken from part @c i per scheduling
     *  round; all vectors must have equal, non-zero length. */
    MixSource(std::vector<std::unique_ptr<TraceSource>> parts,
              std::vector<Addr> offsets, std::vector<u32> weights);

    TraceRecord next() override;

  private:
    std::vector<std::unique_ptr<TraceSource>> parts;
    std::vector<Addr> offsets;
    std::vector<u32> weights;
    u32 turn = 0;
    u32 leftInTurn;
};

} // namespace h2::workloads
