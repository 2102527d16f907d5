/**
 * @file
 * The benchmark's traced simulation replay.
 *
 * runTraced() simulates one (workload, design) point the way
 * sim::simulateOne() does, but drives the per-access calls itself —
 * TraceSource::next, AddressMap::toPhysical, CacheHierarchy::access and
 * HybridMemory::access, in System's earliest-core order with
 * CoreModel::step's arithmetic — so it can time each call from outside
 * the simulator. Nothing under src/ is instrumented.
 *
 * Every stride-th step is sampled: the step and each layer call inside
 * it are recorded as spans (parent = the step's span). Construction and
 * HybridMemory::drainQueues are always recorded. Spans stay in memory
 * until the run ends. The host time of MemController and DramDevice is
 * inside HybridMemory::access, so it shows up as design time.
 *
 * The simulated results must equal simulateOne()'s exactly; the
 * benchmark checks that on every traced run.
 */

#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.h"

namespace h2perf {

/** Layers a traced access crosses, named after the simulator modules. */
enum class Layer : h2::u8 {
    Setup,     ///< System-equivalent construction
    Core,      ///< one scheduler pick plus one CoreModel-equivalent step
    Workloads, ///< TraceSource::next
    Addrmap,   ///< AddressMap::toPhysical
    Cache,     ///< CacheHierarchy::access
    Design,    ///< HybridMemory::access (includes mem + dram host time)
    Drain,     ///< HybridMemory::drainQueues
};
inline constexpr size_t kLayerCount = 7;

inline constexpr h2::u32 kNoParent = ~h2::u32(0);

/** One recorded span, in host nanoseconds since the run started. */
struct Span
{
    Layer layer;
    h2::u32 parent; ///< index of the enclosing span, or kNoParent
    h2::u64 startNs;
    h2::u64 endNs;
};

/** Span count and summed self time (duration minus the time covered
 *  by child spans) per layer. */
struct LayerTimes
{
    std::array<h2::u64, kLayerCount> calls{};
    std::array<double, kLayerCount> selfNs{};

    void merge(const LayerTimes &other);
    /** Mean self time per span of @p layer in ns (0 without spans). */
    double meanNs(Layer layer) const;
};

/**
 * Self time per layer: a span's duration minus its children's, less
 * the clock reads inside it. Every timed interval carries the cost of
 * one read, and a span with k children is cut into k + 1 intervals of
 * its own, so k + 1 reads are taken out (one for a leaf).
 */
LayerTimes selfTimes(const std::vector<Span> &spans,
                     double clockReadNs = 0);

/**
 * Exact per-layer statistics read from the simulator's public
 * accessors after a run. Ratios keep numerator and denominator so the
 * statistics of several runs merge exactly.
 */
struct LayerStats
{
    std::map<std::string, double> counts;
    std::map<std::string, std::pair<double, double>> ratios;

    void merge(const LayerStats &other);
    /** Counts, and each ratio's quotient (0 over an empty denominator). */
    std::map<std::string, double> values() const;
};

struct TracedRun
{
    h2::sim::Metrics metrics; ///< what simulateOne() would return
    LayerStats stats;
    std::vector<Span> spans;
    double clockReadNs = 0; ///< measured cost of one clock read
    double seconds = 0; ///< host time from construction to metrics
};

/** Simulate @p designSpec on @p workload under @p cfg, recording the
 *  spans of every @p stride-th step (stride >= 1). */
TracedRun runTraced(const h2::sim::RunConfig &cfg,
                    const h2::workloads::Workload &workload,
                    const std::string &designSpec, h2::u32 stride);

/** Names of the Metrics fields the traced/untraced cross-check covers
 *  that differ between @p a and @p b (empty when they agree, including
 *  every Metrics.detail entry). */
std::vector<std::string> metricsMismatch(const h2::sim::Metrics &a,
                                         const h2::sim::Metrics &b);

} // namespace h2perf
