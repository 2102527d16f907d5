/**
 * @file
 * System configuration presets (paper Table 1).
 */

#pragma once

#include <string>

#include "cache/cache_hierarchy.h"
#include "mem/hybrid_memory.h"

namespace h2::sim {

/** Interval core model parameters (8-core OoO per Table 1). */
struct CoreParams
{
    u32 issueWidth = 4;
    u32 robInstrs = 192;      ///< run-ahead window past the oldest miss
    u32 maxOutstanding = 8;   ///< MSHR-limited memory-level parallelism
    Tick periodPs = 313;      ///< 3.2 GHz, rounded to the ps grid
};

/** Everything needed to instantiate one simulated system. */
struct SystemConfig
{
    u32 numCores = 8;
    cache::HierarchyParams hier;
    CoreParams core;
    mem::MemSystemParams mem;
    u64 instrPerCore = 2'000'000;
    /** Instructions per core run before statistics start (caches and
     *  remap state warm up; all counters then reset). */
    u64 warmupInstrPerCore = 0;
    u64 seed = 42;
    /** Wall-clock watchdog for one run in milliseconds; 0 disables.
     *  System::run polls cooperatively in its stepping loop and throws
     *  SimTimeoutError past the deadline, so a runaway simulation can
     *  be cancelled without killing the sweep. */
    u64 runTimeoutMs = 0;
};

/** The paper's Table 1 configuration with @p nmBytes of near memory. */
SystemConfig table1Config(u64 nmBytes, u64 fmBytes = 16ull << 30);

/**
 * Sanity-check @p cfg; returns "" when valid, otherwise an actionable
 * reason. System's constructor rejects invalid configurations with
 * h2_fatal instead of running into downstream UB.
 */
std::string validateSystemConfig(const SystemConfig &cfg);

/** Human-readable rendering of a configuration (Table 1 bench). */
std::string describeConfig(const SystemConfig &cfg);

} // namespace h2::sim
