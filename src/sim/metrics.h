/**
 * @file
 * Per-run metrics extracted for the paper's evaluation figures.
 */

#pragma once

#include <optional>
#include <string>

#include "common/json.h"
#include "common/stats.h"
#include "common/types.h"

namespace h2::sim {

struct Metrics
{
    std::string workload;
    std::string design;

    u64 instructions = 0;
    Tick timePs = 0;
    u64 cycles = 0;
    double ipc = 0.0;

    u64 memAccesses = 0;   ///< core-side loads+stores
    u64 llcMisses = 0;
    double mpki = 0.0;

    u64 memRequests = 0;   ///< 64 B fills + writebacks at the controller
    double servedFromNm = 0.0;

    u64 nmTrafficBytes = 0;
    u64 fmTrafficBytes = 0;
    double dynamicEnergyPj = 0.0;

    u64 flatCapacityBytes = 0;
    u64 footprintBytes = 0;

    StatSet detail;

    std::string toString() const;

    /** This run as a standalone JSON object (includes `detail`). */
    std::string toJson() const;

    /** Emit this run as one JSON object into an ongoing document
     *  (shared serializer behind h2sim --format json and the benches). */
    void writeJson(JsonWriter &w) const;

    /**
     * Rebuild a Metrics from a parsed writeJson() object (the result
     * journal's resume path). Missing keys keep their defaults, so old
     * journals stay loadable; a non-object or a type mismatch yields
     * nullopt with @p error set. writeJson emits doubles in shortest
     * round-trip form, so load(save(m)) == m field-exactly.
     */
    static std::optional<Metrics> fromJson(const JsonValue &v,
                                           std::string *error);

    /** Column names of toCsvRow(), comma-joined. */
    static std::string csvHeader();

    /** Scalar fields (no `detail`) as one CSV row, matching csvHeader(). */
    std::string toCsvRow() const;

    /** Field-exact equality (doubles compared bit-for-bit); the sweep
     *  engine's determinism tests and bench_wallclock rely on it. */
    bool operator==(const Metrics &) const = default;
};

/** RFC 4180 quoting: wrap in quotes, double any embedded quote. */
std::string csvQuote(const std::string &field);

} // namespace h2::sim
