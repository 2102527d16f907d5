/**
 * @file
 * Rendering of completed experiment runs (sim/experiment.h RunRecords)
 * as text, JSON or CSV — the one serialization path shared by h2sim's
 * --format/--out options and the experiment driver.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace h2::sim {

enum class OutputFormat : u8 { Text, Json, Csv };

/** Parse "text"|"json"|"csv"; nullopt otherwise. */
std::optional<OutputFormat> parseOutputFormat(std::string_view name);

/**
 * Render @p records under @p config in @p format. Text is the
 * human-readable Metrics::toString form; JSON is one document with the
 * run configuration and a result array (Metrics::writeJson per run);
 * CSV is Metrics::csvHeader plus a design_spec column (the canonical
 * spec) and one row per run; a speedup column is appended when any
 * record carries one, and ok/error columns when any point failed.
 */
std::string renderReport(const RunConfig &config,
                         const std::vector<RunRecord> &records,
                         OutputFormat format);

/** Write @p rendered to @p path, or to stdout when @p path is empty
 *  or "-"; fatal when the file cannot be written. */
void writeReport(const std::string &rendered, const std::string &path);

} // namespace h2::sim
