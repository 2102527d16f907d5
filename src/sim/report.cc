#include "sim/report.h"

#include <cstdio>
#include <sstream>

#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/units.h"

namespace h2::sim {

namespace {

void
writeConfigJson(JsonWriter &w, const RunConfig &cfg)
{
    w.beginObject()
        .kv("nm_bytes", cfg.nmBytes)
        .kv("fm_bytes", cfg.fmBytes)
        .kv("instr_per_core", cfg.instrPerCore)
        .kv("warmup_instr_per_core", cfg.warmupInstrPerCore)
        .kv("num_cores", cfg.numCores)
        .kv("seed", cfg.seed)
        .kv("fm", dram::to_string(cfg.fm))
        .kv("run_timeout_ms", cfg.runTimeoutMs)
        .endObject();
}

std::string
renderText(const std::vector<RunRecord> &records)
{
    std::ostringstream os;
    for (const auto &rec : records) {
        const RunOutcome &o = rec.outcome;
        if (!o.ok) {
            os << rec.workload << " on " << rec.design << ": "
               << (o.interrupted ? "INTERRUPTED" : "FAILED") << ": "
               << o.error << "\n\n";
            continue;
        }
        os << o.metrics.toString();
        if (rec.hasSpeedup) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.4f", rec.speedup);
            os << "speedup_vs_baseline: " << buf << "\n";
        }
        os << "\n";
    }
    return os.str();
}

std::string
renderJson(const RunConfig &config, const std::vector<RunRecord> &records)
{
    JsonWriter w;
    w.beginObject().kv("generator", "h2sim");
    w.key("config");
    writeConfigJson(w, config);
    w.key("results").beginArray();
    for (const auto &rec : records) {
        const RunOutcome &o = rec.outcome;
        w.beginObject()
            .kv("workload", rec.workload)
            .kv("design_spec", rec.design)
            .kv("ok", o.ok);
        if (rec.hasSpeedup)
            w.kv("speedup_vs_baseline", rec.speedup);
        if (o.ok) {
            w.key("metrics");
            o.metrics.writeJson(w);
        } else {
            w.kv("error", o.error);
            if (o.interrupted)
                w.kv("interrupted", true);
        }
        w.endObject();
    }
    w.endArray().endObject();
    return w.str() + "\n";
}

std::string
renderCsv(const std::vector<RunRecord> &records)
{
    bool anySpeedup = false;
    bool anyFailed = false;
    for (const auto &rec : records) {
        anySpeedup |= rec.hasSpeedup;
        anyFailed |= !rec.outcome.ok;
    }

    // The metrics' `design` column is the display name, which several
    // specs share (every hybrid2 variant is "HYBRID2"); design_spec is
    // the canonical spec that tells them apart.
    std::ostringstream os;
    os << Metrics::csvHeader() << ",design_spec";
    if (anySpeedup)
        os << ",speedup_vs_baseline";
    // Failure columns appear only in reports that have failures (the
    // same shape rule as the speedup column).
    if (anyFailed)
        os << ",ok,error";
    os << "\n";
    for (const auto &rec : records) {
        const RunOutcome &o = rec.outcome;
        if (o.ok) {
            os << o.metrics.toCsvRow();
        } else {
            // Metric columns of a failed point render as a defaulted
            // row (zeros) so the column count always matches.
            Metrics empty;
            empty.workload = rec.workload;
            empty.design = rec.design;
            os << empty.toCsvRow();
        }
        os << ',' << csvQuote(rec.design);
        if (anySpeedup) {
            os << ',';
            if (rec.hasSpeedup)
                os << JsonWriter::formatDouble(rec.speedup);
        }
        if (anyFailed)
            os << ',' << (o.ok ? "true" : "false") << ','
               << csvQuote(o.error);
        os << "\n";
    }
    return os.str();
}

} // namespace

std::optional<OutputFormat>
parseOutputFormat(std::string_view name)
{
    if (name == "text")
        return OutputFormat::Text;
    if (name == "json")
        return OutputFormat::Json;
    if (name == "csv")
        return OutputFormat::Csv;
    return std::nullopt;
}

std::string
renderReport(const RunConfig &config,
             const std::vector<RunRecord> &records, OutputFormat format)
{
    switch (format) {
    case OutputFormat::Text: return renderText(records);
    case OutputFormat::Json: return renderJson(config, records);
    case OutputFormat::Csv: return renderCsv(records);
    }
    h2_panic("unknown output format");
}

void
writeReport(const std::string &rendered, const std::string &path)
{
    if (path.empty() || path == "-") {
        std::fputs(rendered.c_str(), stdout);
        return;
    }
    // Atomic: a crash mid-write leaves the previous report intact,
    // never a truncated file that looks complete.
    if (std::string err = writeFileAtomic(path, rendered); !err.empty())
        h2_fatal("cannot write '", path, "': ", err);
}

} // namespace h2::sim
