#include "sim/experiment.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "common/log.h"
#include "common/parse.h"
#include "common/units.h"
#include "sim/report.h"
#include "sim/result_journal.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"
#include "workloads/workload_spec.h"

namespace h2::sim {

namespace {

/** Strip `#` comments and surrounding whitespace. */
std::string_view
trimLine(std::string_view line)
{
    auto hash = line.find('#');
    if (hash != std::string_view::npos)
        line = line.substr(0, hash);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.front())))
        line.remove_prefix(1);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back())))
        line.remove_suffix(1);
    return line;
}

/** Split a directive into (key, value) on '=' or first whitespace run. */
std::pair<std::string_view, std::string_view>
directive(std::string_view line)
{
    auto sep = line.find_first_of("= \t");
    if (sep == std::string_view::npos)
        return {line, {}};
    std::string_view key = line.substr(0, sep);
    std::string_view value = line.substr(sep + 1);
    while (!value.empty() &&
           (value.front() == '=' ||
            std::isspace(static_cast<unsigned char>(value.front()))))
        value.remove_prefix(1);
    return {key, value};
}

std::string
badValue(std::string_view key, std::string_view value, std::string_view why)
{
    return detail::concat("bad value for ", key, ": '", value, "' (", why,
                          ")");
}

/** Parse a decimal integer into @p out, scaled by @p unit; rejects
 *  values whose scaled form does not fit @p T. */
template <typename T>
std::string
parseCount(std::string_view key, std::string_view value, T &out,
           u64 unit = 1)
{
    const u64 max = u64(std::numeric_limits<T>::max()) / unit;
    u64 v = 0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, v, 10);
    if (ptr != end || ec == std::errc::invalid_argument)
        return badValue(key, value, "expected a decimal integer");
    if (ec == std::errc::result_out_of_range || v > max)
        return badValue(key, value, detail::concat("at most ", max));
    out = static_cast<T>(v * unit);
    return {};
}

std::string
parseBool(std::string_view key, std::string_view value, bool &out)
{
    if (value.empty() || value == "on" || value == "true" || value == "1")
        out = true;
    else if (value == "off" || value == "false" || value == "0")
        out = false;
    else
        return badValue(key, value, "expected on|off");
    return {};
}

using Spec = ExperimentSpec;
using Key = std::string_view;
using Value = std::string_view;

const Setting kSettings[] = {
    {"design", "<spec>", "design spec; see the grammar below", false, true,
     [](Key, Value v, Spec &s) -> std::string {
         DesignSpec::ParseResult r = DesignSpec::parse(v);
         if (!r.ok())
             return r.error;
         s.designs.push_back(r.spec->toString());
         return {};
     }},
    {"workload", "<spec>",
     "workload spec: a Table 2 name (--list-workloads), trace:<path>, "
     "or mix:<a>+<b>[+...][:<n>]",
     false, true,
     [](Key, Value v, Spec &s) {
         // Trace files are opened and validated now, and the resolved
         // form kept, so the run never re-reads them.
         std::string err;
         auto w = workloads::resolveWorkload(std::string(v), &err);
         if (w)
             s.workloads.push_back(*std::move(w));
         return err;
     }},
    {"nm-mib", "<n>", "near-memory (HBM) capacity in MiB [1024]", false,
     false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.nmBytes, MiB);
     }},
    {"fm-mib", "<n>", "far-memory capacity in MiB [16384]", false, false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.fmBytes, MiB);
     }},
    {"cores", "<n>", "number of cores [8]", false, false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.numCores);
     }},
    {"instr", "<n>", "simulated instructions per core [1500000]", false,
     false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.instrPerCore);
     }},
    {"warmup", "<n>", "warm-up instructions per core [0]", false, false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.warmupInstrPerCore);
     }},
    {"seed", "<n>", "trace-generation seed [42]", false, false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.seed);
     }},
    {"queue", "[on|off]",
     "queued memory-controller model (FR-FCFS write queues with drain "
     "watermarks); off restores the analytic immediate-dispatch model "
     "[on]",
     true, false,
     [](Key k, Value v, Spec &s) {
         return parseBool(k, v, s.config.queue);
     }},
    {"fm", "<dram|pcm>",
     "far-memory technology: DDR4 DRAM, or a PCM-like NVM with "
     "asymmetric read/write latency and energy plus per-bank wear stats "
     "[dram]",
     false, false,
     [](Key k, Value v, Spec &s) -> std::string {
         auto tech = dram::parseFarMemTech(v);
         if (!tech)
             return badValue(k, v, "expected dram|pcm");
         s.config.fm = *tech;
         return {};
     }},
    {"jobs", "<n>", "parallel simulations; 0 = all hardware threads [1]",
     false, false,
     [](Key k, Value v, Spec &s) { return parseCount(k, v, s.jobs); }},
    {"speedup", "[on|off]",
     "also report speedup over the FM-only baseline [off]", true, false,
     [](Key k, Value v, Spec &s) { return parseBool(k, v, s.speedup); }},
    {"run-timeout", "<ms>",
     "per-run wall-clock watchdog; a run past the deadline fails its "
     "sweep point [0 = off]",
     false, false,
     [](Key k, Value v, Spec &s) {
         return parseCount(k, v, s.config.runTimeoutMs);
     }},
    {"format", "<text|json|csv>", "output format [text]", false, false,
     [](Key k, Value v, Spec &s) -> std::string {
         if (!parseOutputFormat(v))
             return badValue(k, v, "expected text|json|csv");
         s.format = std::string(v);
         return {};
     }},
};

/** Column of the help text, and the width it wraps at. */
constexpr size_t kHelpColumn = 23;
constexpr size_t kHelpWidth = 72;

} // namespace

std::span<const Setting>
settings()
{
    return kSettings;
}

const Setting *
findSetting(std::string_view key)
{
    for (const Setting &s : kSettings)
        if (s.key == key)
            return &s;
    return nullptr;
}

std::string
settingsHelp()
{
    std::string out;
    for (const Setting &s : kSettings) {
        std::string line = detail::concat("  --", s.key, " ", s.syntax);
        line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
        size_t textStart = line.size();
        std::string help(s.help);
        if (s.repeatable)
            help += " (repeatable)";
        for (std::string_view word : splitOn(help, ' ')) {
            if (line.size() > textStart &&
                line.size() + 1 + word.size() > kHelpWidth) {
                out += line + "\n";
                line.assign(kHelpColumn, ' ');
                textStart = kHelpColumn;
            }
            if (line.size() > textStart)
                line += ' ';
            line += word;
        }
        out += line + "\n";
    }
    return out;
}

std::string
validateExperiment(const ExperimentSpec &spec)
{
    for (const workloads::Workload &w : spec.workloads)
        if (w.trace && w.traceStreams != spec.config.numCores)
            return detail::concat("trace '", w.cacheName(),
                                  "' was captured with ", w.traceStreams,
                                  " streams but cores is ",
                                  spec.config.numCores, "; set cores to ",
                                  w.traceStreams);
    if (std::string err = validateRunConfig(spec.config); !err.empty())
        return "invalid run config: " + err;
    return {};
}

std::optional<ExperimentSpec>
ExperimentSpec::parse(std::string_view text, std::string *error,
                      std::span<const SettingValue> overrides)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    ExperimentSpec spec;
    std::istringstream in{std::string(text)};
    std::string raw;
    int lineNo = 0;
    auto lineError = [&](std::string_view why) {
        return detail::concat("experiment file line ", lineNo, ": ", why);
    };
    while (std::getline(in, raw)) {
        ++lineNo;
        std::string_view line = trimLine(raw);
        if (line.empty())
            continue;
        auto [key, value] = directive(line);
        const Setting *s = findSetting(key);
        if (!s)
            return fail(lineError(
                detail::concat("unknown directive '", key, "'")));
        if (std::string err = s->apply(key, value, spec); !err.empty())
            return fail(lineError(err));
    }

    if (spec.designs.empty())
        return fail(lineError("no 'design' directive"));
    if (spec.workloads.empty())
        return fail(lineError("no 'workload' directive"));
    // Command-line settings win over the file's.
    for (const SettingValue &o : overrides)
        if (std::string err = o.setting->apply(o.setting->key, o.value,
                                               spec);
            !err.empty())
            return fail(err);
    // Directives arrive in any order, so the cross-setting checks wait
    // for the finished spec.
    if (std::string err = validateExperiment(spec); !err.empty())
        return fail("experiment file: " + err);
    return spec;
}

std::optional<ExperimentSpec>
ExperimentSpec::parseFile(const std::string &path, std::string *error,
                          std::span<const SettingValue> overrides)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = detail::concat("cannot read experiment file '", path,
                                    "'");
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), error, overrides);
}

std::vector<RunRecord>
runExperiment(const ExperimentSpec &spec)
{
    // Declared before the runner: workers may append right up to the
    // runner's drain, so the journal must be destroyed after it.
    std::unique_ptr<ResultJournal> journal;
    SweepRunner runner(spec.config, spec.jobs);

    if (!spec.journalPath.empty()) {
        if (spec.resume) {
            std::string err;
            auto recorded = ResultJournal::load(spec.journalPath, &err);
            if (!recorded)
                h2_fatal(err);
            for (const auto &[k, outcome] : *recorded)
                runner.seed(k, outcome);
            if (!recorded->empty())
                h2_inform("resuming from '", spec.journalPath, "': ",
                          recorded->size(),
                          " journaled point(s) skipped");
        }
        journal =
            std::make_unique<ResultJournal>(spec.journalPath);
        runner.setJournal(journal.get());
    }

    // Submit everything up front so --jobs overlaps the simulations.
    for (const workloads::Workload &w : spec.workloads) {
        if (spec.speedup)
            runner.submit(w, "baseline");
        for (const auto &design : spec.designs)
            runner.submit(w, design);
    }

    std::vector<RunRecord> records;
    records.reserve(spec.workloads.size() * spec.designs.size());
    for (const workloads::Workload &w : spec.workloads) {
        for (const auto &design : spec.designs) {
            RunRecord rec{w.name, design, runner.outcome(w, design)};
            const RunOutcome &o = rec.outcome;
            if (spec.speedup && o.ok) {
                const RunOutcome &base = runner.outcome(w, "baseline");
                if (base.ok && o.metrics.timePs > 0) {
                    rec.hasSpeedup = true;
                    rec.speedup = double(base.metrics.timePs) /
                                  double(o.metrics.timePs);
                }
            }
            records.push_back(std::move(rec));
        }
    }
    return records;
}

} // namespace h2::sim
