#include "sim/experiment.h"

#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/log.h"
#include "common/parse.h"
#include "common/units.h"
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

std::optional<bool>
parseBool(std::string_view value)
{
    if (value.empty() || value == "on" || value == "true" || value == "1")
        return true;
    if (value == "off" || value == "false" || value == "0")
        return false;
    return std::nullopt;
}

} // namespace

std::optional<ExperimentSpec>
ExperimentSpec::parse(std::string_view text, std::string *error)
{
    auto fail = [&](int lineNo, const std::string &why) {
        if (error)
            *error = detail::concat("experiment file line ", lineNo, ": ",
                                    why);
        return std::nullopt;
    };

    ExperimentSpec spec;
    std::istringstream in{std::string(text)};
    std::string raw;
    int lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        std::string_view line = trimLine(raw);
        if (line.empty())
            continue;
        auto [key, value] = directive(line);

        if (key == "design") {
            DesignSpec::ParseResult r = DesignSpec::parse(value);
            if (!r.ok())
                return fail(lineNo, r.error);
            spec.designs.push_back(r.spec->toString());
        } else if (key == "workload") {
            // Full spec grammar: registry names, trace:<path> (opened
            // and validated now; the path is relative to the working
            // directory), and mix:<a>+<b>[:<n>]. The resolved form is
            // kept so the run never re-reads trace files.
            std::string err;
            auto w = workloads::resolveWorkload(std::string(value), &err);
            if (!w)
                return fail(lineNo, err);
            spec.workloads.emplace_back(value);
            spec.resolvedWorkloads.push_back(*std::move(w));
        } else if (key == "nm-mib") {
            u64 v = 0;
            if (!tryParseU64(value, v))
                return fail(lineNo, detail::concat(
                                        "bad value for nm-mib: '", value,
                                        "' (expected a decimal integer)"));
            spec.config.nmBytes = v * MiB;
        } else if (key == "fm-mib") {
            u64 v = 0;
            if (!tryParseU64(value, v))
                return fail(lineNo, detail::concat(
                                        "bad value for fm-mib: '", value,
                                        "' (expected a decimal integer)"));
            spec.config.fmBytes = v * MiB;
        } else if (key == "instr") {
            if (!tryParseU64(value, spec.config.instrPerCore))
                return fail(lineNo, detail::concat(
                                        "bad value for instr: '", value,
                                        "' (expected a decimal integer)"));
        } else if (key == "warmup") {
            if (!tryParseU64(value, spec.config.warmupInstrPerCore))
                return fail(lineNo, detail::concat(
                                        "bad value for warmup: '", value,
                                        "' (expected a decimal integer)"));
        } else if (key == "cores") {
            u64 v = 0;
            if (!tryParseU64(value, v) || v > ~u32(0))
                return fail(lineNo, detail::concat(
                                        "bad value for cores: '", value,
                                        "'"));
            spec.config.numCores = static_cast<u32>(v);
        } else if (key == "seed") {
            if (!tryParseU64(value, spec.config.seed))
                return fail(lineNo, detail::concat(
                                        "bad value for seed: '", value,
                                        "' (expected a decimal integer)"));
        } else if (key == "queue") {
            auto b = parseBool(value);
            if (!b)
                return fail(lineNo,
                            detail::concat("bad value for queue: '",
                                           value, "' (expected on|off)"));
            spec.config.queue = *b;
        } else if (key == "fm") {
            auto tech = dram::parseFarMemTech(value);
            if (!tech)
                return fail(lineNo,
                            detail::concat("bad value for fm: '", value,
                                           "' (expected dram|pcm)"));
            spec.config.fm = *tech;
        } else if (key == "jobs") {
            u64 v = 0;
            if (!tryParseU64(value, v) || v > ~u32(0))
                return fail(lineNo, detail::concat(
                                        "bad value for jobs: '", value,
                                        "'"));
            spec.jobs = static_cast<u32>(v);
        } else if (key == "speedup") {
            auto b = parseBool(value);
            if (!b)
                return fail(lineNo,
                            detail::concat("bad value for speedup: '",
                                           value, "' (expected on|off)"));
            spec.speedup = *b;
        } else if (key == "run-timeout" || key == "run_timeout") {
            if (!tryParseU64(value, spec.config.runTimeoutMs))
                return fail(lineNo,
                            detail::concat("bad value for run-timeout: '",
                                           value,
                                           "' (expected milliseconds)"));
        } else if (key == "retries") {
            u64 v = 0;
            if (!tryParseU64(value, v) || v > ~u32(0))
                return fail(lineNo, detail::concat(
                                        "bad value for retries: '", value,
                                        "'"));
            spec.config.retries = static_cast<u32>(v);
        } else if (key == "format") {
            if (value != "text" && value != "json" && value != "csv")
                return fail(lineNo,
                            detail::concat("bad value for format: '",
                                           value,
                                           "' (expected text|json|csv)"));
            spec.format = std::string(value);
        } else {
            return fail(lineNo,
                        detail::concat("unknown directive '", key, "'"));
        }
    }

    if (spec.designs.empty())
        return fail(lineNo, "no 'design' directive");
    if (spec.workloads.empty())
        return fail(lineNo, "no 'workload' directive");
    // Directives arrive in any order, so trace stream counts can only
    // be checked against `cores` once the whole file is read.
    for (size_t i = 0; i < spec.resolvedWorkloads.size(); ++i) {
        const workloads::Workload &w = spec.resolvedWorkloads[i];
        if (w.trace && w.traceStreams != spec.config.numCores) {
            if (error)
                *error = detail::concat(
                    "experiment file: trace '", spec.workloads[i],
                    "' was captured with ", w.traceStreams,
                    " streams; set 'cores ", w.traceStreams, "'");
            return std::nullopt;
        }
    }
    if (std::string err = validateRunConfig(spec.config); !err.empty()) {
        if (error)
            *error = detail::concat("experiment file: invalid run config: ",
                                    err);
        return std::nullopt;
    }
    return spec;
}

std::optional<ExperimentSpec>
ExperimentSpec::parseFile(const std::string &path, std::string *error)
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
    return parse(text.str(), error);
}

std::vector<RunRecord>
runExperiment(const ExperimentSpec &spec, u32 jobsOverride)
{
    u32 jobs = jobsOverride ? jobsOverride : spec.jobs;
    // Declared before the runner: workers may append right up to the
    // runner's drain, so the journal must be destroyed after it.
    std::unique_ptr<ResultJournal> journal;
    SweepRunner runner(spec.config, jobs);

    if (!spec.faults.empty())
        runner.setFaultPlan(&spec.faults);
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

    std::vector<workloads::Workload> suite;
    if (spec.resolvedWorkloads.size() == spec.workloads.size()) {
        suite = spec.resolvedWorkloads;
    } else {
        suite.reserve(spec.workloads.size());
        for (const auto &wlSpec : spec.workloads)
            suite.push_back(workloads::resolveWorkloadOrFatal(wlSpec));
    }

    // Submit everything up front so --jobs overlaps the simulations.
    for (const workloads::Workload &w : suite) {
        if (spec.speedup)
            runner.submit(w, "baseline");
        for (const auto &design : spec.designs)
            runner.submit(w, design);
    }

    std::vector<RunRecord> records;
    records.reserve(suite.size() * spec.designs.size());
    for (const workloads::Workload &w : suite) {
        for (const auto &design : spec.designs) {
            RunRecord rec;
            rec.workload = w.name;
            rec.design = design;
            const RunOutcome &o = runner.outcome(w, design);
            rec.ok = o.ok;
            rec.interrupted = o.interrupted;
            rec.error = o.error;
            rec.attempts = o.attempts;
            if (o.ok)
                rec.metrics = o.metrics;
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
