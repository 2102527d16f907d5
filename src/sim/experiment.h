/**
 * @file
 * Declarative experiment files and the scenario settings behind them:
 * one file describes a whole sweep (designs x workloads x RunConfig
 * overrides), driven through the parallel SweepRunner and rendered by
 * sim/report.h.
 *
 * File format — one `key value` (or `key=value`) directive per line,
 * `#` starts a comment:
 *
 *   # quick design comparison
 *   design   dfc
 *   design   hybrid2:cache=64
 *   workload lbm
 *   workload mcf
 *   cores    2
 *   speedup  on
 *
 * The keys are the settings() table below, the same table h2sim maps
 * its `--<key> <value>` flags onto; `h2sim --help` renders it, so that
 * help text is the list of directives. Design specs are validated
 * against the design registry as they are read, workload specs against
 * the full workload grammar (registry names, `trace:<path>` with the
 * path taken relative to the working directory, and
 * `mix:<a>+<b>[:<n>]` — see workloads/workload_spec.h), and the
 * finished spec against validateExperiment() — a bad file is reported
 * with its line number before anything runs.
 */

#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.h"
#include "workloads/workload_registry.h"

namespace h2::sim {

struct Setting;

/** A setting given outside the file (an h2sim flag) and its value. */
struct SettingValue
{
    const Setting *setting;
    std::string value;
};

/** A parsed, validated experiment description. */
struct ExperimentSpec
{
    RunConfig config;
    std::vector<std::string> designs;         ///< canonical spec forms
    std::vector<workloads::Workload> workloads; ///< resolved, in order
    bool speedup = false;
    u32 jobs = 1;       ///< parallel simulations (0 = all cores)
    std::string format; ///< "" = caller's default; else text|json|csv

    /** Result journal path (h2sim --journal); "" = no journal. */
    std::string journalPath;
    /** Seed the sweep from the journal before running (--resume). */
    bool resume = false;

    /** Parse @p text, then apply @p overrides (command-line settings,
     *  which win over the file) and validateExperiment(); on error
     *  returns nullopt and sets @p error to a message naming the
     *  offending line or setting. */
    static std::optional<ExperimentSpec>
    parse(std::string_view text, std::string *error,
          std::span<const SettingValue> overrides = {});

    /** Read and parse @p path; nullopt + @p error on any failure. */
    static std::optional<ExperimentSpec>
    parseFile(const std::string &path, std::string *error,
              std::span<const SettingValue> overrides = {});
};

/**
 * One scenario setting: @c key is both the experiment-file directive
 * and the h2sim flag `--<key>`.
 */
struct Setting
{
    std::string_view key;
    std::string_view syntax; ///< value syntax for the help, e.g. "<n>"
    std::string_view help;   ///< help text, default in brackets
    /** On/off setting: with no value it means "on" (`--speedup`). */
    bool boolean;
    /** Each use appends (design, workload) instead of overriding. */
    bool repeatable;
    /** Write @p value into @p spec; "" on success, else an error that
     *  names @p key (this entry's key). */
    std::string (*apply)(std::string_view key, std::string_view value,
                         ExperimentSpec &spec);
};

/** Every setting, in help order. */
std::span<const Setting> settings();

/** The setting named @p key; nullptr when there is none. */
const Setting *findSetting(std::string_view key);

/** The settings block of `h2sim --help`, rendered from settings(). */
std::string settingsHelp();

/**
 * The checks that need the finished spec, shared by every entry point
 * (experiment file, h2sim flags, `--dump-trace`): each trace workload's
 * stream count must equal `cores`, and the RunConfig must pass
 * validateRunConfig. Returns "" when valid, otherwise the reason.
 */
std::string validateExperiment(const ExperimentSpec &spec);

/** One completed (workload, design) point of an experiment. */
struct RunRecord
{
    std::string workload;
    std::string design; ///< canonical design spec
    RunOutcome outcome;
    bool hasSpeedup = false;
    double speedup = 0.0; ///< over the FM-only baseline, when requested
};

/**
 * Run the full sweep of @p spec (cross product, plus the baseline per
 * workload when speedups were requested) on @p spec.jobs workers and
 * return the records in workload-major, design-minor file order.
 *
 * Fault tolerance: a failed point yields a record whose outcome has
 * ok=false and the captured error — the sweep always completes and
 * every point gets a record. With a journalPath, completed outcomes are appended
 * durably as they finish; with resume, journaled outcomes are seeded
 * first and only missing points simulate. h2_fatal (capturable) on an
 * unopenable or corrupt journal.
 */
std::vector<RunRecord> runExperiment(const ExperimentSpec &spec);

} // namespace h2::sim
