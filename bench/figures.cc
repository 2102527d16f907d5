/**
 * @file
 * The paper's evaluation (Figures 1, 2, 11-18; Tables 1-2) as one
 * table, figureTable(), and one runner:
 *
 *   figures <id>... | all [--mode=quick|full] [--csv] [--workload=SPEC]
 *                         [--instr=N] [--jobs=N] [--out=PATH]
 *
 * All chosen entries share one SweepRunner per scenario (NM size, FM
 * technology), so each (scenario, workload, design) point simulates
 * once. --out writes every cell, measured and paper, as one JSON
 * document (README "Reproducing the figures"). Exit status: 2 on a
 * usage error or a suite a scenario cannot run; 1 when a point fails.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/io.h"
#include "common/json.h"
#include "common/log.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "core/xta.h"
#include "sim/experiment.h"
#include "sim/sim_config.h"

namespace h2::bench {

namespace {

using workloads::Workload;
using Suite = std::vector<Workload>;

/** One (workload, design) point of a scenario's sweep. */
struct Point
{
    sim::SweepRunner &runner;
    const Workload &w;
    const std::string &spec;

    const sim::Metrics &design() const { return runner.run(w, spec); }
    const sim::Metrics &base() const { return runner.run(w, "baseline"); }
};

using Metric = double (*)(const Point &p);

/** How a design row folds its per-workload values into one cell. */
enum class Stat { High, Medium, Low, All, Mean, Min, Max, Geomean };

struct Column
{
    std::string header;
    Stat stat;
};

std::vector<Column>
classColumns(const std::string &suffix)
{
    return {{"High" + suffix, Stat::High}, {"Medium" + suffix, Stat::Medium},
            {"Low" + suffix, Stat::Low}, {"All" + suffix, Stat::All}};
}

/** A suite-wide aggregate printed after the Stat columns. */
struct Extra
{
    std::string header;
    double (*value)(const std::vector<Point> &suite);
    int decimals;
};

struct Row
{
    std::string spec{};
    std::optional<double> paper{};
    std::vector<std::string> labels{}; ///< empty: the spec
    Metric metric = nullptr;           ///< overrides the figure's metric

    std::vector<std::string>
    labelsOrSpec() const
    {
        return labels.empty() ? std::vector{spec} : labels;
    }
};

struct Section
{
    u64 nmGib = 1;
    dram::FarMemTech fm = dram::FarMemTech::Dram;
    std::string heading{}; ///< printed above the table in text mode
    std::vector<Row> rows{};
    std::vector<Extra> extras{};
};

enum class Shape
{
    PerDesign,   ///< a row per Row, a cell per Column folded over the suite
    PerWorkload, ///< a row per workload, a cell per Row's metric
    Config,      ///< each section prints the Table 1 configuration
};

/** An entry; the defaults are the lineup's per-class geomeans. */
struct Figure
{
    std::string id{};
    std::string title{}; ///< "<paper artifact>: <caption>"
    Shape shape = Shape::PerDesign;
    Metric metric = nullptr;
    std::vector<std::string> labelColumns = {"Design"};
    std::vector<Column> columns = classColumns("");
    std::string paperColumn = "All(paper)";
    int decimals = 2;
    int paperDecimals = 2;
    double scale = 1.0; ///< multiplies folded cells (Figure 15's %)
    std::vector<Section> sections{};
    std::string footer{}; ///< printed after the sections in text mode
};

// The table -------------------------------------------------------------

double
speedup(const Point &p)
{
    return p.runner.speedup(p.w, p.spec);
}

/** @p bytes over the baseline's traffic, clamped so the geomean is defined. */
double
normalizedTraffic(double bytes, const Point &p)
{
    return std::max(bytes / double(p.base().fmTrafficBytes), 1e-3);
}

double
sumDetail(const std::vector<Point> &suite, const char *key)
{
    double sum = 0.0;
    for (const Point &p : suite)
        sum += p.design().detail.get(key);
    return sum;
}

double
fmWrittenMib(const std::vector<Point> &suite)
{
    return sumDetail(suite, "fm.bytesWritten") / double(MiB);
}

double
fmWriteReadEnergy(const std::vector<Point> &suite)
{
    return ratioOrZero(sumDetail(suite, "fm.writeEnergyPj"),
                       sumDetail(suite, "fm.readEnergyPj"));
}

/** The worst per-bank wear imbalance over the suite. */
double
maxWearDeltaKib(const std::vector<Point> &suite)
{
    double worst = 0.0;
    for (const Point &p : suite)
        worst = std::max(worst, p.design().detail.get("fm.maxBankWearDelta"));
    return worst / double(KiB);
}

/** The Figure 12-18 lineup, a row per design, with the paper's value
 *  where @p paper quotes one. */
std::vector<Row>
lineup(const std::map<std::string, double> &paper = {})
{
    std::vector<Row> rows;
    for (const std::string &spec : sim::evaluatedDesigns()) {
        rows.push_back({spec});
        if (auto it = paper.find(spec); it != paper.end())
            rows.back().paper = it->second;
    }
    return rows;
}

Section
fig11Section()
{
    Section s;
    for (u64 mb : {64, 128})
        for (u32 sector : {2048u, 4096u})
            for (u32 line : {64u, 128u, 256u, 512u}) {
                core::Xta xta(mb * MiB / sector, 16, sector / line);
                std::vector<std::string> labels = {
                    std::to_string(mb), std::to_string(sector),
                    std::to_string(line),
                    fmt(double(xta.storageBytes()) / KiB, 0)};
                s.rows.push_back({"hybrid2:cache=" + labels[0] + ",sector=" +
                                  labels[1] + ",line=" + labels[2]});
                s.rows.back().labels = labels;
                s.rows.back().labels[0] += "MiB";
                if (mb == 64 && sector == 2048 && line == 256)
                    s.rows.back().paper = 1.54;
            }
    return s;
}

std::vector<Section>
fig12Sections()
{
    std::vector<Section> sections;
    for (u64 nmGb : {1, 2, 4}) {
        // The flat-memory advantage over cache designs (paper caption).
        mem::MemSystemParams mp;
        mp.nmBytes = nmGb * GiB;
        core::Dcmc probe(mp, core::Hybrid2Params{});
        double morePct = 100.0 *
            (double(probe.flatCapacity()) / double(mp.fmBytes) - 1.0);
        const std::string gb = std::to_string(nmGb) + "GB";
        Section s{.nmGib = nmGb,
                  .heading = "--- " + gb + " NM (1:" +
                             std::to_string(16 / nmGb) + "); Hybrid2 offers " +
                             fmt(morePct, 1) + "% more memory than caches ---",
                  .rows = nmGb != 1
                      ? lineup()
                      : lineup({{"mempod", 1.318}, {"chameleon", 1.371},
                                {"lgm", 1.429}, {"tagless", 1.417},
                                {"dfc", 1.547}, {"hybrid2", 1.542}})};
        for (Row &r : s.rows)
            r.labels = {gb, r.spec};
        sections.push_back(std::move(s));
    }
    return sections;
}

std::vector<Section>
fig18Sections()
{
    std::vector<Extra> extras = {{"FM wr MiB", fmWrittenMib, 1},
                                 {"FM wr/rd E", fmWriteReadEnergy, 2}};
    Section dramFm{.heading = "-- DRAM far memory (paper configuration) --",
                   .rows = lineup({{"mempod", 1.33}, {"chameleon", 1.73},
                                   {"lgm", 1.27}, {"tagless", 1.59},
                                   {"dfc", 1.48}, {"hybrid2", 1.69}}),
                   .extras = extras};
    extras.push_back({"Wear dMax KiB", maxWearDeltaKib, 1});
    Section pcmFm{.fm = dram::FarMemTech::Pcm,
                  .heading = "-- PCM far memory (--fm pcm: asymmetric "
                             "energy, write endurance) --",
                  .rows = lineup(),
                  .extras = extras};
    return {dramFm, pcmFm};
}

std::vector<Figure>
figureTable()
{
    return {
        {.id = "fig01",
         .title = "Figure 1: fetched-but-unused data vs. line size",
         .metric = [](const Point &p) {
             return p.design().detail.get("cache.wastedFetchFraction") * 100;
         },
         .labelColumns = {"LineSize"},
         .columns = {{"Wasted%(sim)", Stat::Mean}},
         .paperColumn = "Wasted%(paper)",
         .decimals = 1, .paperDecimals = 0,
         .sections = {{.rows = {
             {"ideal:64", 0, {"64"}}, {"ideal:128", 6, {"128"}},
             {"ideal:256", 10, {"256"}}, {"ideal:512", 15, {"512"}},
             {"ideal:1024", 19, {"1024"}}, {"ideal:2048", 22, {"2048"}},
             {"ideal:4096", 26, {"4096"}}}}}},
        {.id = "fig02",
         .title = "Figure 2: motivation - migration vs. DRAM caches",
         .metric = speedup,
         .columns = {{"Min", Stat::Min}, {"Max", Stat::Max},
                     {"Geomean", Stat::Geomean}},
         .paperColumn = "Geomean(paper)",
         .sections = {{.rows = {
             {"mempod", 1.32}, {"chameleon", 1.37}, {"lgm", 1.43},
             {"tagless", 1.42}, {"dfc:128", 1.09}, {"dfc:256", 1.25},
             {"dfc:512", 1.44}, {"dfc:1024", 1.55}, {"dfc:2048", 1.54},
             {"dfc:4096", 1.40}, {"ideal:64", 1.31}, {"ideal:128", 1.41},
             {"ideal:256", 1.48}, {"ideal:512", 1.61}, {"ideal:1024", 1.66},
             {"ideal:2048", 1.58}, {"ideal:4096", 1.42}}}}},
        {.id = "fig11", .title = "Figure 11: Hybrid2 design-space exploration",
         .metric = speedup,
         .labelColumns = {"Cache", "Sector", "Line", "XTA(KiB)"},
         .columns = {{"Geomean", Stat::Geomean}},
         .paperColumn = "Geomean(paper)",
         .sections = {fig11Section()},
         .footer = "paper best: 64MiB cache, 2048B sectors, 256B lines "
                   "(geomean 1.54)"},
        {.id = "fig12",
         .title = "Figures 12a-12c: speedup per MPKI class and NM:FM ratio",
         .metric = speedup,
         .labelColumns = {"NM", "Design"},
         .decimals = 3, .paperDecimals = 3,
         .sections = fig12Sections()},
        {.id = "fig13", .title = "Figure 13: per-benchmark speedup (1:16)",
         .shape = Shape::PerWorkload, .metric = speedup,
         .labelColumns = {"Benchmark"},
         .sections = {{.rows = lineup()}}},
        {.id = "fig14", .title = "Figure 14: Hybrid2 performance factors",
         .metric = speedup,
         .labelColumns = {"Variant"},
         .columns = {{"Geomean", Stat::Geomean}},
         .paperColumn = "Geomean(paper)",
         .sections = {{.rows = {
             {"hybrid2:cacheonly", 1.43, {"Cache-Only"}},
             {"hybrid2:migrall", 1.41, {"Migr-All"}},
             {"hybrid2:migrnone", 1.39, {"Migr-None"}},
             {"hybrid2:noremap", 1.58, {"No-Remap"}},
             {"hybrid2", 1.54, {"Hybrid2"}}}}}},
        {.id = "fig15", .title = "Figure 15: requests served from NM (1:16)",
         // Clamp away zeros so the geomean is defined for workloads
         // with no NM service.
         .metric = [](const Point &p) {
             return std::max(p.design().servedFromNm, 1e-3);
         },
         .columns = classColumns("%"),
         .paperColumn = "All%(paper)",
         .decimals = 0, .paperDecimals = 0, .scale = 100.0,
         .sections = {{.rows = lineup({{"mempod", 40}, {"chameleon", 69},
                                       {"lgm", 54}, {"tagless", 90},
                                       {"dfc", 85}, {"hybrid2", 84}})}}},
        {.id = "fig16", .title = "Figure 16: normalized FM traffic (1:16)",
         .metric = [](const Point &p) {
             return normalizedTraffic(double(p.design().fmTrafficBytes), p);
         },
         .sections = {{.rows = lineup({{"mempod", 0.81}, {"chameleon", 0.82},
                                       {"lgm", 0.59}, {"tagless", 0.53},
                                       {"dfc", 0.40}, {"hybrid2", 0.67}})}}},
        {.id = "fig17", .title = "Figure 17: normalized NM traffic (1:16)",
         .metric = [](const Point &p) {
             return normalizedTraffic(double(p.design().nmTrafficBytes), p);
         },
         .sections = {{.rows = lineup({{"mempod", 0.91}, {"chameleon", 1.47},
                                       {"lgm", 0.92}, {"tagless", 1.72},
                                       {"dfc", 1.60}, {"hybrid2", 1.69}})}}},
        {.id = "fig18",
         .title = "Figure 18: normalized dynamic memory energy (1:16)",
         // A zero-energy baseline renders as 0, which the geomean skips.
         .metric = [](const Point &p) {
             return ratioOrZero(p.design().dynamicEnergyPj,
                                p.base().dynamicEnergyPj);
         },
         .sections = fig18Sections()},
        {.id = "tab01", .title = "Table 1: system configuration",
         .shape = Shape::Config,
         .sections = {{.nmGib = 1, .heading = "--- NM:FM ratio 1:16 ---"},
                      {.nmGib = 2, .heading = "--- NM:FM ratio 2:16 ---"},
                      {.nmGib = 4, .heading = "--- NM:FM ratio 4:16 ---"}}},
        {.id = "tab02", .title = "Table 2: benchmark characteristics",
         .shape = Shape::PerWorkload,
         .labelColumns = {"Benchmark", "Class", "Type"},
         .decimals = 1,
         .sections = {{.rows = {
             {"baseline", {}, {"MPKI(paper)"},
              [](const Point &p) { return p.w.paperMpki; }},
             {"baseline", {}, {"MPKI(sim)"},
              [](const Point &p) { return p.design().mpki; }},
             {"baseline", {}, {"Footprint(GB)"},
              [](const Point &p) { return double(p.w.footprintBytes) / GiB; }},
             // The paper reports traffic per billion instructions.
             {"baseline", {}, {"Traffic(GB/Binstr)"},
              [](const Point &p) {
                  const sim::Metrics &m = p.design();
                  double perBillion = double(m.fmTrafficBytes) /
                                      double(m.instructions) * 1e9;
                  return perBillion / GiB;
              }}}}}},
    };
}

// The runner ------------------------------------------------------------

/** A printed cell; a numeric one keeps its unrounded value for JSON. */
struct Cell
{
    std::string text;
    std::optional<double> value;
};

Cell
number(double v, int decimals)
{
    return {fmt(v, decimals), v};
}

/** A rendered table: a header and rows of cells. */
struct Grid
{
    std::vector<std::string> header{};
    std::vector<std::vector<Cell>> rows{};
};

double
fold(Stat stat, Metric metric, sim::SweepRunner &runner, const Suite &suite,
     const std::string &spec)
{
    auto at = [&](const Workload &w) { return metric({runner, w, spec}); };
    auto byClass = [&] { return geomeansByClass(suite, at); };
    std::vector<double> values;
    for (const Workload &w : suite)
        values.push_back(at(w));
    switch (stat) {
      case Stat::High: return byClass().high;
      case Stat::Medium: return byClass().medium;
      case Stat::Low: return byClass().low;
      case Stat::All: return byClass().all;
      case Stat::Mean: return mean(values);
      case Stat::Min: return *std::min_element(values.begin(), values.end());
      case Stat::Max: return *std::max_element(values.begin(), values.end());
      case Stat::Geomean: return geomean(values);
    }
    h2_panic("unknown Stat");
}

/** A PerWorkload label cell: the workload's name, class or type. */
std::string
workloadLabel(const std::string &column, const Workload &w)
{
    if (column == "Class")
        return to_string(w.cls);
    if (column == "Type")
        return w.multithreaded ? "MT" : "MP";
    return w.name;
}

Grid
render(const Figure &f, const Section &s, sim::SweepRunner &runner,
       const Suite &suite)
{
    Grid g{.header = f.labelColumns};
    if (f.shape == Shape::PerWorkload) {
        for (const Row &r : s.rows)
            g.header.push_back(r.labelsOrSpec().front());
        for (const Workload &w : suite) {
            std::vector<Cell> cells;
            for (const std::string &column : f.labelColumns)
                cells.push_back({workloadLabel(column, w), {}});
            for (const Row &r : s.rows)
                cells.push_back(number(
                    (r.metric ? r.metric : f.metric)({runner, w, r.spec}),
                    f.decimals));
            g.rows.push_back(std::move(cells));
        }
        return g;
    }
    // Only a section that quotes the paper somewhere gets the column.
    const bool quotes = std::any_of(s.rows.begin(), s.rows.end(),
                                    [](const Row &r) { return r.paper; });
    for (const Column &c : f.columns)
        g.header.push_back(c.header);
    for (const Extra &e : s.extras)
        g.header.push_back(e.header);
    if (quotes)
        g.header.push_back(f.paperColumn);
    for (const Row &r : s.rows) {
        std::vector<Cell> cells;
        for (const std::string &label : r.labelsOrSpec())
            cells.push_back({label, {}});
        for (const Column &c : f.columns)
            cells.push_back(number(
                fold(c.stat, f.metric, runner, suite, r.spec) * f.scale,
                f.decimals));
        std::vector<Point> points;
        for (const Workload &w : suite)
            points.push_back({runner, w, r.spec});
        for (const Extra &e : s.extras)
            cells.push_back(number(e.value(points), e.decimals));
        if (quotes)
            cells.push_back(r.paper ? number(*r.paper, f.paperDecimals)
                                    : Cell{});
        g.rows.push_back(std::move(cells));
    }
    return g;
}

/** Print @p g, and add it to @p json as rows of objects keyed by
 *  column header: numbers unrounded, labels as strings, a row without
 *  a paper value as null. */
void
emit(const Grid &g, bool csv, JsonWriter &json)
{
    Table table(g.header, csv);
    json.key("rows").beginArray();
    for (const auto &cells : g.rows) {
        std::vector<std::string> text;
        json.beginObject();
        for (size_t i = 0; i < cells.size(); ++i) {
            text.push_back(cells[i].text);
            json.key(g.header[i]);
            if (cells[i].value)
                json.value(*cells[i].value);
            else if (cells[i].text.empty())
                json.null();
            else
                json.value(cells[i].text);
        }
        json.endObject();
        table.addRow(std::move(text));
    }
    json.endArray();
    table.print();
}

int
usage(const std::vector<Figure> &table)
{
    std::fprintf(stderr,
                 "usage: figures <id>... | all [--mode=quick|full] [--csv] "
                 "[--workload=SPEC] [--instr=N] [--jobs=N] [--out=PATH]\n");
    for (const Figure &f : table)
        std::fprintf(stderr, "  %s  %s\n", f.id.c_str(), f.title.c_str());
    return 2;
}

} // namespace

int
runFigures(std::vector<std::string> ids, int argc, char **argv)
{
    // Positional arguments are ids; the --options are BenchOptions'.
    std::vector<char *> options = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]).starts_with("--"))
            options.push_back(argv[i]);
        else
            ids.push_back(argv[i]);
    }
    const BenchOptions opts =
        BenchOptions::parse(int(options.size()), options.data());
    const std::vector<Figure> table = figureTable();
    std::vector<const Figure *> chosen;
    for (const std::string &id : ids) {
        const size_t before = chosen.size();
        for (const Figure &f : table)
            if (id == "all" || id == f.id)
                chosen.push_back(&f);
        if (chosen.size() == before) {
            std::fprintf(stderr, "figures: unknown id '%s'\n", id.c_str());
            return usage(table);
        }
    }
    if (chosen.empty())
        return usage(table);

    setLogQuiet(true);
    const Suite suite = opts.suite();
    using Scenario = std::pair<u64, dram::FarMemTech>;
    std::map<Scenario, std::vector<std::string>> specs;
    for (const Figure *f : chosen)
        for (const Section &s : f->sections)
            for (const Row &r : s.rows)
                specs[{s.nmGib, s.fm}].push_back(r.spec);
    // Every scenario is checked against the suite before any simulates.
    std::map<Scenario, sim::SweepRunner> runners;
    for (const auto &entry : specs) {
        const auto &[nmGib, fm] = entry.first;
        sim::ExperimentSpec check;
        check.config = opts.runConfig(nmGib * GiB);
        check.config.fm = fm;
        check.workloads = suite;
        if (std::string err = sim::validateExperiment(check); !err.empty()) {
            std::fprintf(stderr, "figures: %s\n", err.c_str());
            return 2;
        }
        runners.try_emplace(entry.first, check.config, opts.jobs);
    }
    // Scenarios run one after another, so at most --jobs simulations
    // are in flight.
    for (auto &[scenario, runner] : runners) {
        runner.submitSweep(suite, specs[scenario], /*withBaseline=*/true);
        for (const auto &[point, outcome] : runner.outcomes()) {
            if (outcome.ok)
                continue;
            std::fprintf(stderr, "figures: point '%s' (%lluGiB NM, %s FM) "
                                 "failed: %s\n",
                         point.c_str(),
                         static_cast<unsigned long long>(scenario.first),
                         dram::to_string(scenario.second),
                         outcome.error.c_str());
            return 1;
        }
    }

    JsonWriter json;
    json.beginObject()
        .kv("mode", opts.full ? "full" : "quick")
        .kv("instr_per_core", opts.effectiveInstrPerCore())
        .key("workloads")
        .beginArray();
    for (const Workload &w : suite)
        json.value(w.cacheName());
    json.endArray().key("figures").beginArray();
    for (const Figure *f : chosen) {
        banner(f->title, f->title.substr(0, f->title.find(':')), opts);
        json.beginObject().kv("id", f->id).kv("title", f->title);
        json.key("sections").beginArray();
        for (const Section &s : f->sections) {
            json.beginObject()
                .kv("nm_gib", s.nmGib)
                .kv("fm", dram::to_string(s.fm));
            if (f->shape == Shape::Config) {
                std::string config =
                    sim::describeConfig(sim::table1Config(s.nmGib * GiB));
                std::printf("%s\n%s\n", s.heading.c_str(), config.c_str());
                json.kv("config", config).endObject();
                continue;
            }
            if (!opts.csv && !s.heading.empty())
                std::printf("%s\n", s.heading.c_str());
            emit(render(*f, s, runners.at({s.nmGib, s.fm}), suite), opts.csv,
                 json);
            if (!opts.csv)
                std::printf("\n");
            json.endObject();
        }
        json.endArray().endObject();
        if (!opts.csv && !f->footer.empty())
            std::printf("%s\n\n", f->footer.c_str());
    }
    json.endArray().endObject();

    std::string err;
    if (!opts.jsonOut.empty())
        err = writeFileAtomic(opts.jsonOut, json.str() + "\n");
    if (!err.empty())
        std::fprintf(stderr, "figures: %s\n", err.c_str());
    return err.empty() ? 0 : 1;
}

} // namespace h2::bench

#ifndef H2_FIGURES_ALIAS
int
main(int argc, char **argv)
{
    return h2::bench::runFigures({}, argc, argv);
}
#endif
