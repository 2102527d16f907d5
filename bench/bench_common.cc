#include "bench_common.h"

#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>

#include "common/log.h"
#include "common/parse.h"
#include "workloads/workload_spec.h"

namespace h2::bench {

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        // Shared "--key=value" splitting with the design-spec and
        // experiment-file grammars (common/parse.h).
        auto [key, value] = keyValue(std::string_view(argv[i]));
        if (key == "--mode" && value == "full")
            opts.full = true;
        else if (key == "--mode" && value == "quick")
            opts.full = false;
        else if (key == "--csv" && value.empty())
            opts.csv = true;
        else if (key == "--instr")
            opts.instrPerCore = parseU64OrFatal("--instr", value);
        else if (key == "--jobs")
            opts.jobs = static_cast<u32>(parseU64OrFatal("--jobs", value));
        else if (key == "--out")
            opts.jsonOut = std::string(value);
        else if (key == "--workload") {
            // Resolve now: a typo fails before the sweep starts, and
            // trace files load once.
            opts.workloadOverrides.push_back(
                workloads::resolveWorkloadOrFatal(std::string(value)));
        } else
            h2_fatal("unknown bench option: ", argv[i],
                     " (use --mode=quick|full, --csv, --workload=SPEC, "
                     "--instr=N, --jobs=N, --out=PATH)");
    }
    return opts;
}

std::vector<workloads::Workload>
BenchOptions::suite() const
{
    if (!workloadOverrides.empty())
        return workloadOverrides;
    return full ? workloads::allWorkloads() : workloads::quickSuite();
}

Table::Table(std::vector<std::string> columns, bool csv)
    : header(std::move(columns)), csvMode(csv)
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    h2_assert(cells.size() == header.size(), "row width mismatch");
    rows.push_back(std::move(cells));
}

void
Table::print() const
{
    if (csvMode) {
        auto printCsvRow = [](const std::vector<std::string> &cells) {
            for (size_t i = 0; i < cells.size(); ++i)
                std::printf("%s%s", cells[i].c_str(),
                            i + 1 < cells.size() ? "," : "\n");
        };
        printCsvRow(header);
        for (const auto &row : rows)
            printCsvRow(row);
        return;
    }
    std::vector<size_t> widths(header.size());
    for (size_t i = 0; i < header.size(); ++i)
        widths[i] = header[i].size();
    for (const auto &row : rows)
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    auto printRow = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i)
            std::printf("%-*s%s", int(widths[i]), cells[i].c_str(),
                        i + 1 < cells.size() ? "  " : "\n");
    };
    printRow(header);
    for (size_t i = 0; i < header.size(); ++i)
        std::printf("%s%s", std::string(widths[i], '-').c_str(),
                    i + 1 < header.size() ? "  " : "\n");
    for (const auto &row : rows)
        printRow(row);
}

std::string
fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

void
banner(const std::string &title, const std::string &paperRef,
       const BenchOptions &opts)
{
    if (opts.csv)
        return;
    std::printf("== %s ==\n", title.c_str());
    std::printf("reproduces: %s (Hybrid2, HPCA 2020)\n", paperRef.c_str());
    // No job count: results, and so stdout, are the same at any --jobs.
    std::printf("mode: %s (%llu instructions/core)\n\n",
                opts.full ? "full" : "quick",
                static_cast<unsigned long long>(opts.effectiveInstrPerCore()));
}

ClassGeomeans
geomeansByClass(const std::vector<workloads::Workload> &suite,
                const std::function<double(const workloads::Workload &)>
                    &metric)
{
    std::vector<double> high, medium, low, all;
    for (const auto &w : suite) {
        double v = metric(w);
        // Degenerate points (a zero-traffic workload normalizing to
        // ratioOrZero's 0) are excluded rather than poisoning the
        // geomean, which is defined over strictly positive values.
        if (v <= 0.0)
            continue;
        all.push_back(v);
        switch (w.cls) {
          case workloads::MpkiClass::High: high.push_back(v); break;
          case workloads::MpkiClass::Medium: medium.push_back(v); break;
          case workloads::MpkiClass::Low: low.push_back(v); break;
        }
    }
    ClassGeomeans g;
    g.high = geomean(high);
    g.medium = geomean(medium);
    g.low = geomean(low);
    g.all = geomean(all);
    return g;
}

} // namespace h2::bench
