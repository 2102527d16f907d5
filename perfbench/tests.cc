/**
 * @file
 * Tests of the benchmark's own code: the paper scoring, the paper
 * table, and the traced replay's equivalence with sim::simulateOne.
 * Build and run with
 *
 *   cmake --build .bench_build --target h2perf_tests
 *   ctest --test-dir .bench_build --output-on-failure
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "fidelity.h"
#include "traced_sim.h"

namespace {

using namespace h2;

int failures = 0;

#define EXPECT(cond)                                                     \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__,      \
                        #cond);                                          \
            ++failures;                                                  \
        }                                                                \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
kendallTauHandCases()
{
    using h2perf::kendallTau;
    EXPECT(near(kendallTau({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0));
    EXPECT(near(kendallTau({1, 2, 3, 4}, {4, 3, 2, 1}), -1.0));
    // Pairs (1,2) and (1,3) concordant, (2,3) discordant: (2-1)/3.
    EXPECT(near(kendallTau({1, 2, 3}, {1, 3, 2}), 1.0 / 3.0));
    // One pair tied in a only: 5 concordant, tau-b = 5/sqrt(5*6).
    EXPECT(near(kendallTau({1, 2, 2, 3}, {1, 2, 3, 4}),
                5.0 / std::sqrt(30.0)));
    // One pair tied in b only, discordant elsewhere: C=1, D=1 -> 0.
    EXPECT(near(kendallTau({1, 2, 3}, {2, 1, 2}), 0.0));
    // A pair tied in both vectors counts for neither side.
    EXPECT(near(kendallTau({1, 1, 2}, {5, 5, 7}), 1.0));
    EXPECT(std::isnan(kendallTau({1, 1, 1}, {1, 2, 3})));
    EXPECT(std::isnan(kendallTau({1}, {1})));
    EXPECT(std::isnan(kendallTau({1, 2}, {1, 2, 3})));
}

void
logErrorHandCases()
{
    using h2perf::meanAbsLogError;
    EXPECT(near(meanAbsLogError({std::exp(1.0), 1.0}, {1.0, 1.0}), 0.5));
    EXPECT(near(meanAbsLogError({1.0, 2.0}, {2.0, 1.0}), std::log(2.0)));
    EXPECT(near(meanAbsLogError({1.5}, {1.5}), 0.0));
    EXPECT(std::isnan(meanAbsLogError({0.0}, {1.0})));
    EXPECT(std::isnan(meanAbsLogError({1.0}, {1.0, 2.0})));
    EXPECT(std::isnan(meanAbsLogError({}, {})));
}

void
paperTableMatchesFig12Header()
{
    std::ifstream in(H2PERF_FIG12_SOURCE);
    EXPECT(in.good());
    std::stringstream text;
    text << in.rdbuf();
    std::string src = text.str();
    size_t at = src.find("Paper \"All\" geomeans at 1 GB:");
    EXPECT(at != std::string::npos);
    if (at == std::string::npos)
        return;
    std::string quote = src.substr(at, src.find("*/", at) - at);
    const std::map<std::string, std::string> names = {
        {"MPOD", "mempod"}, {"CHA", "chameleon"},  {"LGM", "lgm"},
        {"TAGLESS", "tagless"}, {"DFC", "dfc"}, {"HYBRID2", "hybrid2"}};
    std::map<std::string, double> header;
    std::regex entry("([A-Z][A-Z0-9]*) ([0-9]+\\.[0-9]+)");
    for (auto it = std::sregex_iterator(quote.begin(), quote.end(), entry);
         it != std::sregex_iterator(); ++it) {
        auto name = names.find((*it)[1]);
        EXPECT(name != names.end());
        if (name != names.end())
            header[name->second] = std::stod((*it)[2]);
    }
    EXPECT(header.size() == h2perf::paperFig12All().size());
    for (const h2perf::PaperSpeedup &p : h2perf::paperFig12All())
        EXPECT(header.count(p.design) && header[p.design] == p.speedup);
    // Every design of the simulated lineup has a paper value.
    EXPECT(sim::evaluatedDesigns().size() == h2perf::paperFig12All().size());
    for (const std::string &spec : sim::evaluatedDesigns())
        EXPECT(h2perf::paperSpeedupFor(spec) > 0);
}

void
selfTimeSubtractsChildren()
{
    using h2perf::Layer;
    std::vector<h2perf::Span> spans = {
        {Layer::Core, h2perf::kNoParent, 0, 100},
        {Layer::Workloads, 0, 10, 30},
        {Layer::Cache, 0, 40, 50},
        {Layer::Core, h2perf::kNoParent, 200, 260},
        {Layer::Cache, 3, 210, 240},
    };
    h2perf::LayerTimes t = h2perf::selfTimes(spans);
    EXPECT(t.calls[size_t(Layer::Core)] == 2);
    EXPECT(near(t.selfNs[size_t(Layer::Core)], 70.0 + 30.0));
    EXPECT(near(t.meanNs(Layer::Cache), (10.0 + 30.0) / 2));
    EXPECT(near(t.meanNs(Layer::Workloads), 20.0));
    EXPECT(t.meanNs(Layer::Design) == 0.0);

    // One clock read comes out of each of a span's own intervals: three
    // for a step with two children, one for a leaf.
    h2perf::LayerTimes c = h2perf::selfTimes(spans, 2.0);
    EXPECT(near(c.selfNs[size_t(Layer::Core)], (70.0 - 6) + (30.0 - 4)));
    EXPECT(near(c.meanNs(Layer::Cache), (8.0 + 28.0) / 2));
}

void
layerStatsMergeExactly()
{
    h2perf::LayerStats a, b;
    a.counts["x"] = 3;
    a.ratios["r"] = {1, 4};
    b.counts["x"] = 5;
    b.ratios["r"] = {3, 4};
    b.ratios["empty"] = {0, 0};
    a.merge(b);
    auto v = a.values();
    EXPECT(v["x"] == 8);
    EXPECT(v["r"] == 0.5);
    EXPECT(v["empty"] == 0.0);
}

void
tracedReplayMatchesSystem()
{
    for (u64 warmup : {u64(0), u64(10'000)}) {
        sim::RunConfig cfg;
        cfg.numCores = 2;
        cfg.instrPerCore = 40'000;
        cfg.warmupInstrPerCore = warmup;
        cfg.seed = 7;
        for (const char *wl : {"lbm", "mcf"}) {
            for (const char *design : {"hybrid2", "baseline"}) {
                const workloads::Workload &w = workloads::findWorkload(wl);
                sim::Metrics ref = sim::simulateOne(cfg, w, design);
                h2perf::TracedRun tr = h2perf::runTraced(cfg, w, design, 1);
                auto diff = h2perf::metricsMismatch(tr.metrics, ref);
                EXPECT(diff.empty());
                EXPECT(tr.metrics == ref);
                for (const std::string &d : diff)
                    std::printf("  %s/%s warmup %llu differs in %s\n", wl,
                                design,
                                static_cast<unsigned long long>(warmup),
                                d.c_str());

                // Stride 1 spans every step, and each step calls the
                // trace, the address map and the cache exactly once.
                using h2perf::Layer;
                h2perf::LayerTimes t = h2perf::selfTimes(tr.spans);
                u64 steps = t.calls[size_t(Layer::Core)];
                EXPECT(steps > 0);
                EXPECT(t.calls[size_t(Layer::Workloads)] == steps);
                EXPECT(t.calls[size_t(Layer::Addrmap)] == steps);
                EXPECT(t.calls[size_t(Layer::Cache)] == steps);
                EXPECT(t.calls[size_t(Layer::Setup)] == 1);
                EXPECT(t.calls[size_t(Layer::Drain)] == (warmup ? 2 : 1));
                if (!warmup)
                    EXPECT(t.calls[size_t(Layer::Design)] ==
                           ref.memRequests);
                EXPECT(tr.stats.counts.at("design.requests") ==
                       double(ref.memRequests));
                EXPECT(tr.stats.counts.count("dcmc.migrations") ==
                       (std::string(design) == "hybrid2" ? 1u : 0u));
                EXPECT(tr.stats.counts.count("mem.nmq.demand_accesses") ==
                       (std::string(design) == "hybrid2" ? 1u : 0u));
            }
        }
    }
    // A sparse stride still reproduces the result exactly.
    sim::RunConfig cfg;
    cfg.numCores = 2;
    cfg.instrPerCore = 30'000;
    const workloads::Workload &w = workloads::findWorkload("xalanc");
    EXPECT(h2perf::runTraced(cfg, w, "hybrid2", 64).metrics ==
           sim::simulateOne(cfg, w, "hybrid2"));
}

} // namespace

int
main()
{
    setLogQuiet(true);
    const std::vector<std::pair<const char *, std::function<void()>>>
        tests = {
            {"kendallTauHandCases", kendallTauHandCases},
            {"logErrorHandCases", logErrorHandCases},
            {"paperTableMatchesFig12Header", paperTableMatchesFig12Header},
            {"selfTimeSubtractsChildren", selfTimeSubtractsChildren},
            {"layerStatsMergeExactly", layerStatsMergeExactly},
            {"tracedReplayMatchesSystem", tracedReplayMatchesSystem},
        };
    for (const auto &[name, fn] : tests) {
        int before = failures;
        fn();
        std::printf("%s %s\n", failures == before ? "PASS" : "FAIL", name);
    }
    std::printf("%d failure(s)\n", failures);
    return failures ? 1 : 0;
}
