/**
 * @file
 * Statistical tests for the synthetic generators: over a million
 * records each Pattern must hit its configured memory intensity,
 * write fraction, and hot-region access probability within tight
 * tolerances, and different seeds must give different streams.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "workloads/generators.h"
#include "workloads/workload_registry.h"

namespace h2::workloads {
namespace {

constexpr u64 kRecords = 1'000'000;

/** A Workload configured directly with @p pattern for source building. */
Workload
patternWorkload(Pattern pattern)
{
    Workload w;
    w.name = "stats";
    w.multithreaded = true; // single shared stream, footprint as-is
    w.footprintBytes = 64ull << 20;
    w.memRatio = 0.23;
    w.writeFrac = 0.31;
    w.pattern = pattern;
    w.hotBytes = w.footprintBytes / 10;
    w.hotProbability = 0.85;
    if (pattern == Pattern::Stride)
        w.patternParam = 256; // stride bytes
    return w;
}

struct StreamStats
{
    u64 instrs = 0;
    u64 writes = 0;
    u64 hotHits = 0; ///< records with vaddr below the hot boundary
    Addr maxAddr = 0;
};

StreamStats
collect(TraceSource &src, u64 n, u64 hotBoundary)
{
    StreamStats s;
    for (u64 i = 0; i < n; ++i) {
        TraceRecord rec = src.next();
        s.instrs += u64(rec.instGap) + 1;
        s.writes += rec.type == AccessType::Write;
        s.hotHits += rec.vaddr < hotBoundary;
        s.maxAddr = std::max(s.maxAddr, rec.vaddr);
    }
    return s;
}

const Pattern kAllPatterns[] = {
    Pattern::Stream, Pattern::Stride,       Pattern::Random,
    Pattern::Gather, Pattern::Zipf,         Pattern::PointerChase,
};

TEST(WorkloadStats, EveryPatternHitsMemRatioExactly)
{
    for (Pattern pat : kAllPatterns) {
        Workload w = patternWorkload(pat);
        auto src = w.makeSource(0, 1, 1);
        StreamStats s = collect(*src, kRecords, 0);
        // Gap synthesis carries the fractional part, so the ratio is
        // met essentially exactly over a long run.
        double ratio = double(kRecords) / double(s.instrs);
        EXPECT_NEAR(ratio, w.memRatio, 1e-4)
            << "pattern " << int(pat);
    }
}

TEST(WorkloadStats, EveryPatternHitsWriteFraction)
{
    for (Pattern pat : kAllPatterns) {
        Workload w = patternWorkload(pat);
        auto src = w.makeSource(0, 1, 1);
        StreamStats s = collect(*src, kRecords, 0);
        // Binomial sd ~ sqrt(p(1-p)/n) ~ 4.6e-4; allow 5 sigma.
        double frac = double(s.writes) / double(kRecords);
        EXPECT_NEAR(frac, w.writeFrac, 0.0025)
            << "pattern " << int(pat);
    }
}

TEST(WorkloadStats, EveryPatternStaysInsideFootprint)
{
    for (Pattern pat : kAllPatterns) {
        Workload w = patternWorkload(pat);
        auto src = w.makeSource(0, 1, 1);
        StreamStats s = collect(*src, kRecords, 0);
        EXPECT_LT(s.maxAddr, w.footprintBytes) << "pattern " << int(pat);
    }
}

TEST(WorkloadStats, ZipfHotRegionProbability)
{
    Workload w = patternWorkload(Pattern::Zipf);
    // ZipfGen's hot region: hotBytes at the footprint base.
    auto src = w.makeSource(0, 1, 1);
    StreamStats s = collect(*src, kRecords, w.hotBytes);
    double hot = double(s.hotHits) / double(kRecords);
    EXPECT_NEAR(hot, w.hotProbability, 0.0025);
}

TEST(WorkloadStats, GatherRegionProbability)
{
    Workload w = patternWorkload(Pattern::Gather);
    // GatherGen's gather region: hotBytes at the footprint base.
    auto src = w.makeSource(0, 1, 1);
    StreamStats s = collect(*src, kRecords, w.hotBytes);
    double hot = double(s.hotHits) / double(kRecords);
    EXPECT_NEAR(hot, w.hotProbability, 0.0025);
}

TEST(WorkloadStats, DistinctSeedsDistinctStreams)
{
    for (Pattern pat : kAllPatterns) {
        Workload w = patternWorkload(pat);
        auto a = w.makeSource(0, 1, 1);
        auto b = w.makeSource(0, 1, 2);
        u32 differing = 0;
        for (int i = 0; i < 1000; ++i)
            if (!(a->next() == b->next()))
                ++differing;
        EXPECT_GT(differing, 0u) << "pattern " << int(pat);
    }
}

TEST(WorkloadStats, SameSeedSameStream)
{
    for (Pattern pat : kAllPatterns) {
        Workload w = patternWorkload(pat);
        auto a = w.makeSource(0, 1, 3);
        auto b = w.makeSource(0, 1, 3);
        for (int i = 0; i < 1000; ++i)
            EXPECT_EQ(a->next(), b->next()) << "pattern " << int(pat);
    }
}

TEST(WorkloadStats, DistinctCoresDistinctStreams)
{
    Workload w = patternWorkload(Pattern::Random);
    auto a = w.makeSource(0, 2, 1);
    auto b = w.makeSource(1, 2, 1);
    u32 differing = 0;
    for (int i = 0; i < 1000; ++i)
        if (!(a->next() == b->next()))
            ++differing;
    EXPECT_GT(differing, 0u);
}

TEST(WorkloadStats, RegistryWorkloadsMeetTheirOwnRatios)
{
    // Spot-check real Table 2 entries end to end through makeSource.
    for (const char *name : {"lbm", "mcf", "cg.D", "xalanc"}) {
        const Workload &w = findWorkload(name);
        auto src = w.makeSource(0, 2, 42);
        StreamStats s = collect(*src, kRecords / 4, 0);
        double ratio = double(kRecords / 4) / double(s.instrs);
        EXPECT_NEAR(ratio, w.memRatio, w.memRatio * 0.01) << name;
        double frac = double(s.writes) / double(kRecords / 4);
        EXPECT_NEAR(frac, w.writeFrac, 0.005) << name;
    }
}

} // namespace
} // namespace h2::workloads
