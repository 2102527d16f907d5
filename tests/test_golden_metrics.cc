/**
 * @file
 * Golden-metrics regression harness: full Metrics::toJson() snapshots
 * (every scalar plus the per-design `detail` counters) for a small
 * design x workload grid are checked into tests/golden/. Any silent
 * behavioural drift — a changed eviction decision, a miscounted stat,
 * a perturbed random stream — shows up as a snapshot diff even when
 * every invariant-style unit test still passes.
 *
 * To regenerate after an intentional behavioural change:
 *
 *   H2_UPDATE_GOLDEN=1 ctest -R GoldenMetrics
 *
 * then review the diff like any other code change.
 *
 * Comparison is exact for integers and text; doubles tolerate 1e-9
 * relative error so the snapshots survive compilers that contract
 * a*b+c into fma (the checked-in values come from one build type, CI
 * runs several).
 *
 * Every registered design gets a GoldenMetrics.<Design>Lbm case,
 * instantiated from the design registry in main(): a design added
 * without a snapshot fails here by name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "sim/design_registry.h"
#include "sim/runner.h"
#include "workloads/workload_spec.h"

#ifndef H2_GOLDEN_DIR
#error "H2_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace h2 {
namespace {

sim::RunConfig
goldenConfig()
{
    // Small but non-trivial: two cores, warmup, default capacities.
    sim::RunConfig cfg;
    cfg.numCores = 2;
    cfg.instrPerCore = 30'000;
    cfg.warmupInstrPerCore = 10'000;
    cfg.seed = 42;
    return cfg;
}

sim::RunConfig
pcmConfig()
{
    sim::RunConfig cfg = goldenConfig();
    cfg.fm = dram::FarMemTech::Pcm;
    return cfg;
}

sim::RunConfig
migrationConfig()
{
    // Ten times the default budget: enough 50 us intervals pass for
    // the migration baselines to reach their swap path.
    sim::RunConfig cfg = goldenConfig();
    cfg.instrPerCore = 300'000;
    cfg.warmupInstrPerCore = 100'000;
    return cfg;
}

bool
updateRequested()
{
    const char *env = std::getenv("H2_UPDATE_GOLDEN");
    return env && *env && std::string(env) != "0";
}

/** Snapshot file of @p design x @p workload under the golden
 *  directory's @p variant subdirectory ("" = the default grid). */
std::string
goldenPath(const std::string &design, const std::string &workload,
           const std::string &variant)
{
    std::string file = design + "_" + workload + ".json";
    for (char &c : file)
        if (c == ':' || c == '+' || c == '/')
            c = '-';
    std::string dir = std::string(H2_GOLDEN_DIR);
    if (!variant.empty())
        dir += "/" + variant;
    return dir + "/" + file;
}

/** True when a token is spelled as floating point ("." or exponent).
 *  A pair gets tolerance when either side is float-spelled: a float
 *  metric that lands on an exactly integral value prints without a
 *  fractional part, so requiring both sides would turn rounding-level
 *  drift into an exact-match failure. Integer counters always print
 *  integer-spelled on both sides and still compare exactly. */
bool
looksFloat(const std::string &tok)
{
    return tok.find_first_of(".eE") != std::string::npos &&
           tok.find_first_of("0123456789") != std::string::npos;
}

bool
isNumChar(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
           c == 'e' || c == 'E';
}

/**
 * Compare two JSON renderings: identical except that floating-point
 * literals may differ by 1e-9 relative. Structure, keys, and integer
 * values must match exactly. Returns "" on match, else a description
 * of the first difference.
 */
std::string
compareJson(const std::string &want, const std::string &got)
{
    size_t i = 0, j = 0;
    while (i < want.size() && j < got.size()) {
        if (want[i] == got[j] && !isNumChar(want[i])) {
            ++i, ++j;
            continue;
        }
        if (isNumChar(want[i]) && isNumChar(got[j])) {
            size_t i0 = i, j0 = j;
            while (i < want.size() && isNumChar(want[i]))
                ++i;
            while (j < got.size() && isNumChar(got[j]))
                ++j;
            std::string a = want.substr(i0, i - i0);
            std::string b = got.substr(j0, j - j0);
            if (a == b)
                continue;
            if (looksFloat(a) || looksFloat(b)) {
                double da = std::strtod(a.c_str(), nullptr);
                double db = std::strtod(b.c_str(), nullptr);
                double scale = std::max(std::abs(da), std::abs(db));
                if (std::abs(da - db) <= 1e-9 * std::max(scale, 1.0))
                    continue;
            }
            return "value mismatch near offset " + std::to_string(i0) +
                   ": golden has '" + a + "', run produced '" + b + "'";
        }
        return std::string("text mismatch near offset ") +
               std::to_string(i) + ": golden has '" + want[i] +
               "', run produced '" + got[j] + "'";
    }
    if (i != want.size() || j != got.size())
        return "length mismatch (golden " + std::to_string(want.size()) +
               " bytes, run " + std::to_string(got.size()) + ")";
    return {};
}

/**
 * Run @p design x @p workloadSpec under @p cfg and compare against its
 * snapshot in the @p variant subdirectory. A variant is a subdirectory
 * plus the RunConfig that produced it, so a new one costs a config
 * function, not a parameter.
 */
void
checkGolden(const std::string &design, const std::string &workloadSpec,
            const std::string &variant = "",
            const sim::RunConfig &cfg = goldenConfig())
{
    sim::Metrics m = sim::simulateOne(
        cfg, workloads::resolveWorkloadOrFatal(workloadSpec), design);
    std::string got = m.toJson();
    std::string path = goldenPath(design, workloadSpec, variant);

    if (updateRequested()) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        SUCCEED() << "updated " << path;
        return;
    }

    std::ifstream in(path);
    if (!in) {
        FAIL() << "missing golden snapshot " << path
               << " — generate it with H2_UPDATE_GOLDEN=1 and commit it";
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string diff = compareJson(buf.str(), got);
    EXPECT_TRUE(diff.empty())
        << design << " x " << workloadSpec << " drifted from " << path
        << ":\n" << diff
        << "\nIf the change is intentional, regenerate with "
           "H2_UPDATE_GOLDEN=1 ctest -R GoldenMetrics and commit the "
           "diff.\nFull run output:\n" << got;
}

// The grid: the three structurally different memory organizations
// (flat baseline, cache-only DFC, cache+migration Hybrid2) against a
// streaming high-MPKI, a pointer-heavy high-MPKI, and a low-MPKI
// workload, plus one mix to pin the interleave behaviour.

TEST(GoldenMetrics, BaselineMcf) { checkGolden("baseline", "mcf"); }
TEST(GoldenMetrics, BaselineXalanc) { checkGolden("baseline", "xalanc"); }
TEST(GoldenMetrics, DfcMcf) { checkGolden("dfc", "mcf"); }
TEST(GoldenMetrics, DfcXalanc) { checkGolden("dfc", "xalanc"); }
TEST(GoldenMetrics, Hybrid2Mcf) { checkGolden("hybrid2", "mcf"); }
TEST(GoldenMetrics, Hybrid2Xalanc) { checkGolden("hybrid2", "xalanc"); }
TEST(GoldenMetrics, Hybrid2Mix)
{
    checkGolden("hybrid2", "mix:mcf+xalanc:2");
}

// One lbm leg per registered design (registerDesignGoldens below).
// They pin each design's hit, fill and metadata paths on a streaming,
// high-MPKI workload. They do not pin eviction or migration: within
// the small golden budget neither the LLC nor any design's NM fills,
// so 19 of the 21 snapshots read 0 for every eviction, migration and
// swap counter. Only the GoldenMetricsMigration legs (golden/migration/,
// a larger budget) pin a migration.

// fm=pcm legs: pin the PCM far-memory backend — asymmetric read/write
// timing (tRCD/tWR), the asymmetric per-operation energy split, and
// the per-bank wear counters (`fm.wearTotalBytes` etc. appear only
// here). One leg per structural organization (FM-only, DRAM cache,
// Hybrid2), plus one pointer-heavy workload for a second traffic
// shape.

TEST(GoldenMetricsPcm, BaselineLbm)
{
    checkGolden("baseline", "lbm", "pcm", pcmConfig());
}
TEST(GoldenMetricsPcm, DfcLbm)
{
    checkGolden("dfc", "lbm", "pcm", pcmConfig());
}
TEST(GoldenMetricsPcm, Hybrid2Lbm)
{
    checkGolden("hybrid2", "lbm", "pcm", pcmConfig());
}
TEST(GoldenMetricsPcm, Hybrid2Mcf)
{
    checkGolden("hybrid2", "mcf", "pcm", pcmConfig());
}

// Migration legs: the default budget ends before the first 50 us
// interval boundary, so mempod_lbm/lgm_lbm above record no interval
// and no swap. At ten times the budget MemPod reaches 3 intervals /
// 14 migrations and LGM 4 / 256, pinning the interval clock, the
// swap's traffic and the remap-table updates.

TEST(GoldenMetricsMigration, MempodLbm)
{
    checkGolden("mempod", "lbm", "migration", migrationConfig());
}
TEST(GoldenMetricsMigration, LgmLbm)
{
    checkGolden("lgm", "lbm", "migration", migrationConfig());
}

/** The registry-instantiated leg: @p design on lbm. */
class DesignGolden : public ::testing::Test
{
  public:
    explicit DesignGolden(std::string name) : design(std::move(name)) {}
    void TestBody() override { checkGolden(design, "lbm"); }

  private:
    std::string design;
};

/** Register GoldenMetrics.<Design>Lbm for every registered design
 *  (the registry is complete only after static initialization, so
 *  main() calls this, not a static initializer). */
void
registerDesignGoldens()
{
    for (const sim::DesignInfo *info :
         sim::DesignRegistry::instance().all()) {
        std::string name = info->name;
        std::string testName = name + "Lbm";
        testName[0] = char(
            std::toupper(static_cast<unsigned char>(testName[0])));
        // The factory returns the base Test type so these cases share
        // the suite's fixture with the TEST() legs above.
        ::testing::RegisterTest(
            "GoldenMetrics", testName.c_str(), nullptr, nullptr, __FILE__,
            __LINE__, [name]() -> ::testing::Test * {
                return new DesignGolden(name);
            });
    }
}

} // namespace
} // namespace h2

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    h2::registerDesignGoldens();
    return RUN_ALL_TESTS();
}
