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
 * Comparison walks the two parsed documents and reports every
 * difference by its member path (`/detail/nm.reads: golden 12, run
 * 13`), so a regenerated golden's delta reads per key. It is exact for
 * integers and text; doubles tolerate 1e-9 relative error so the
 * snapshots survive compilers that contract a*b+c into fma (the
 * checked-in values come from one build type, CI runs several).
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
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
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
    return tok.find_first_of(".eE") != std::string::npos;
}

/** Number tokens @p a and @p b match: equal, or within 1e-9 relative
 *  when either is float-spelled. */
bool
numbersMatch(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    if (!looksFloat(a) && !looksFloat(b))
        return false;
    double da = std::strtod(a.c_str(), nullptr);
    double db = std::strtod(b.c_str(), nullptr);
    double scale = std::max(std::abs(da), std::abs(db));
    return std::abs(da - db) <= 1e-9 * std::max(scale, 1.0);
}

/** One-line rendering of @p v for a diff line. */
std::string
show(const JsonValue &v)
{
    switch (v.type) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return v.boolean ? "true" : "false";
    case JsonValue::Type::Number: return v.scalar;
    case JsonValue::Type::String: return '"' + v.scalar + '"';
    case JsonValue::Type::Array:
        return "[" + std::to_string(v.items.size()) + " items]";
    case JsonValue::Type::Object:
        return "{" + std::to_string(v.members.size()) + " members}";
    }
    return "?";
}

/**
 * Append to @p out one line per difference between @p want (golden)
 * and @p got (run) below JSON-pointer @p path: every changed value,
 * every member missing from or extra in the run, and every member
 * whose position among the shared members moved.
 */
void
diffJson(const JsonValue &want, const JsonValue &got,
         const std::string &path, std::vector<std::string> &out)
{
    if (want.isArray() && got.isArray()) {
        size_t n = std::max(want.items.size(), got.items.size());
        for (size_t i = 0; i < n; ++i) {
            std::string item = path + "/" + std::to_string(i);
            if (i >= got.items.size())
                out.push_back(item + ": missing from run (golden " +
                              show(want.items[i]) + ")");
            else if (i >= want.items.size())
                out.push_back(item + ": extra in run (" +
                              show(got.items[i]) + ")");
            else
                diffJson(want.items[i], got.items[i], item, out);
        }
        return;
    }
    if (want.isObject() && got.isObject()) {
        std::vector<std::string> wantOrder, gotOrder;
        for (const auto &[key, value] : want.members) {
            const JsonValue *other = got.find(key);
            if (!other) {
                out.push_back(path + "/" + key + ": missing from run "
                              "(golden " + show(value) + ")");
                continue;
            }
            wantOrder.push_back(key);
            diffJson(value, *other, path + "/" + key, out);
        }
        for (const auto &[key, value] : got.members) {
            if (!want.find(key))
                out.push_back(path + "/" + key + ": extra in run (" +
                              show(value) + ")");
            else
                gotOrder.push_back(key);
        }
        size_t shared = std::min(wantOrder.size(), gotOrder.size());
        for (size_t i = 0; i < shared; ++i)
            if (wantOrder[i] != gotOrder[i])
                out.push_back(path + "/" + wantOrder[i] +
                              ": reordered (the run has " + gotOrder[i] +
                              " in its place)");
        return;
    }
    bool same = want.isNumber() && got.isNumber()
        ? numbersMatch(want.scalar, got.scalar)
        : want.type == got.type && show(want) == show(got);
    if (!same)
        out.push_back((path.empty() ? "/" : path) + ": golden " +
                      show(want) + ", run " + show(got));
}

/**
 * Compare two JSON renderings member by member: structure, keys, text
 * and integer-spelled numbers must match exactly; a number pair with a
 * float-spelled side may differ by 1e-9 relative. Returns "" on match,
 * else one line per difference, each naming its member's path.
 */
std::string
compareJson(const std::string &want, const std::string &got)
{
    std::string error;
    std::optional<JsonValue> w = parseJson(want, &error);
    if (!w)
        return "golden is not valid JSON: " + error;
    std::optional<JsonValue> g = parseJson(got, &error);
    if (!g)
        return "run output is not valid JSON: " + error;
    std::vector<std::string> lines;
    diffJson(*w, *g, "", lines);
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

TEST(GoldenDiff, NamesChangedMissingExtraAndReorderedMembers)
{
    const std::string golden = R"({"ipc": 1.5, "cycles": 100,
        "detail": {"nm.reads": 12, "nm.writes": 3, "x": 1, "y": 2},
        "series": [1, 2]})";
    // Rounding-level float drift and an integral float printed without
    // a fraction are no difference.
    EXPECT_EQ(compareJson(golden, R"({"ipc": 1.5000000000001,
        "cycles": 100, "detail": {"nm.reads": 12, "nm.writes": 3,
        "x": 1, "y": 2}, "series": [1.0, 2]})"), "");

    std::string diff = compareJson(golden, R"({"ipc": 1.5, "cycles": 101,
        "detail": {"nm.reads": 12, "y": 2, "x": 1, "fm.reads": 7},
        "series": [1, 2, 3]})");
    EXPECT_NE(diff.find("/cycles: golden 100, run 101\n"),
              std::string::npos) << diff;
    EXPECT_NE(diff.find("/detail/nm.writes: missing from run (golden 3)"),
              std::string::npos) << diff;
    EXPECT_NE(diff.find("/detail/fm.reads: extra in run (7)"),
              std::string::npos) << diff;
    EXPECT_NE(diff.find("/detail/x: reordered"), std::string::npos)
        << diff;
    EXPECT_NE(diff.find("/series/2: extra in run (3)"), std::string::npos)
        << diff;
    // Unchanged members are not listed; integer spelling is exact.
    EXPECT_EQ(diff.find("/ipc"), std::string::npos) << diff;
    EXPECT_EQ(diff.find("nm.reads"), std::string::npos) << diff;
    EXPECT_NE(compareJson(R"({"n": 3})", R"({"n": 4})"), "");
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
// the per-bank wear counters (`fm.maxBankWearBytes` etc. appear only
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
