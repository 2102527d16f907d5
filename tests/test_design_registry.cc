/**
 * @file
 * Tests for the typed DesignSpec and the self-registering design
 * registry: parse/round-trip and rejection coverage for every
 * registered design, canonical-form equality (equivalent spellings
 * memoize as one design), and registry completeness (every evaluated
 * design resolves; the generated grammar matches the schemas).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/units.h"
#include "resident.h"
#include "sim/design_registry.h"
#include "sim/sweep_runner.h"

namespace h2::sim {
namespace {

TEST(DesignRegistry, EveryKindRegisteredUnderItsName)
{
    // all() walks the registry in name order.
    const std::vector<std::string> names = {
        "baseline", "chameleon", "dfc",    "hybrid2",
        "ideal",    "lgm",       "mempod", "tagless",
    };
    std::vector<const DesignInfo *> all = DesignRegistry::instance().all();
    ASSERT_EQ(all.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        const DesignInfo &info = *all[i];
        EXPECT_EQ(info.name, names[i]);
        EXPECT_NE(info.factory, nullptr);
        EXPECT_FALSE(info.description.empty());
        EXPECT_EQ(DesignRegistry::instance().find(info.name), &info);
    }
}

TEST(DesignRegistry, EveryEvaluatedDesignResolves)
{
    mem::EmptyLlcView llc;
    mem::MemSystemParams mp;
    mp.nmBytes = 256 * MiB;
    mp.fmBytes = 1024 * MiB;
    ASSERT_EQ(evaluatedDesigns().size(), 6u);
    for (const auto &spec : evaluatedDesigns()) {
        DesignSpec::ParseResult r = DesignSpec::parse(spec);
        ASSERT_TRUE(r.ok()) << spec << ": " << r.error;
        // Canonical and round-trips.
        EXPECT_EQ(r.spec->toString(), spec);
        auto again = DesignSpec::parse(r.spec->toString());
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(*again.spec, *r.spec);
        // And instantiates.
        EXPECT_NE(makeDesign(*r.spec, mp, llc), nullptr);
    }
}

TEST(DesignRegistry, BuildingADesignTouchesNoDenseTable)
{
    // The dense tables (remap tables, tag stores) are sized by the
    // machine, 35 MB of remap table at 1 GiB NM over 16 GiB FM, but
    // start as demand-zero memory: a design costs resident memory only
    // for the entries a run touches.
    mem::EmptyLlcView llc;
    mem::MemSystemParams mp;
    mp.nmBytes = 1024 * MiB;
    mp.fmBytes = 16384 * MiB;
    for (const char *spec :
         {"hybrid2", "mempod", "lgm", "dfc", "ideal", "tagless"}) {
        u64 before = test::residentBytes();
        auto design = makeDesign(spec, mp, llc);
        u64 growth = test::residentGrowth(before);
        ASSERT_NE(design, nullptr) << spec;
        EXPECT_LT(growth, 4 * MiB) << spec;
    }
}

TEST(DesignRegistry, GrammarHelpCoversEveryDesignAndParameter)
{
    std::string help = DesignRegistry::instance().grammarHelp();
    for (const DesignInfo *d : DesignRegistry::instance().all()) {
        EXPECT_NE(help.find(d->name), std::string::npos) << d->name;
        for (const auto &p : d->params)
            EXPECT_NE(help.find(p.name), std::string::npos)
                << d->name << ":" << p.name;
    }
}

TEST(DesignSpecParse, DefaultSpecIsJustTheName)
{
    for (const DesignInfo *d : DesignRegistry::instance().all()) {
        EXPECT_EQ(d->defaultSpec().toString(), d->name);
        auto r = DesignSpec::parse(d->name);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.spec->toString(), d->name);
        EXPECT_EQ(&r.spec->info(), d);
    }
}

TEST(DesignSpecParse, ExplicitDefaultsCanonicalizeAway)
{
    EXPECT_EQ(canonicalDesignSpec("dfc"), "dfc");
    EXPECT_EQ(canonicalDesignSpec("dfc:1024"), "dfc");
    EXPECT_EQ(canonicalDesignSpec("dfc:line=1024"), "dfc");
    EXPECT_EQ(canonicalDesignSpec("ideal:256"), "ideal");
    EXPECT_EQ(canonicalDesignSpec("lgm:watermark=16"), "lgm");
    EXPECT_EQ(canonicalDesignSpec("hybrid2:cache=64,sector=2048,line=256"),
              "hybrid2");
}

TEST(DesignSpecParse, CanonicalFormIsSchemaOrdered)
{
    EXPECT_EQ(canonicalDesignSpec("hybrid2:line=512,cache=2"),
              "hybrid2:cache=2,line=512");
    EXPECT_EQ(canonicalDesignSpec("hybrid2:noremap,cache=2"),
              "hybrid2:cache=2,noremap");
    EXPECT_EQ(canonicalDesignSpec("dfc:512"), "dfc:line=512");
    EXPECT_EQ(canonicalDesignSpec("ideal:128"), "ideal:line=128");
}

TEST(DesignSpecParse, FractionalParamsRoundTripInFixedNotation)
{
    // Shortest to_chars would render 0.0001 as "1e-04", which the
    // digits-and-dots grammar could not re-parse; the canonical form
    // must stay in fixed notation for any in-range value.
    for (const char *v : {"0.0001", "12.5", "0.5", "99.875"}) {
        std::string spec = std::string("hybrid2:unused=") + v;
        std::string canonical = canonicalDesignSpec(spec);
        auto r = DesignSpec::parse(canonical);
        ASSERT_TRUE(r.ok()) << canonical << ": " << r.error;
        EXPECT_EQ(r.spec->toString(), canonical);
        EXPECT_EQ(r.spec->f64Param("unused"),
                  DesignSpec::parseOrFatal(spec).f64Param("unused"));
    }
    EXPECT_EQ(canonicalDesignSpec("hybrid2:unused=0.0001"),
              "hybrid2:unused=0.0001");
}

TEST(DesignSpecParse, EquivalentSpellingsCompareEqual)
{
    auto a = DesignSpec::parse("dfc");
    auto b = DesignSpec::parse("dfc:1024");
    auto c = DesignSpec::parse("dfc:512");
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a.spec, *b.spec);
    EXPECT_FALSE(*a.spec == *c.spec);
}

TEST(DesignSpecParse, TypedAccessorsSeeDefaultsAndOverrides)
{
    auto r = DesignSpec::parse("hybrid2:cache=2,noremap");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.spec->u64Param("cache"), 2u);
    EXPECT_EQ(r.spec->u64Param("sector"), 2048u); // schema default
    EXPECT_TRUE(r.spec->flag("noremap"));
    EXPECT_FALSE(r.spec->flag("migrall"));
    EXPECT_DOUBLE_EQ(r.spec->f64Param("unused"), 0.0);
    EXPECT_TRUE(r.spec->isSet("cache"));
    EXPECT_FALSE(r.spec->isSet("sector"));
}

TEST(DesignSpecParse, UnknownDesignIsAPreciseError)
{
    auto r = DesignSpec::parse("frobcache");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("unknown design"), std::string::npos);
    EXPECT_NE(r.error.find("frobcache"), std::string::npos);
}

TEST(DesignSpecParse, UnknownOptionRejectedForEveryDesign)
{
    for (const DesignInfo *d : DesignRegistry::instance().all()) {
        auto r = DesignSpec::parse(d->name + ":zzz=1");
        ASSERT_FALSE(r.ok()) << d->name;
        EXPECT_NE(r.error.find("unknown " + d->name + " option"),
                  std::string::npos)
            << r.error;
    }
}

TEST(DesignSpecParse, BadValuesRejectedForEveryNumericParameter)
{
    for (const DesignInfo *d : DesignRegistry::instance().all()) {
        for (const auto &p : d->params) {
            if (p.type == ParamDef::Type::Flag) {
                auto r = DesignSpec::parse(d->name + ":" + p.name + "=1");
                ASSERT_FALSE(r.ok()) << d->name << ":" << p.name;
                EXPECT_NE(r.error.find("bad value"), std::string::npos);
                continue;
            }
            for (const char *bad : {"abc", "", "1x"}) {
                auto r = DesignSpec::parse(d->name + ":" + p.name + "=" +
                                           bad);
                ASSERT_FALSE(r.ok())
                    << d->name << ":" << p.name << "=" << bad;
                EXPECT_NE(r.error.find("bad value"), std::string::npos)
                    << r.error;
            }
            if (p.type == ParamDef::Type::U64) {
                auto r = DesignSpec::parse(
                    d->name + ":" + p.name + "=99999999999999999999999");
                ASSERT_FALSE(r.ok());
                EXPECT_NE(r.error.find("bad value"), std::string::npos);
            }
        }
    }
}

TEST(DesignSpecParse, RangeAndPowerOfTwoEnforced)
{
    // Below minimum.
    EXPECT_FALSE(DesignSpec::parse("lgm:watermark=0").ok());
    EXPECT_FALSE(DesignSpec::parse("hybrid2:cache=0").ok());
    EXPECT_FALSE(DesignSpec::parse("ideal:32").ok());
    // Non-power-of-two line/sector sizes.
    EXPECT_FALSE(DesignSpec::parse("ideal:96").ok());
    EXPECT_FALSE(DesignSpec::parse("dfc:1000").ok());
    EXPECT_FALSE(DesignSpec::parse("hybrid2:sector=1000").ok());
    auto r = DesignSpec::parse("hybrid2:line=100");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("power of two"), std::string::npos);
}

TEST(DesignSpecParse, CrossParameterValidation)
{
    // Line exceeding the sector is impossible hardware.
    auto r = DesignSpec::parse("hybrid2:sector=256,line=512");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("must not exceed sector"), std::string::npos);
    // Conflicting ablation flags.
    EXPECT_FALSE(DesignSpec::parse("hybrid2:migrall,migrnone").ok());
    // The valid combination from the benches still parses.
    EXPECT_TRUE(
        DesignSpec::parse("hybrid2:cache=2,sector=4096,line=512").ok());
}

TEST(DesignSpecParse, DuplicateOptionRejected)
{
    auto r = DesignSpec::parse("dfc:line=512,line=256");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("duplicate"), std::string::npos);
    // Positional + named spelling of the same parameter too.
    EXPECT_FALSE(DesignSpec::parse("ideal:128,line=128").ok());
}

TEST(DesignSpecParse, CaseAndWhitespaceAreNotForgiven)
{
    // The grammar is exact: no trimming, no case folding.
    EXPECT_FALSE(DesignSpec::parse("DFC").ok());
    EXPECT_FALSE(DesignSpec::parse("dfc :512").ok());
}

TEST(DesignSpecParse, RunnerMemoizesEquivalentSpellingsAsOneRun)
{
    RunConfig cfg;
    cfg.nmBytes = 32 * MiB;
    cfg.fmBytes = 256 * MiB;
    cfg.instrPerCore = 5'000;
    cfg.numCores = 1;
    SweepRunner runner(cfg);
    auto w = workloads::findWorkload("lbm");
    w.footprintBytes = 16 * MiB;
    const Metrics &a = runner.run(w, "dfc");
    const Metrics &b = runner.run(w, "dfc:1024");
    const Metrics &c = runner.run(w, "dfc:line=1024");
    EXPECT_EQ(&a, &b); // identical object: one simulation, one cache slot
    EXPECT_EQ(&a, &c);
}

} // namespace
} // namespace h2::sim
