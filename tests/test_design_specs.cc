/**
 * @file
 * Smoke coverage for the whole design-spec grammar documented in
 * sim/runner.h: every documented spec must construct and serve 1k
 * accesses without tripping integrity checks, and malformed specs
 * must fail with a clear fatal error rather than an uncaught crash.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/design_registry.h"
#include "sim/runner.h"

namespace h2::sim {
namespace {

// Big enough for the default hybrid2 config (64 MiB DRAM-cache slice)
// while keeping each smoke run fast.
mem::MemSystemParams
smallMem()
{
    mem::MemSystemParams p;
    p.nmBytes = 256 * MiB;
    p.fmBytes = 1024 * MiB;
    return p;
}

/** Every spec form documented in the runner.h grammar comment. */
const std::vector<std::string> &
documentedSpecs()
{
    static const std::vector<std::string> specs = {
        "baseline",
        "hybrid2",
        "hybrid2:cacheonly",
        "hybrid2:migrall",
        "hybrid2:migrnone",
        "hybrid2:noremap",
        "hybrid2:cache=2,sector=4096,line=512",
        "ideal:128",
        "ideal:256",
        "tagless",
        "dfc",
        "dfc:512",
        "mempod",
        "chameleon",
        "lgm",
        "lgm:watermark=32",
    };
    return specs;
}

class DesignSpecSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DesignSpecSmoke, Serves1kAccessesWithInvariantsHeld)
{
    mem::EmptyLlcView llc;
    auto design = makeDesign(GetParam(), smallMem(), llc);
    ASSERT_NE(design, nullptr);
    ASSERT_FALSE(design->name().empty());

    const u64 capacity = design->flatCapacity();
    ASSERT_GE(capacity, 64 * MiB);

    Rng rng(7);
    Tick now = 0;
    for (int i = 0; i < 1000; ++i) {
        Addr addr = rng.below(capacity) & ~Addr(63);
        auto type = (i % 4 == 0) ? AccessType::Write : AccessType::Read;
        mem::MemResult r = design->access(addr, type, now);
        EXPECT_GE(r.completeAt(), now);
        now = r.completeAt();
    }
    design->checkInvariants();
    EXPECT_EQ(design->requests(), 1000u);

    StatSet stats;
    design->collectStats(stats);
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, DesignSpecSmoke, ::testing::ValuesIn(documentedSpecs()),
    [](const auto &paramInfo) {
        std::string name = paramInfo.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** The smallest and largest values @p p accepts. */
std::vector<u64>
acceptedEnds(const ParamDef &p)
{
    u64 lo = p.minU64;
    u64 hi = p.maxU64;
    if (p.powerOfTwo) {
        if (!isPowerOf2(lo))
            lo = u64(1) << (floorLog2(lo) + 1);
        hi = u64(1) << floorLog2(hi);
    }
    return {lo, hi};
}

TEST(DesignSpecBounds, EveryU64ParamEndConstructsOrFailsCleanly)
{
    std::vector<std::string> specs;
    for (const DesignInfo *d : DesignRegistry::instance().all())
        for (const ParamDef &p : d->params)
            if (p.type == ParamDef::Type::U64)
                for (u64 v : acceptedEnds(p))
                    specs.push_back(d->name + ":" + p.name + "=" +
                                    std::to_string(v));
    ASSERT_GE(specs.size(), 10u); // dfc, hybrid2 x3, ideal, lgm
    for (const std::string &spec : specs) {
        SCOPED_TRACE(spec);
        // Each spec runs in a child, so an abort fails it by name and
        // the other specs still run. A captured h2_fatal (a precise
        // error the CLI reports with exit 2) is an accepted outcome.
        EXPECT_EXIT(
            {
                ScopedFatalCapture capture;
                try {
                    mem::EmptyLlcView llc;
                    auto design = makeDesign(spec, smallMem(), llc);
                    Rng rng(3);
                    Tick now = 0;
                    for (int i = 0; i < 64; ++i) {
                        Addr a = rng.below(design->flatCapacity()) & ~Addr(63);
                        now = design->access(a, AccessType::Write, now)
                                  .completeAt();
                    }
                    design->checkInvariants();
                } catch (const FatalError &) {
                }
                std::exit(0);
            },
            ::testing::ExitedWithCode(0), "");
    }
}

using DesignSpecDeath = ::testing::Test;

TEST(DesignSpecDeath, UnknownHead)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("frobcache", mp, llc), "unknown design");
}

TEST(DesignSpecDeath, UnknownHybrid2Option)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("hybrid2:turbo=9", mp, llc),
                 "unknown hybrid2 option");
}

TEST(DesignSpecDeath, UnknownLgmOption)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("lgm:pressure=3", mp, llc),
                 "unknown lgm option");
}

TEST(DesignSpecDeath, NonNumericIdealLine)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("ideal:huge", mp, llc), "bad value");
}

TEST(DesignSpecDeath, NonNumericDfcLine)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("dfc:wide", mp, llc), "bad value");
}

TEST(DesignSpecDeath, NonNumericHybrid2Cache)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("hybrid2:cache=big", mp, llc), "bad value");
}

TEST(DesignSpecDeath, EmptyLgmWatermark)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("lgm:watermark=", mp, llc), "bad value");
}

TEST(DesignSpecDeath, DigitlessHybrid2Unused)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(makeDesign("hybrid2:unused=.", mp, llc), "bad value");
}

TEST(DesignSpecDeath, OutOfRangeHybrid2Cache)
{
    mem::EmptyLlcView llc;
    auto mp = smallMem();
    EXPECT_DEATH(
        makeDesign("hybrid2:cache=99999999999999999999999", mp, llc),
        "bad value");
}

} // namespace
} // namespace h2::sim
