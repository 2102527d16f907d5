/**
 * @file
 * Tests for the common substrate: units, stats, RNG, permutation, log,
 * and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "common/zero_lane.h"
#include "resident.h"

namespace h2 {
namespace {

TEST(Units, Constants)
{
    EXPECT_EQ(KiB, 1024u);
    EXPECT_EQ(MiB, 1024u * 1024u);
    EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
    using namespace literals;
    EXPECT_EQ(64_KiB, 64 * KiB);
    EXPECT_EQ(3_GiB, 3 * GiB);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(64), "64B");
    EXPECT_EQ(formatBytes(2 * KiB), "2KiB");
    EXPECT_EQ(formatBytes(64 * MiB), "64MiB");
    EXPECT_EQ(formatBytes(GiB), "1GiB");
    EXPECT_EQ(formatBytes(GiB + GiB / 2), "1.50GiB");
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500ps");
    EXPECT_EQ(formatTime(3500), "3.50ns");
    EXPECT_EQ(formatTime(50 * psPerUs), "50.00us");
    EXPECT_EQ(formatTime(2 * psPerMs), "2.00ms");
}

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Types, PowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2048));
    EXPECT_FALSE(isPowerOf2(2049));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
}

TEST(Stats, DistributionBasics)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    d.sample(3.0);
    d.sample(1.0);
    d.sample(2.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, HistogramBucketsAndQuantile)
{
    Histogram h(10, 1.0);
    for (int i = 0; i < 100; ++i)
        h.sample(i % 10 + 0.5);
    EXPECT_EQ(h.count(), 100u);
    for (u32 b = 0; b < 10; ++b)
        EXPECT_EQ(h.bucketCount(b), 10u);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, HistogramOverflowDoesNotCrash)
{
    Histogram h(4, 1.0);
    h.sample(100.0);
    h.sample(-5.0); // clamped to bucket 0
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
}

TEST(Stats, RatioOrZero)
{
    EXPECT_DOUBLE_EQ(ratioOrZero(6.0, 3.0), 2.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(0.0, 3.0), 0.0);
    // Regression (figures fig18): a zero-energy baseline must yield a
    // renderable 0, not inf/NaN in the table or the JSON artifact.
    EXPECT_DOUBLE_EQ(ratioOrZero(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(-5.0, 0.0), 0.0);
    double inf = std::numeric_limits<double>::infinity();
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(ratioOrZero(inf, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(2.0, inf), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(nan, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(2.0, nan), 0.0);
    // Huge/tiny overflowing to inf is also clamped.
    EXPECT_DOUBLE_EQ(ratioOrZero(1e308, 1e-308), 0.0);
}

TEST(Stats, StatSet)
{
    StatSet s;
    s.add("a.b", 2.0);
    s.increment("a.b", 3.0);
    s.increment("fresh");
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("missing"));
    EXPECT_DOUBLE_EQ(s.get("a.b"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("fresh"), 1.0);
    EXPECT_NE(s.toString().find("a.b"), std::string::npos);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7), c(8);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(3);
    std::set<u64> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng r(9);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, SplitMixMixes)
{
    EXPECT_NE(splitmix64(1), splitmix64(2));
    EXPECT_EQ(splitmix64(42), splitmix64(42));
}

class PermutationSizes : public ::testing::TestWithParam<u64>
{
};

TEST_P(PermutationSizes, IsBijection)
{
    u64 size = GetParam();
    RandomPermutation perm(size, 1234);
    std::set<u64> images;
    for (u64 i = 0; i < size; ++i) {
        u64 img = perm.map(i);
        ASSERT_LT(img, size);
        images.insert(img);
    }
    EXPECT_EQ(images.size(), size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes,
                         ::testing::Values(1, 2, 3, 16, 100, 1000, 4096,
                                           5000));

TEST(Permutation, SeedChangesMapping)
{
    RandomPermutation a(1024, 1), b(1024, 2);
    int differing = 0;
    for (u64 i = 0; i < 1024; ++i)
        differing += a.map(i) != b.map(i);
    EXPECT_GT(differing, 900);
}

TEST(Permutation, DeterministicAcrossInstances)
{
    RandomPermutation a(512, 99), b(512, 99);
    for (u64 i = 0; i < 512; ++i)
        EXPECT_EQ(a.map(i), b.map(i));
}

TEST(Log, QuietFlagRoundTrip)
{
    setLogQuiet(true);
    EXPECT_TRUE(logQuiet());
    h2_warn("suppressed warning (not shown)");
    setLogQuiet(false);
    EXPECT_FALSE(logQuiet());
}

TEST(LogDeath, AssertPanics)
{
    EXPECT_DEATH(h2_assert(false, "boom"), "boom");
}

TEST(ZeroLane, StartsZeroedAndMovesOwnership)
{
    for (u64 count : {u64(3), u64(3) << 18}) { // 24 B; 6 MiB (huge)
        ZeroLane<u64> lane(count);
        ASSERT_EQ(lane.size(), count);
        EXPECT_EQ(lane[0], 0u);
        EXPECT_EQ(lane[count - 1], 0u);
        if (count * sizeof(u64) >= 2 * MiB) {
            EXPECT_EQ(reinterpret_cast<u64>(lane.data()) % (2 * MiB), 0u);
        }
        lane[count - 1] = 7;
        ZeroLane<u64> moved(std::move(lane));
        EXPECT_EQ(moved[count - 1], 7u);
        EXPECT_EQ(lane.size(), 0u);
        EXPECT_EQ(lane.data(), nullptr);
        lane = std::move(moved);
        EXPECT_EQ(lane[count - 1], 7u);
    }
}

TEST(ZeroLane, FailedMapIsFatalAndNamesTheByteCount)
{
    // 2^60 bytes exceeds any user address space, so the map fails.
    ScopedFatalCapture capture;
    try {
        ZeroLane<u8> lane(u64(1) << 60);
        FAIL() << "a 2^60-byte lane mapped";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("1152921504606846976 bytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SparseLane, UnwrittenReadsAreZeroAndAllocateNothing)
{
    // 256 Mi entries (1 GiB of u32) reserved; reading all over it must
    // claim no leaf and leave the resident set where it was.
    SparseLane<u32> lane(u64(1) << 28);
    ASSERT_EQ(lane.size(), u64(1) << 28);
    u64 before = test::residentBytes();
    Rng rng(5);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(lane.get(rng.below(lane.size())), 0u);
    EXPECT_EQ(lane.get(lane.size() - 1), 0u);
    EXPECT_EQ(lane.leaves(), 0u);
    EXPECT_LT(test::residentGrowth(before), 1 * MiB);
}

TEST(SparseLane, RefPacksLeavesInFirstWriteOrder)
{
    constexpr u64 leaf = SparseLane<u64>::kLeafEntries;
    SparseLane<u64> lane(10 * leaf + 5); // last leaf partial
    lane.ref(7 * leaf + 3) = 11;
    EXPECT_EQ(lane.leaves(), 1u);
    lane.ref(2 * leaf) = 22;
    lane.ref(10 * leaf + 4) = 33;
    EXPECT_EQ(lane.leaves(), 3u);
    lane.ref(7 * leaf + leaf - 1) = 44; // same leaf as the first write
    EXPECT_EQ(lane.leaves(), 3u);
    // The second leaf claimed sits right after the first in the arena,
    // and the third right after it.
    EXPECT_EQ(&lane.ref(2 * leaf) - &lane.ref(7 * leaf), std::ptrdiff_t(leaf));
    EXPECT_EQ(&lane.ref(10 * leaf) - &lane.ref(2 * leaf), std::ptrdiff_t(leaf));
    EXPECT_EQ(lane.get(7 * leaf + 3), 11u);
    EXPECT_EQ(lane.get(2 * leaf), 22u);
    EXPECT_EQ(lane.get(10 * leaf + 4), 33u);
    EXPECT_EQ(lane.get(7 * leaf + leaf - 1), 44u);
    // Unwritten entries of claimed leaves and of absent ones read 0.
    EXPECT_EQ(lane.get(7 * leaf), 0u);
    EXPECT_EQ(lane.get(2 * leaf + 1), 0u);
    EXPECT_EQ(lane.get(0), 0u);
    EXPECT_EQ(lane.get(9 * leaf + 9), 0u);
    EXPECT_EQ(lane.leaves(), 3u);
}

TEST(SparseLane, MovesOwnership)
{
    constexpr u64 leaf = SparseLane<u32>::kLeafEntries;
    SparseLane<u32> lane(4 * leaf);
    lane.ref(3 * leaf + 1) = 9;
    SparseLane<u32> moved(std::move(lane));
    EXPECT_EQ(moved.size(), 4 * leaf);
    EXPECT_EQ(moved.leaves(), 1u);
    EXPECT_EQ(moved.get(3 * leaf + 1), 9u);
    EXPECT_EQ(lane.size(), 0u);
    EXPECT_EQ(lane.leaves(), 0u);
    lane = std::move(moved);
    EXPECT_EQ(lane.get(3 * leaf + 1), 9u);
    EXPECT_EQ(lane.leaves(), 1u);
    lane.ref(0) = 1; // the moved-back lane keeps claiming in order
    EXPECT_EQ(lane.leaves(), 2u);
    EXPECT_EQ(&lane.ref(0) - &lane.ref(3 * leaf), std::ptrdiff_t(leaf));
    EXPECT_EQ(moved.size(), 0u);
}

TEST(ThreadPool, RunsAllTasksAcrossWorkers)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<u64> sum{0};
    for (u64 i = 1; i <= 1000; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.drain();
    EXPECT_EQ(sum.load(), 500500u);
}

TEST(ThreadPool, DrainIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> n{0};
    pool.submit([&] { ++n; });
    pool.drain();
    EXPECT_EQ(n.load(), 1);
    pool.submit([&] { ++n; });
    pool.submit([&] { ++n; });
    pool.drain();
    EXPECT_EQ(n.load(), 3);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> n{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ++n; });
    }
    EXPECT_EQ(n.load(), 64);
}

} // namespace
} // namespace h2
