/**
 * @file
 * Tests for the DRAM timing/energy model against Table 1 expectations.
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "dram/dram_device.h"

namespace h2::dram {
namespace {

TEST(DramParams, Hbm2MatchesTable1)
{
    auto p = DramParams::hbm2(GiB);
    EXPECT_EQ(p.channels, 8u);
    EXPECT_EQ(p.busBytes, 16u);   // 128-bit
    EXPECT_EQ(p.clockPs, 500u);   // 2 GHz
    EXPECT_EQ(p.tCas, 7u);
    EXPECT_EQ(p.tRcd, 7u);
    EXPECT_EQ(p.tRp, 7u);
    EXPECT_DOUBLE_EQ(p.rdPjPerBit, 6.4);
    EXPECT_DOUBLE_EQ(p.wrPjPerBit, 6.4);
    EXPECT_DOUBLE_EQ(p.actPreNj, 15.0);
    // 8 ch x 16 B x 2 beats x 2 GHz = 512 GB/s.
    EXPECT_NEAR(p.peakBandwidthBytesPerSec(), 512e9, 1e9);
}

TEST(DramParams, Ddr4MatchesTable1)
{
    auto p = DramParams::ddr4_3200(16 * GiB);
    EXPECT_EQ(p.channels, 2u);
    EXPECT_EQ(p.busBytes, 8u);    // 64-bit
    EXPECT_EQ(p.tCas, 22u);
    // 2 ch x 8 B x 3200 MT/s = 51.2 GB/s.
    EXPECT_NEAR(p.peakBandwidthBytesPerSec(), 51.2e9, 1e9);
}

class DramPresets : public ::testing::TestWithParam<const char *>
{
  protected:
    DramParams
    params() const
    {
        return std::string(GetParam()) == "hbm2"
            ? DramParams::hbm2(256 * MiB)
            : DramParams::ddr4_3200(256 * MiB);
    }
};

TEST_P(DramPresets, RowHitFasterThanRowMiss)
{
    DramDevice dev(params());
    Tick first = dev.access(0, 64, AccessType::Read, 0);
    // Same row, later in time: row hit.
    Tick hitStart = first + 100000;
    Tick hit = dev.access(64, 64, AccessType::Read, hitStart) - hitStart;
    // Same bank, different row: row miss (PRE+ACT+CAS).
    u64 rowSpan = u64(params().rowBytes) * params().channels;
    Tick missStart = first + 200000;
    Tick miss =
        dev.access(rowSpan * params().banksPerChannel, 64,
                   AccessType::Read, missStart) - missStart;
    EXPECT_LT(hit, miss);
    EXPECT_GE(miss, hit + Tick(params().tRp) * params().clockPs);
}

TEST_P(DramPresets, BankConflictSerializes)
{
    DramDevice dev(params());
    // Two accesses to the same bank at the same instant must serialize.
    Tick a = dev.access(0, 64, AccessType::Read, 0);
    Tick b = dev.access(0, 64, AccessType::Read, 0);
    EXPECT_GT(b, a);
}

TEST_P(DramPresets, DifferentChannelsProceedInParallel)
{
    auto p = params();
    DramDevice dev(p);
    Tick a = dev.access(0, 64, AccessType::Read, 0);
    // Next interleave chunk lands on the next channel.
    Tick b = dev.access(p.interleaveBytes, 64, AccessType::Read, 0);
    EXPECT_EQ(a, b);
}

TEST_P(DramPresets, LargeAccessSplitsAcrossChannels)
{
    auto p = params();
    DramDevice dev(p);
    Tick wide = dev.access(0, p.interleaveBytes * 4, AccessType::Read, 0);
    DramDevice dev2(p);
    Tick narrow = dev2.access(0, 64, AccessType::Read, 0);
    // Four channels in parallel: the wide access must not take 4x the
    // narrow one.
    EXPECT_LT(wide, narrow * 3);
    EXPECT_EQ(dev.stats().bytesRead, p.interleaveBytes * 4u);
}

TEST_P(DramPresets, EnergyAccounting)
{
    auto p = params();
    DramDevice dev(p);
    dev.access(0, 64, AccessType::Read, 0);
    double expected = 64 * 8 * p.rdPjPerBit + p.actPreNj * 1000.0;
    EXPECT_NEAR(dev.dynamicEnergyPj(), expected, 1e-6);
    // A row hit adds only transfer energy.
    dev.access(0, 64, AccessType::Write, 1000000);
    EXPECT_NEAR(dev.dynamicEnergyPj(),
                expected + 64 * 8 * p.wrPjPerBit, 1e-6);
    // The per-operation buckets decompose the total exactly.
    EXPECT_NEAR(dev.stats().readEnergyPj, 64 * 8 * p.rdPjPerBit, 1e-9);
    EXPECT_NEAR(dev.stats().writeEnergyPj, 64 * 8 * p.wrPjPerBit, 1e-9);
    EXPECT_NEAR(dev.stats().actEnergyPj, p.actPreNj * 1000.0, 1e-9);
}

TEST_P(DramPresets, StatsCounters)
{
    DramDevice dev(params());
    dev.access(0, 64, AccessType::Read, 0);
    dev.access(0, 64, AccessType::Write, 1000000);
    EXPECT_EQ(dev.stats().reads, 1u);
    EXPECT_EQ(dev.stats().writes, 1u);
    EXPECT_EQ(dev.stats().bytesRead, 64u);
    EXPECT_EQ(dev.stats().bytesWritten, 64u);
    EXPECT_EQ(dev.stats().rowEmpty, 1u);
    EXPECT_EQ(dev.stats().rowHits, 1u);
    dev.resetStats();
    EXPECT_EQ(dev.stats().totalBytes(), 0u);
}

TEST_P(DramPresets, QueueingDelaysLaterTraffic)
{
    auto p = params();
    DramDevice dev(p);
    // Saturate one channel with many back-to-back accesses.
    Tick lastDone = 0;
    for (int i = 0; i < 32; ++i)
        lastDone = dev.access(0, 64, AccessType::Read, 0);
    // The 32nd access cannot complete before 31 bursts of queueing.
    Tick burst = ceilDiv(64, u64(p.busBytes) * 2) * p.clockPs;
    EXPECT_GE(lastDone, 31 * burst);
}

TEST_P(DramPresets, UtilizationBounded)
{
    DramDevice dev(params());
    Tick done = 0;
    for (int i = 0; i < 100; ++i)
        done = dev.access((i * 64) % (1 * MiB), 64, AccessType::Read, 0);
    double util = dev.busUtilization(done);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST_P(DramPresets, CollectStats)
{
    DramDevice dev(params());
    dev.access(0, 64, AccessType::Read, 0);
    StatSet out;
    dev.collectStats(out, "dev");
    EXPECT_DOUBLE_EQ(out.get("dev.reads"), 1.0);
    EXPECT_DOUBLE_EQ(out.get("dev.bytesRead"), 64.0);
    EXPECT_GT(out.get("dev.dynamicEnergyPj"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Presets, DramPresets,
                         ::testing::Values("hbm2", "ddr4"));

TEST(DramDeviceDeath, OutOfCapacity)
{
    DramDevice dev(DramParams::hbm2(1 * MiB));
    EXPECT_DEATH(dev.access(1 * MiB, 64, AccessType::Read, 0),
                 "beyond capacity");
}

TEST(DramDeviceDeath, ZeroBytes)
{
    DramDevice dev(DramParams::hbm2(1 * MiB));
    EXPECT_DEATH(dev.access(0, 0, AccessType::Read, 0), "zero-byte");
}

TEST(DramDeviceDeath, NonPowerOfTwoGeometry)
{
    // decode() and the burst sizing are shifts and masks only.
    auto threeChannels = DramParams::ddr4_3200(96 * MiB);
    threeChannels.channels = 3;
    EXPECT_DEATH(DramDevice{threeChannels}, "powers of two");
    auto sixBanks = DramParams::ddr4_3200(96 * MiB);
    sixBanks.banksPerChannel = 6;
    EXPECT_DEATH(DramDevice{sixBanks}, "powers of two");
    auto oddRow = DramParams::hbm2(96 * MiB);
    oddRow.rowBytes = 3072;
    EXPECT_DEATH(DramDevice{oddRow}, "powers of two");
    auto oddBus = DramParams::hbm2(96 * MiB);
    oddBus.busBytes = 12;
    EXPECT_DEATH(DramDevice{oddBus}, "powers of two");
}

TEST(DramDevice, WriteTimingComparableToRead)
{
    DramDevice dev(DramParams::ddr4_3200(256 * MiB));
    Tick r = dev.access(0, 64, AccessType::Read, 0);
    DramDevice dev2(DramParams::ddr4_3200(256 * MiB));
    Tick w = dev2.access(0, 64, AccessType::Write, 0);
    EXPECT_EQ(r, w);
}

TEST(DramDevice, HbmFasterThanDdr4ForSameAccess)
{
    DramDevice hbm(DramParams::hbm2(256 * MiB));
    DramDevice ddr(DramParams::ddr4_3200(256 * MiB));
    Tick thbm = hbm.access(0, 64, AccessType::Read, 0);
    Tick tddr = ddr.access(0, 64, AccessType::Read, 0);
    EXPECT_LT(thbm, tddr);
}

TEST(DramDevice, BusUtilizationWindowFollowsResetStats)
{
    // Regression: resetStats used to clear the busy accumulator but
    // leave the utilization denominator spanning from tick 0, so any
    // post-warm-up utilization was silently diluted by the warm-up
    // window. The window start must move to the reset point.
    DramDevice dev(DramParams::ddr4_3200(256 * MiB));
    const Tick window = 10000000;

    Tick done = 0;
    for (int i = 0; i < 64; ++i)
        done = dev.access(Addr(i) * 64, 64, AccessType::Read, 0);
    ASSERT_LT(done, window);
    double before = dev.busUtilization(window);
    ASSERT_GT(before, 0.0);

    dev.resetStats();
    EXPECT_EQ(dev.statsSinceTick(), done);
    // Nothing has run inside the new window: exactly zero, not a
    // cleared numerator over the old denominator.
    EXPECT_DOUBLE_EQ(dev.busUtilization(window), 0.0);

    // The same burst replayed inside the new window must report the
    // same utilization as the original run did over its own window —
    // the pre-fix code halved it (busy / [0, 2*window]).
    for (int i = 0; i < 64; ++i)
        dev.access(Addr(i) * 64, 64, AccessType::Read, window);
    EXPECT_NEAR(dev.busUtilization(done + window), before, 1e-12);
}

TEST(DramDevice, BusUtilizationDegenerateWindowIsZero)
{
    DramDevice dev(DramParams::ddr4_3200(256 * MiB));
    EXPECT_DOUBLE_EQ(dev.busUtilization(0), 0.0);
    Tick done = dev.access(0, 64, AccessType::Read, 0);
    dev.resetStats();
    // now == window start (and anything earlier) has no width to be
    // busy in.
    EXPECT_DOUBLE_EQ(dev.busUtilization(done), 0.0);
    EXPECT_DOUBLE_EQ(dev.busUtilization(0), 0.0);
}

// ----- PCM far-memory backend ----------------------------------------

TEST(FarMemTechNames, RoundTrip)
{
    EXPECT_STREQ(to_string(FarMemTech::Dram), "dram");
    EXPECT_STREQ(to_string(FarMemTech::Pcm), "pcm");
    EXPECT_EQ(parseFarMemTech("dram"), FarMemTech::Dram);
    EXPECT_EQ(parseFarMemTech("pcm"), FarMemTech::Pcm);
    EXPECT_FALSE(parseFarMemTech("nvm").has_value());
    EXPECT_FALSE(parseFarMemTech("").has_value());
}

TEST(PcmParams, AsymmetricPreset)
{
    auto p = DramParams::pcm(16 * GiB);
    EXPECT_EQ(p.name, "PCM");
    // Slow array reads, slower writes still, asymmetric energy.
    EXPECT_GT(p.tRcd, DramParams::ddr4_3200(16 * GiB).tRcd);
    EXPECT_GT(p.tWr, p.tCas);
    EXPECT_GT(p.wrPjPerBit, p.rdPjPerBit);
    EXPECT_TRUE(p.trackWear);
    // The DRAM presets stay symmetric with no programming time.
    EXPECT_EQ(DramParams::ddr4_3200(16 * GiB).tWr, 0u);
    EXPECT_EQ(DramParams::hbm2(GiB).tWr, 0u);
    // farMemory dispatches on the tech knob.
    EXPECT_EQ(DramParams::farMemory(FarMemTech::Dram, GiB).name,
              "DDR4-3200");
    EXPECT_EQ(DramParams::farMemory(FarMemTech::Pcm, GiB).name, "PCM");
}

TEST(PcmDevice, WriteOccupiesBankPastItsBurst)
{
    // A write completes with its data burst, but cell programming
    // (tWr) keeps the bank busy afterwards: a read issued right behind
    // a write to the same bank waits out the programming time, while
    // the same read behind a read does not.
    auto p = DramParams::pcm(256 * MiB);
    DramDevice afterWrite(p);
    Tick w = afterWrite.access(0, 64, AccessType::Write, 0);
    Tick readBehindWrite =
        afterWrite.access(0, 64, AccessType::Read, 0);
    DramDevice afterRead(p);
    Tick r = afterRead.access(0, 64, AccessType::Read, 0);
    Tick readBehindRead = afterRead.access(0, 64, AccessType::Read, 0);
    EXPECT_EQ(w, r); // the write itself is not slower...
    EXPECT_EQ(readBehindWrite - readBehindRead,
              Tick(p.tWr) * p.clockPs); // ...its successor is
}

TEST(PcmDevice, AsymmetricEnergyClosedForm)
{
    auto p = DramParams::pcm(256 * MiB);
    DramDevice dev(p);
    dev.access(0, 64, AccessType::Read, 0);          // rowEmpty: ACT
    dev.access(0, 128, AccessType::Write, 10000000); // row hit
    double rd = 64 * 8 * p.rdPjPerBit;
    double wr = 128 * 8 * p.wrPjPerBit;
    double act = p.actPreNj * 1000.0;
    EXPECT_NEAR(dev.stats().readEnergyPj, rd, 1e-9);
    EXPECT_NEAR(dev.stats().writeEnergyPj, wr, 1e-9);
    EXPECT_NEAR(dev.stats().actEnergyPj, act, 1e-9);
    EXPECT_NEAR(dev.dynamicEnergyPj(), rd + wr + act, 1e-9);
    // resetStats starts a fresh window for every energy bucket.
    dev.resetStats();
    EXPECT_DOUBLE_EQ(dev.dynamicEnergyPj(), 0.0);
    dev.access(0, 64, AccessType::Write, 20000000);
    EXPECT_DOUBLE_EQ(dev.stats().readEnergyPj, 0.0);
    EXPECT_NEAR(dev.dynamicEnergyPj(), 64 * 8 * p.wrPjPerBit, 1e-9);
}

TEST(PcmDevice, WearCountersTrackPerBankWrites)
{
    auto p = DramParams::pcm(256 * MiB);
    DramDevice dev(p);
    // Two writes to bank 0 of channel 0, one to the same row later.
    dev.access(0, 64, AccessType::Write, 0);
    dev.access(0, 64, AccessType::Write, 10000000);
    // One read: reads never wear PCM cells.
    dev.access(0, 64, AccessType::Read, 20000000);
    EXPECT_EQ(dev.wearTotalBytes(), 128u);
    EXPECT_EQ(dev.bankWearBytes(0, 0), 128u);
    // All wear on one bank: the imbalance equals the max.
    EXPECT_EQ(dev.maxBankWearDelta(), 128u);

    StatSet out;
    dev.collectStats(out, "fm");
    EXPECT_DOUBLE_EQ(out.get("fm.bytesWritten"), 128.0);
    EXPECT_DOUBLE_EQ(out.get("fm.maxBankWearBytes"), 128.0);
    EXPECT_DOUBLE_EQ(out.get("fm.maxBankWearDelta"), 128.0);
    EXPECT_DOUBLE_EQ(out.get("fm.rowEmpty"), 1.0);

    // Wear resets with the stats window (measurement counters, not
    // lifetime odometers — the System resets after warm-up).
    dev.resetStats();
    EXPECT_EQ(dev.wearTotalBytes(), 0u);
    EXPECT_EQ(dev.maxBankWearDelta(), 0u);
}

TEST(DramDevice, WearKeysAbsentWithoutTracking)
{
    // DRAM devices must not grow wear keys (golden compatibility, and
    // the stats would be meaningless for an unlimited-endurance
    // device).
    DramDevice dev(DramParams::ddr4_3200(256 * MiB));
    dev.access(0, 64, AccessType::Write, 0);
    StatSet out;
    dev.collectStats(out, "fm");
    EXPECT_FALSE(out.has("fm.maxBankWearBytes"));
    EXPECT_FALSE(out.has("fm.maxBankWearDelta"));
    EXPECT_TRUE(out.has("fm.rowEmpty"));
    EXPECT_EQ(dev.wearTotalBytes(), 0u);
    EXPECT_EQ(dev.bankWearBytes(0, 0), 0u);
}

TEST(DramDevice, CollectStatsEmitsRowEmpty)
{
    // Regression: collectStats once dropped the rowEmpty count that
    // DramDevice::issue keeps, so the first-touch activation count
    // never reached Metrics.detail.
    DramDevice dev(DramParams::hbm2(256 * MiB));
    dev.access(0, 64, AccessType::Read, 0); // closed bank: rowEmpty
    dev.access(0, 64, AccessType::Read, 10000000); // row hit
    u64 rowSpan = u64(dev.params().rowBytes) * dev.params().channels
        * dev.params().banksPerChannel;
    dev.access(rowSpan, 64, AccessType::Read, 20000000); // row miss
    StatSet out;
    dev.collectStats(out, "nm");
    EXPECT_DOUBLE_EQ(out.get("nm.rowEmpty"), 1.0);
    EXPECT_DOUBLE_EQ(out.get("nm.rowHits"), 1.0);
    EXPECT_DOUBLE_EQ(out.get("nm.rowMisses"), 1.0);
    // The energy split is emitted for every device.
    EXPECT_GT(out.get("nm.readEnergyPj"), 0.0);
    EXPECT_DOUBLE_EQ(out.get("nm.writeEnergyPj"), 0.0);
    EXPECT_GT(out.get("nm.actEnergyPj"), 0.0);
}

} // namespace
} // namespace h2::dram
