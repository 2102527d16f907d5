/**
 * @file
 * Property tests pinning the hot-path shift/mask arithmetic to the
 * reference div/mod formulas it replaced: DramDevice::decode across
 * randomized power-of-two geometries, the single-chunk timing probe
 * against the access it predicts, and the XTA's power-of-two set
 * mapping.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "core/xta.h"
#include "dram/dram_device.h"

namespace h2 {
namespace {

/** The original decode arithmetic, kept verbatim as the oracle. */
void
referenceDecode(const dram::DramParams &cfg, Addr addr, u32 &channel,
                u64 &bank, u64 &row)
{
    u64 chunk = addr / cfg.interleaveBytes;
    channel = static_cast<u32>(chunk % cfg.channels);
    u64 chAddr = (chunk / cfg.channels) * cfg.interleaveBytes
        + (addr % cfg.interleaveBytes);
    bank = (chAddr / cfg.rowBytes) % cfg.banksPerChannel;
    row = chAddr / (u64(cfg.rowBytes) * cfg.banksPerChannel);
}

dram::DramParams
geometry(u32 channels, u32 banks, u32 rowBytes, u32 interleave)
{
    dram::DramParams p;
    p.name = "prop";
    p.capacityBytes = 64 * MiB;
    p.channels = channels;
    p.banksPerChannel = banks;
    p.rowBytes = rowBytes;
    p.interleaveBytes = interleave;
    return p;
}

TEST(DramDecode, MatchesReferenceAcrossRandomGeometries)
{
    Rng rng(101);
    const u32 channelChoices[] = {1, 2, 4, 8, 16};
    const u32 bankChoices[] = {1, 2, 4, 8, 16};
    const u32 rowChoices[] = {512, 1024, 2048, 4096};
    const u32 ilvChoices[] = {64, 128, 256, 512, 1024};
    for (int g = 0; g < 60; ++g) {
        auto p = geometry(channelChoices[rng.below(5)],
                          bankChoices[rng.below(5)],
                          rowChoices[rng.below(4)],
                          ilvChoices[rng.below(5)]);
        dram::DramDevice dev(p);
        for (int i = 0; i < 500; ++i) {
            Addr addr = rng.below(p.capacityBytes);
            u32 ch, refCh;
            u64 bank, row, refBank, refRow;
            dev.decode(addr, ch, bank, row);
            referenceDecode(p, addr, refCh, refBank, refRow);
            ASSERT_EQ(ch, refCh)
                << "ch=" << p.channels << " banks=" << p.banksPerChannel
                << " row=" << p.rowBytes << " addr=" << addr;
            ASSERT_EQ(bank, refBank)
                << "ch=" << p.channels << " banks=" << p.banksPerChannel
                << " row=" << p.rowBytes << " addr=" << addr;
            ASSERT_EQ(row, refRow)
                << "ch=" << p.channels << " banks=" << p.banksPerChannel
                << " row=" << p.rowBytes << " addr=" << addr;
        }
    }
}

TEST(DramDecode, Table1PresetsMatchReference)
{
    Rng rng(7);
    for (auto p : {dram::DramParams::hbm2(1 * GiB),
                   dram::DramParams::ddr4_3200(4 * GiB)}) {
        dram::DramDevice dev(p);
        for (int i = 0; i < 2000; ++i) {
            Addr addr = rng.below(p.capacityBytes);
            u32 ch, refCh;
            u64 bank, row, refBank, refRow;
            dev.decode(addr, ch, bank, row);
            referenceDecode(p, addr, refCh, refBank, refRow);
            ASSERT_EQ(ch, refCh);
            ASSERT_EQ(bank, refBank);
            ASSERT_EQ(row, refRow);
        }
    }
}

TEST(DramDecode, ProbeEqualsAccessForSingleChunk)
{
    // MemController's idle drain issues a queued write into a gap only
    // if probeChunkDone says it completes in time, so the probe must
    // predict exactly what access() then reports for that chunk: reads
    // and writes (PCM's write recovery included), row hits, misses and
    // contended starts, on a multi-channel geometry unlike any preset's.
    for (const char *preset : {"hbm2", "ddr4", "pcm"}) {
        std::string name(preset);
        auto p = name == "hbm2" ? dram::DramParams::hbm2(96 * MiB)
            : name == "ddr4"    ? dram::DramParams::ddr4_3200(96 * MiB)
                                : dram::DramParams::pcm(96 * MiB);
        p.channels = 4;
        p.banksPerChannel = 8;
        dram::DramDevice dev(p);
        Rng rng(31);
        Tick now = 0;
        for (int i = 0; i < 3000; ++i) {
            now += rng.below(8 * p.clockPs);
            // Half the traffic revisits a few rows per bank.
            Addr addr = rng.chance(0.5) ? rng.below(64 * KiB)
                                        : rng.below(p.capacityBytes);
            u32 room = p.interleaveBytes - u32(addr % p.interleaveBytes);
            u32 bytes = 1 + u32(rng.below(room));
            AccessType t = rng.chance(0.5) ? AccessType::Read
                                           : AccessType::Write;
            u32 ch;
            u64 bank, row;
            dev.decode(addr, ch, bank, row);
            Tick predicted = dev.probeChunkDone(ch, bank, row, bytes, now);
            ASSERT_EQ(predicted, dev.access(addr, bytes, t, now))
                << preset << " access " << i << " addr " << addr
                << " bytes " << bytes;
        }
    }
}

TEST(XtaGeometry, MaskShiftMatchesDivMod)
{
    Rng rng(29);
    for (int g = 0; g < 40; ++g) {
        u32 ways = 1u << rng.below(5);
        u64 requestedSets = 1 + rng.below(5000);
        core::Xta x(requestedSets * ways, ways, 8);
        u64 sets = x.numSets();
        // Rounded down to a power of two, never above the request.
        EXPECT_TRUE(isPowerOf2(sets));
        EXPECT_LE(sets, requestedSets);
        EXPECT_GT(2 * sets, requestedSets);
        EXPECT_EQ(x.capacitySectors(), sets * ways);
        for (int i = 0; i < 500; ++i) {
            u64 fs = rng.below(1u << 30);
            ASSERT_EQ(x.setOf(fs), fs % sets);
            ASSERT_EQ(x.tagOf(fs), fs / sets);
        }
    }
}

TEST(XtaGeometry, FlatSectorRoundTrip)
{
    core::Xta x(48, 4, 8); // 12 requested sets -> 8 (power of two)
    EXPECT_EQ(x.numSets(), 8u);
    EXPECT_EQ(x.capacitySectors(), 32u);
    Rng rng(31);
    for (int i = 0; i < 1000; ++i) {
        u64 fs = rng.below(1u << 20);
        ASSERT_EQ(x.flatSectorOf(x.setOf(fs), x.tagOf(fs)), fs);
    }
}

} // namespace
} // namespace h2
