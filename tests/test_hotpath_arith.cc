/**
 * @file
 * Property tests pinning the hot-path shift/mask arithmetic to the
 * reference div/mod formulas it replaced: the chunks
 * DramDevice::forEachChunk decodes, across randomized power-of-two
 * geometries and for unaligned requests on the presets, the chunk
 * timing probe against the issue it predicts, and the XTA's
 * power-of-two set mapping.
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

/** The last chunk the device decodes for @p bytes at @p addr (the
 *  only one when the range stays inside one interleave unit). */
dram::Chunk
chunkAt(const dram::DramDevice &dev, Addr addr, u32 bytes = 1)
{
    dram::Chunk out{};
    dev.forEachChunk(addr, bytes, [&](const dram::Chunk &c) { out = c; });
    return out;
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
            u32 refCh;
            u64 refBank, refRow;
            dram::Chunk c = chunkAt(dev, addr);
            referenceDecode(p, addr, refCh, refBank, refRow);
            ASSERT_EQ(c.ch, refCh)
                << "ch=" << p.channels << " banks=" << p.banksPerChannel
                << " row=" << p.rowBytes << " addr=" << addr;
            ASSERT_EQ(c.bank, refBank)
                << "ch=" << p.channels << " banks=" << p.banksPerChannel
                << " row=" << p.rowBytes << " addr=" << addr;
            ASSERT_EQ(c.row, refRow)
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
            u32 refCh;
            u64 refBank, refRow;
            dram::Chunk c = chunkAt(dev, addr);
            referenceDecode(p, addr, refCh, refBank, refRow);
            ASSERT_EQ(c.ch, refCh);
            ASSERT_EQ(c.bank, refBank);
            ASSERT_EQ(c.row, refRow);
        }
    }
}

TEST(DramDecode, ChunksTileUnalignedRequestsAndMatchReference)
{
    // forEachChunk is the only interleave split: for any request up to
    // a 4 KiB page, its chunks must cover the range exactly, in
    // address order, none crossing an interleave boundary, each
    // decoded as the reference decodes its first byte.
    Rng rng(53);
    for (auto p : {dram::DramParams::hbm2(1 * GiB),
                   dram::DramParams::ddr4_3200(4 * GiB),
                   dram::DramParams::pcm(4 * GiB)}) {
        SCOPED_TRACE(p.name);
        dram::DramDevice dev(p);
        for (int i = 0; i < 2000; ++i) {
            u32 bytes = 1 + u32(rng.below(4096));
            Addr addr = rng.below(p.capacityBytes - bytes + 1);
            Addr next = addr;
            dev.forEachChunk(addr, bytes, [&](const dram::Chunk &c) {
                ASSERT_EQ(c.addr, next) << "addr " << addr;
                ASSERT_GT(c.bytes, 0u);
                ASSERT_EQ(c.addr / p.interleaveBytes,
                          (c.addr + c.bytes - 1) / p.interleaveBytes)
                    << "chunk at " << c.addr << " crosses an interleave "
                    << "boundary";
                u32 refCh;
                u64 refBank, refRow;
                referenceDecode(p, c.addr, refCh, refBank, refRow);
                ASSERT_EQ(c.ch, refCh) << "chunk at " << c.addr;
                ASSERT_EQ(c.bank, refBank) << "chunk at " << c.addr;
                ASSERT_EQ(c.row, refRow) << "chunk at " << c.addr;
                next = c.addr + c.bytes;
            });
            ASSERT_EQ(next, addr + bytes) << "addr " << addr << " bytes "
                                          << bytes;
        }
    }
}

TEST(DramDecode, ProbeEqualsAccessForSingleChunk)
{
    // MemController's idle drain issues a queued write into a gap only
    // if probe() says it completes in time, so the probe must predict
    // exactly what issue() then reports for that chunk: reads
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
            dram::Chunk c = chunkAt(dev, addr, bytes);
            ASSERT_EQ(c.addr, addr) << "one chunk per access";
            Tick predicted = dev.probe(c, now);
            ASSERT_EQ(predicted, dev.issue(c, t, now))
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
