/**
 * @file
 * Unit tests for the queued memory controller (mem/mem_controller.h):
 * FR-FCFS row-hit-first dispatch, write-drain hysteresis, the idle
 * drain starvation bound, equality with a straightforward O(n)
 * reference scheduler, and zero-traffic stat hygiene.
 *
 * Address map cheat sheet for DDR4-3200 at 256 MiB (2 channels,
 * interleave 256 B, 8 KiB rows, 8 banks): addr 0 and addr 512 land on
 * channel 0 / bank 0 / row 0; addr 32768 lands on channel 0 / bank 2 /
 * row 0; addr 256 lands on channel 1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "mem/mem_controller.h"

namespace h2::mem {
namespace {

dram::DramParams
ddr()
{
    return dram::DramParams::ddr4_3200(256 * MiB);
}

/** Would a chunk at @p addr hit the open row of its bank? */
bool
opensRow(const dram::DramDevice &dev, Addr addr)
{
    u32 ch;
    u64 bank, row;
    dev.decode(addr, ch, bank, row);
    return dev.rowOpen(ch, bank, row);
}

// ---------------------------------------------------------------------
// deferral, FR-FCFS, hysteresis, starvation bound
// ---------------------------------------------------------------------

TEST(MemController, PostedWritesDeferUntilDrain)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, QueueParams{});

    ctrl.post(0, 64, 1000);
    ctrl.post(512, 64, 2000);
    ctrl.post(1024, 64, 3000);
    EXPECT_EQ(dev.stats().writes, 0u) << "writes must not touch the "
                                         "device before a drain";
    EXPECT_EQ(ctrl.queuedWrites(), 3u);

    Tick last = ctrl.drainAll(10000);
    EXPECT_GE(last, 10000u);
    EXPECT_EQ(dev.stats().writes, 3u);
    EXPECT_EQ(dev.stats().bytesWritten, 192u);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
}

TEST(MemController, FrFcfsDispatchesRowHitBeforeOlderRowMiss)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, QueueParams{});

    // Open row 1 of channel 0 / bank 0.
    ctrl.access(32768, 64, AccessType::Read, 0);
    ASSERT_TRUE(opensRow(dev, 32768 + 64));
    ASSERT_FALSE(opensRow(dev, 0));

    // Older row-miss (row 0) queued ahead of a younger row-hit (row 1).
    ctrl.post(0, 64, 100000);
    ctrl.post(32768 + 64, 64, 100001);
    u64 hitsBefore = dev.stats().rowHits;

    ctrl.drainAll(200000);
    // The younger write bypassed the older one and landed in the still
    // open row; strict FCFS would have closed row 1 first and scored
    // two row-misses.
    EXPECT_EQ(ctrl.rowHitBypasses(), 1u);
    EXPECT_EQ(dev.stats().rowHits, hitsBefore + 1);
}

TEST(MemController, WriteDrainHysteresis)
{
    dram::DramDevice dev(ddr());
    QueueParams q;
    q.writeHighWatermark = 4;
    q.writeLowWatermark = 1;
    MemController ctrl(dev, q);

    // Distinct chunks on channel 0, all below the high watermark.
    ctrl.post(0, 64, 1000);
    ctrl.post(512, 64, 2000);
    ctrl.post(1024, 64, 3000);
    EXPECT_EQ(ctrl.drainEpisodes(), 0u);
    EXPECT_EQ(dev.stats().writes, 0u);

    // The fourth enqueue hits the watermark: one episode drains the
    // queue down to the low watermark, no further.
    ctrl.post(1536, 64, 4000);
    EXPECT_EQ(ctrl.drainEpisodes(), 1u);
    EXPECT_EQ(ctrl.queuedWrites(), 1u);
    EXPECT_EQ(dev.stats().writes, 3u);

    // Refilling repeats the cycle (hysteresis, not one-shot).
    ctrl.post(2048, 64, 5000);
    ctrl.post(2560, 64, 6000);
    EXPECT_EQ(ctrl.drainEpisodes(), 1u);
    ctrl.post(3072, 64, 7000);
    EXPECT_EQ(ctrl.drainEpisodes(), 2u);
    EXPECT_EQ(ctrl.queuedWrites(), 1u);
}

TEST(MemController, IdleDrainIssuesIntoGapWithoutDelayingTheRead)
{
    // Starvation bound: a lone queued write must be flushed by the
    // next demand access that finds the channel idle, and because it
    // is issued retroactively at its ready tick it reproduces the
    // timing of a bare device written at that tick — including the
    // read behind it.
    dram::DramDevice devA(ddr());
    dram::DramDevice devB(ddr());
    MemController ctrl(devA, QueueParams{});

    ctrl.post(0, 64, 1000);
    Tick readDoneA = ctrl.access(32768, 64, AccessType::Read, 10000000);

    devB.access(0, 64, AccessType::Write, 1000);
    Tick readDoneB = devB.access(32768, 64, AccessType::Read, 10000000);

    EXPECT_EQ(readDoneA, readDoneB);
    EXPECT_EQ(devA.stats().writes, 1u);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
    // Issued into the idle gap at its ready tick: zero residency.
    EXPECT_DOUBLE_EQ(ctrl.avgWriteQueueDelayPs(), 0.0);
}

TEST(MemController, IdleDrainSkipsWritesThatWouldDelayTheRead)
{
    // A write whose service cannot complete by the read's arrival tick
    // stays queued (read priority): the read must observe the same
    // timing as if the write did not exist.
    dram::DramDevice devA(ddr());
    dram::DramDevice devB(ddr());
    MemController ctrl(devA, QueueParams{});

    // Ready "just before" the read: no idle gap to hide in.
    ctrl.post(0, 64, 9999999);
    Tick readDoneA = ctrl.access(32768, 64, AccessType::Read, 10000000);
    Tick readDoneB = devB.access(32768, 64, AccessType::Read, 10000000);

    EXPECT_EQ(readDoneA, readDoneB);
    EXPECT_EQ(ctrl.queuedWrites(), 1u) << "the write must wait for a "
                                          "drain, not push the read";
    EXPECT_EQ(devA.stats().writes, 0u);
}

TEST(MemController, ReadQueueDelayReflectsContention)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, QueueParams{});

    // Widely spaced reads: no serialized wait, delay stays zero.
    ctrl.access(0, 64, AccessType::Read, 0);
    ctrl.access(512, 64, AccessType::Read, 10000000);
    EXPECT_DOUBLE_EQ(ctrl.avgReadQueueDelayPs(), 0.0);

    // A same-instant burst on one bank serializes behind bus/bank
    // occupancy: mean delay must become positive.
    for (int i = 0; i < 8; ++i)
        ctrl.access(Addr(i) * 512, 64, AccessType::Read, 20000000);
    EXPECT_GT(ctrl.avgReadQueueDelayPs(), 0.0);
    EXPECT_EQ(ctrl.demandAccesses(), 10u);
}

TEST(MemController, ResetStatsPreservesQueueContents)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, QueueParams{});

    ctrl.post(0, 64, 1000);
    ctrl.post(512, 64, 2000);
    ctrl.resetStats();

    // Stats are cleared, state is not: the queued writes still exist
    // and still drain.
    EXPECT_EQ(ctrl.queuedWrites(), 2u);
    EXPECT_EQ(ctrl.drainEpisodes(), 0u);
    EXPECT_DOUBLE_EQ(ctrl.avgWriteQueueDelayPs(), 0.0);
    ctrl.drainAll(100000);
    EXPECT_EQ(dev.stats().writes, 2u);
}

TEST(MemController, MultiChunkPostSplitsAcrossChannels)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, QueueParams{});

    // 512 B from 0 covers chunks on channel 0 and channel 1.
    ctrl.post(0, 512, 1000);
    EXPECT_EQ(ctrl.queuedWrites(), 2u);
    ctrl.drainAll(10000);
    EXPECT_EQ(dev.stats().bytesWritten, 512u);
}

// ---------------------------------------------------------------------
// stat hygiene
// ---------------------------------------------------------------------

TEST(MemController, ZeroTrafficStatsAreZeroAndFinite)
{
    // Satellite audit: every queue stat must render as exactly 0 (not
    // NaN, not garbage) before any traffic exists.
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, QueueParams{});

    StatSet s;
    ctrl.collectStats(s, "q");
    for (const char *key :
         {"q.avgReadQueueDelayPs", "q.avgWriteQueueDelayPs",
          "q.drainEpisodes", "q.rowHitBypasses", "q.queuedWrites",
          "q.readDepthMean", "q.readDepthMax", "q.writeDepthMean",
          "q.writeDepthMax"}) {
        ASSERT_TRUE(s.has(key)) << key;
        EXPECT_TRUE(std::isfinite(s.get(key))) << key;
        EXPECT_DOUBLE_EQ(s.get(key), 0.0) << key;
    }
}

// ---------------------------------------------------------------------
// reference model: the straightforward O(n) scheduler
// ---------------------------------------------------------------------

/**
 * The controller as first written: FR-FCFS by explicit arrival
 * sequence numbers over the whole queue, an idle drain that always
 * picks and probes, and in-flight tracking that filters the whole
 * vector on every read. Serial only. MemController must reproduce it
 * tick for tick and counter for counter.
 */
class RefController
{
  public:
    RefController(dram::DramDevice &device, const QueueParams &params)
        : dev(device), cfg(params)
    {
        u32 n = dev.channelCount();
        writeQ.resize(n);
        inflight.resize(n);
        bypassesPerCh.assign(n, 0);
        writeDelayPerCh.resize(n);
    }

    Tick
    access(Addr addr, u32 bytes, AccessType type, Tick now)
    {
        Tick queueDelay = 0;
        forEachChunk(addr, bytes, [&](Addr, u32, u32 ch, u64 bank, u64) {
            idleDrain(ch, now);
            if (type == AccessType::Read)
                sampleReadDepth(ch, now);
            Tick waitUntil =
                std::max(dev.channelBusUntil(ch), dev.bankReadyAt(ch, bank));
            if (waitUntil > now)
                queueDelay = std::max(queueDelay, waitUntil - now);
        });
        if (type == AccessType::Read) {
            ++nReads;
            readDelay.sample(double(queueDelay));
        }
        Tick done = dev.access(addr, bytes, type, now);
        forEachChunk(addr, bytes, [&](Addr, u32, u32 ch, u64, u64) {
            inflight[ch].push_back(dev.channelBusUntil(ch));
        });
        return done;
    }

    void
    post(Addr addr, u32 bytes, Tick readyAt)
    {
        forEachChunk(addr, bytes,
                     [&](Addr cur, u32 take, u32 ch, u64, u64) {
            auto &q = writeQ[ch];
            writeDepthDist.sample(double(q.size()));
            q.push_back({cur, take, readyAt, nextSeq++});
            if (q.size() >= cfg.writeHighWatermark)
                forcedDrain(ch, readyAt);
        });
    }

    Tick
    drainAll(Tick now)
    {
        Tick last = now;
        for (u32 ch = 0; ch < writeQ.size(); ++ch) {
            auto &q = writeQ[ch];
            while (!q.empty()) {
                bool bypass = false;
                size_t idx = pickFrFcfs(q, bypass);
                if (bypass)
                    ++bypassesPerCh[ch];
                Tick issueTick = std::max(now, q[idx].readyAt);
                last = std::max(last, dispatchWrite(ch, idx, issueTick));
            }
        }
        return last;
    }

    void
    resetStats()
    {
        nReads = 0;
        nDrainEpisodes = 0;
        std::fill(bypassesPerCh.begin(), bypassesPerCh.end(), 0);
        readDelay.reset();
        for (auto &d : writeDelayPerCh)
            d.reset();
        readDepthDist.reset();
        writeDepthDist.reset();
    }

    void
    collectStats(StatSet &out, const std::string &prefix) const
    {
        u64 n = 0, bypasses = 0, queued = 0;
        double total = 0.0;
        for (const Distribution &d : writeDelayPerCh) {
            n += d.count();
            total += d.sum();
        }
        for (u64 c : bypassesPerCh)
            bypasses += c;
        for (const auto &q : writeQ)
            queued += q.size();
        out.add(prefix + ".avgReadQueueDelayPs", readDelay.mean());
        out.add(prefix + ".avgWriteQueueDelayPs", n ? total / n : 0.0);
        out.add(prefix + ".drainEpisodes", double(nDrainEpisodes));
        out.add(prefix + ".rowHitBypasses", double(bypasses));
        out.add(prefix + ".queuedWrites", double(queued));
        out.add(prefix + ".readDepthMean", readDepthDist.mean());
        out.add(prefix + ".readDepthMax", readDepthDist.max());
        out.add(prefix + ".writeDepthMean", writeDepthDist.mean());
        out.add(prefix + ".writeDepthMax", writeDepthDist.max());
    }

  private:
    struct QueuedWrite
    {
        Addr addr;
        u32 bytes;
        Tick readyAt;
        u64 seq;
    };

    template <typename Fn>
    void
    forEachChunk(Addr addr, u32 bytes, Fn fn)
    {
        const u32 ilv = dev.params().interleaveBytes;
        Addr cur = addr;
        u64 remaining = bytes;
        while (remaining > 0) {
            u64 inChunk = ilv - (cur % ilv);
            u32 take = static_cast<u32>(std::min<u64>(inChunk, remaining));
            u32 ch;
            u64 bank, row;
            dev.decode(cur, ch, bank, row);
            fn(cur, take, ch, bank, row);
            cur += take;
            remaining -= take;
        }
    }

    size_t
    pickFrFcfs(const std::vector<QueuedWrite> &q, bool &bypass) const
    {
        size_t oldest = 0;
        size_t oldestHit = q.size();
        for (size_t i = 0; i < q.size(); ++i) {
            if (q[i].seq < q[oldest].seq)
                oldest = i;
            if (opensRow(dev, q[i].addr) &&
                (oldestHit == q.size() || q[i].seq < q[oldestHit].seq))
                oldestHit = i;
        }
        if (oldestHit != q.size() && oldestHit != oldest) {
            bypass = true;
            return oldestHit;
        }
        bypass = false;
        return oldestHit != q.size() ? oldestHit : oldest;
    }

    Tick
    dispatchWrite(u32 ch, size_t idx, Tick issueTick)
    {
        QueuedWrite w = writeQ[ch][idx];
        writeQ[ch].erase(writeQ[ch].begin() + idx);
        writeDelayPerCh[ch].sample(
            double(issueTick > w.readyAt ? issueTick - w.readyAt : 0));
        Tick done = dev.access(w.addr, w.bytes, AccessType::Write, issueTick);
        inflight[ch].push_back(done);
        return done;
    }

    void
    idleDrain(u32 ch, Tick now)
    {
        auto &q = writeQ[ch];
        while (!q.empty()) {
            bool bypass = false;
            size_t idx = pickFrFcfs(q, bypass);
            const QueuedWrite &w = q[idx];
            Tick issueTick = std::min(w.readyAt, now);
            u32 wCh;
            u64 bank, row;
            dev.decode(w.addr, wCh, bank, row);
            if (dev.probeChunkDone(wCh, bank, row, w.bytes, issueTick) > now)
                break;
            if (bypass)
                ++bypassesPerCh[ch];
            dispatchWrite(ch, idx, issueTick);
        }
    }

    void
    forcedDrain(u32 ch, Tick now)
    {
        ++nDrainEpisodes;
        auto &q = writeQ[ch];
        while (q.size() > cfg.writeLowWatermark) {
            bool bypass = false;
            size_t idx = pickFrFcfs(q, bypass);
            if (bypass)
                ++bypassesPerCh[ch];
            dispatchWrite(ch, idx, now);
        }
    }

    void
    sampleReadDepth(u32 ch, Tick now)
    {
        auto &v = inflight[ch];
        v.erase(std::remove_if(v.begin(), v.end(),
                               [now](Tick t) { return t <= now; }),
                v.end());
        readDepthDist.sample(double(v.size()));
    }

    dram::DramDevice &dev;
    QueueParams cfg;
    std::vector<std::vector<QueuedWrite>> writeQ;
    std::vector<std::vector<Tick>> inflight;
    u64 nextSeq = 0;
    u64 nReads = 0;
    u64 nDrainEpisodes = 0;
    Distribution readDelay;
    Distribution readDepthDist;
    Distribution writeDepthDist;
    std::vector<u64> bypassesPerCh;
    std::vector<Distribution> writeDelayPerCh;
};

struct RefCase
{
    const char *name;
    dram::DramParams params;
    QueueParams queue;
    u64 seed;
};

/** Drive MemController and RefController with one seeded op stream,
 *  asserting equal results and counters after every operation. */
void
runAgainstReference(const RefCase &c)
{
    dram::DramDevice dev(c.params);
    dram::DramDevice refDev(c.params);
    MemController ctrl(dev, c.queue);
    RefController ref(refDev, c.queue);

    // A few hot rows so row hits, FR-FCFS bypasses and idle gaps all
    // occur, plus uniform traffic over the whole device.
    const u64 span = c.params.capacityBytes - 4096;
    Rng rng(c.seed);
    std::vector<Addr> hot;
    for (int i = 0; i < 12; ++i)
        hot.push_back(rng.below(span / 64) * 64);
    const u32 sizes[] = {64, 64, 64, 128, 256, 512, 2048, 100};

    // Mostly back-to-back traffic that keeps queues and banks busy,
    // with occasional idle stretches for the idle drain to fill.
    const Tick gap = 40 * c.params.clockPs;
    Tick now = 0;
    u64 bypasses = 0, episodes = 0; // summed across resetStats()
    for (int op = 0; op < 6000; ++op) {
        now += rng.below(rng.chance(0.1) ? 100 * gap : gap);
        Addr addr = rng.chance(0.6)
            ? hot[rng.below(hot.size())] + rng.below(64) * 64
            : rng.below(span);
        u32 bytes = sizes[rng.below(8)];
        u64 kind = rng.below(1000);
        if (kind < 450) {
            ASSERT_EQ(ctrl.access(addr, bytes, AccessType::Read, now),
                      ref.access(addr, bytes, AccessType::Read, now))
                << "op " << op;
        } else if (kind < 500) {
            ASSERT_EQ(ctrl.access(addr, bytes, AccessType::Write, now),
                      ref.access(addr, bytes, AccessType::Write, now))
                << "op " << op;
        } else if (kind < 990) {
            Tick ready = now + rng.below(4000);
            ctrl.post(addr, bytes, ready);
            ref.post(addr, bytes, ready);
        } else if (kind < 998) {
            ASSERT_EQ(ctrl.drainAll(now), ref.drainAll(now)) << "op " << op;
        } else {
            bypasses += ctrl.rowHitBypasses();
            episodes += ctrl.drainEpisodes();
            ctrl.resetStats();
            ref.resetStats();
            dev.resetStats();
            refDev.resetStats();
        }

        StatSet got, want, gotDev, wantDev;
        ctrl.collectStats(got, "q");
        ref.collectStats(want, "q");
        ASSERT_EQ(got, want) << "op " << op << "\n"
                             << got.toString() << "vs\n" << want.toString();
        dev.collectStats(gotDev, "d");
        refDev.collectStats(wantDev, "d");
        ASSERT_EQ(gotDev, wantDev) << "op " << op;
    }
    // The drain paths ran, so the comparison covered them.
    EXPECT_GT(bypasses + ctrl.rowHitBypasses(), 0u);
    EXPECT_GT(episodes + ctrl.drainEpisodes(), 0u);
}

QueueParams
shallowQueue()
{
    QueueParams q;
    q.writeHighWatermark = 6;
    q.writeLowWatermark = 2;
    return q;
}

dram::DramParams
fourChannels()
{
    // Twice the DDR4 preset's channels.
    dram::DramParams p = dram::DramParams::ddr4_3200(96 * MiB);
    p.channels = 4;
    p.banksPerChannel = 8;
    return p;
}

TEST(MemController, MatchesReferenceScan)
{
    const RefCase cases[] = {
        {"hbm2", dram::DramParams::hbm2(256 * MiB), shallowQueue(), 1},
        {"ddr4", dram::DramParams::ddr4_3200(256 * MiB), QueueParams{}, 2},
        {"ddr4_shallow", dram::DramParams::ddr4_3200(256 * MiB),
         shallowQueue(), 3},
        {"pcm", dram::DramParams::pcm(256 * MiB), shallowQueue(), 4},
        {"ddr4_4ch", fourChannels(), shallowQueue(), 5},
    };
    for (const RefCase &c : cases) {
        SCOPED_TRACE(c.name);
        runAgainstReference(c);
        if (HasFatalFailure())
            return;
    }
}

TEST(MemControllerDeath, WatermarksMustBeOrdered)
{
    dram::DramDevice dev(ddr());
    QueueParams q;
    q.writeHighWatermark = 4;
    q.writeLowWatermark = 4;
    EXPECT_DEATH(MemController(dev, q), "low < high");
}

} // namespace
} // namespace h2::mem
