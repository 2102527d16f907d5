#include "mem/mem_controller.h"

#include <algorithm>

#include "common/log.h"

namespace h2::mem {

MemController::MemController(const dram::DramParams &deviceParams,
                             const QueueParams &params)
    : dev(deviceParams), cfg(params),
      ilvMask(u64(deviceParams.interleaveBytes) - 1)
{
    h2_assert(cfg.writeLowWatermark < cfg.writeHighWatermark,
              "write-drain watermarks must satisfy low < high (got low=",
              cfg.writeLowWatermark, " high=", cfg.writeHighWatermark, ")");
    u32 n = dev.channelCount();
    writeQ.resize(n);
    inflight.resize(n);
}

size_t
MemController::pickFrFcfs(u32 ch, bool &bypass) const
{
    const auto &q = writeQ[ch];
    for (size_t i = 0; i < q.size(); ++i) {
        if (dev.rowOpen(ch, q[i].bank, q[i].row)) {
            bypass = i != 0;
            return i;
        }
    }
    bypass = false;
    return 0;
}

Tick
MemController::dispatchWrite(u32 ch, size_t idx, Tick issueTick)
{
    QueuedWrite w = writeQ[ch][idx];
    writeQ[ch].erase(writeQ[ch].begin() + idx);
    writeDelay.sample(
        double(issueTick > w.readyAt ? issueTick - w.readyAt : 0));
    Tick done = dev.access(w.addr, w.bytes, AccessType::Write, issueTick);
    trackInflight(ch, done);
    return done;
}

void
MemController::idleDrain(u32 ch, Tick now)
{
    auto &q = writeQ[ch];
    const Tick clockPs = dev.params().clockPs;
    // A chunk's data burst ends at least one clock after the bus
    // frees, so while busUntil + clockPs > now every probe below
    // would exceed `now`: skip the pick it would break on.
    while (!q.empty() && dev.channelBusUntil(ch) + clockPs <= now) {
        bool bypass = false;
        size_t idx = pickFrFcfs(ch, bypass);
        const QueuedWrite &w = q[idx];
        Tick issueTick = std::min(w.readyAt, now);
        // Dispatch only writes that fit entirely into the idle gap
        // before `now`: the drain must never delay the demand access
        // it runs in front of (read priority).
        if (dev.probeChunkDone(ch, w.bank, w.row, w.bytes, issueTick) > now)
            break;
        if (bypass)
            ++nRowHitBypasses;
        dispatchWrite(ch, idx, issueTick);
    }
}

void
MemController::forcedDrain(u32 ch, Tick now)
{
    ++nDrainEpisodes;
    auto &q = writeQ[ch];
    while (q.size() > cfg.writeLowWatermark) {
        bool bypass = false;
        size_t idx = pickFrFcfs(ch, bypass);
        if (bypass)
            ++nRowHitBypasses;
        dispatchWrite(ch, idx, now);
    }
}

void
MemController::trackInflight(u32 ch, Tick doneAt)
{
    auto &q = inflight[ch];
    h2_assert(q.empty() || q.back() <= doneAt,
              "in-flight completions must be pushed in tick order: ",
              doneAt, " after ", q.back());
    q.push_back(doneAt);
}

void
MemController::sampleReadDepth(u32 ch, Tick now)
{
    auto &q = inflight[ch];
    while (!q.empty() && q.front() <= now)
        q.pop_front();
    readDepthDist.sample(double(q.size()));
}

Tick
MemController::access(Addr addr, u32 bytes, AccessType type, Tick now)
{
    // Walk the chunks the device will split this request into: sweep
    // idle-gap writes on each touched channel, then measure the wait
    // the request will serialize behind (bus + bank occupancy left by
    // earlier traffic, including any forced write drains).
    Tick queueDelay = 0;
    Addr cur = addr;
    u64 remaining = bytes;
    const u32 ilv = dev.params().interleaveBytes;
    while (remaining > 0) {
        u64 inChunk = ilv - (cur & ilvMask);
        u32 take = static_cast<u32>(std::min<u64>(inChunk, remaining));
        u32 ch;
        u64 bank, row;
        dev.decode(cur, ch, bank, row);
        idleDrain(ch, now);
        if (type == AccessType::Read)
            sampleReadDepth(ch, now);
        Tick waitUntil =
            std::max(dev.channelBusUntil(ch), dev.bankReadyAt(ch, bank));
        if (waitUntil > now)
            queueDelay = std::max(queueDelay, waitUntil - now);
        cur += take;
        remaining -= take;
    }
    if (type == AccessType::Read) {
        ++nReads;
        readDelay.sample(double(queueDelay));
    }

    Tick done = dev.access(addr, bytes, type, now);

    cur = addr;
    remaining = bytes;
    while (remaining > 0) {
        u64 inChunk = ilv - (cur & ilvMask);
        u32 take = static_cast<u32>(std::min<u64>(inChunk, remaining));
        u32 ch;
        u64 bank, row;
        dev.decode(cur, ch, bank, row);
        trackInflight(ch, dev.channelBusUntil(ch));
        cur += take;
        remaining -= take;
    }
    return done;
}

void
MemController::post(Addr addr, u32 bytes, Tick readyAt)
{
    Addr cur = addr;
    u64 remaining = bytes;
    const u32 ilv = dev.params().interleaveBytes;
    while (remaining > 0) {
        u64 inChunk = ilv - (cur & ilvMask);
        u32 take = static_cast<u32>(std::min<u64>(inChunk, remaining));
        u32 ch;
        u64 bank, row;
        dev.decode(cur, ch, bank, row);
        auto &q = writeQ[ch];
        writeDepthDist.sample(double(q.size()));
        q.push_back({cur, take, bank, row, readyAt});
        if (q.size() >= cfg.writeHighWatermark)
            forcedDrain(ch, readyAt);
        cur += take;
        remaining -= take;
    }
}

Tick
MemController::drainChannel(u32 ch, Tick now)
{
    Tick last = now;
    auto &q = writeQ[ch];
    while (!q.empty()) {
        bool bypass = false;
        size_t idx = pickFrFcfs(ch, bypass);
        if (bypass)
            ++nRowHitBypasses;
        Tick issueTick = std::max(now, q[idx].readyAt);
        last = std::max(last, dispatchWrite(ch, idx, issueTick));
    }
    return last;
}

Tick
MemController::drainAll(Tick now)
{
    Tick last = now;
    for (u32 ch = 0; ch < writeQ.size(); ++ch)
        last = std::max(last, drainChannel(ch, now));
    return last;
}

u64
MemController::queuedWrites() const
{
    u64 n = 0;
    for (const auto &q : writeQ)
        n += q.size();
    return n;
}

void
MemController::resetStats()
{
    dev.resetStats();
    nReads = 0;
    nDrainEpisodes = 0;
    nRowHitBypasses = 0;
    readDelay.reset();
    writeDelay.reset();
    readDepthDist.reset();
    writeDepthDist.reset();
}

void
MemController::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".avgReadQueueDelayPs", avgReadQueueDelayPs());
    out.add(prefix + ".avgWriteQueueDelayPs", avgWriteQueueDelayPs());
    out.add(prefix + ".drainEpisodes", double(nDrainEpisodes));
    out.add(prefix + ".rowHitBypasses", double(nRowHitBypasses));
    out.add(prefix + ".queuedWrites", double(queuedWrites()));
    out.add(prefix + ".readDepthMean", readDepthDist.mean());
    out.add(prefix + ".readDepthMax", readDepthDist.max());
    out.add(prefix + ".writeDepthMean", writeDepthDist.mean());
    out.add(prefix + ".writeDepthMax", writeDepthDist.max());
}

} // namespace h2::mem
