#include "mem/mem_controller.h"

#include <algorithm>

#include "common/log.h"

namespace h2::mem {

MemController::MemController(const dram::DramParams &deviceParams,
                             const QueueParams &params)
    : dev(deviceParams), cfg(params)
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
        if (dev.rowOpen(q[i].chunk)) {
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
    Tick done = dev.issue(w.chunk, AccessType::Write, issueTick);
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
        if (dev.probe(w.chunk, issueTick) > now)
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
    chunks.clear();
    dev.forEachChunk(addr, bytes,
                     [this](const dram::Chunk &c) { chunks.push_back(c); });
    // Sweep idle-gap writes on each touched channel, then measure the
    // wait the request will serialize behind (bus + bank occupancy
    // left by earlier traffic, including any forced write drains).
    Tick queueDelay = 0;
    for (const dram::Chunk &c : chunks) {
        idleDrain(c.ch, now);
        if (type == AccessType::Read)
            sampleReadDepth(c.ch, now);
        Tick waitUntil = dev.freeAt(c);
        if (waitUntil > now)
            queueDelay = std::max(queueDelay, waitUntil - now);
    }
    if (type == AccessType::Read) {
        ++nReads;
        readDelay.sample(double(queueDelay));
    }

    Tick done = 0;
    for (const dram::Chunk &c : chunks)
        done = std::max(done, dev.issue(c, type, now));
    // Tracked only once every chunk has issued: a request that
    // revisits a channel leaves that channel's final busUntil.
    for (const dram::Chunk &c : chunks)
        trackInflight(c.ch, dev.channelBusUntil(c.ch));
    return done;
}

void
MemController::post(Addr addr, u32 bytes, Tick readyAt)
{
    dev.forEachChunk(addr, bytes, [&](const dram::Chunk &c) {
        auto &q = writeQ[c.ch];
        writeDepthDist.sample(double(q.size()));
        q.push_back({c, readyAt});
        if (q.size() >= cfg.writeHighWatermark)
            forcedDrain(c.ch, readyAt);
    });
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
    out.add(prefix + ".readDepthMean", readDepthDist.mean());
    out.add(prefix + ".readDepthMax", readDepthDist.max());
    out.add(prefix + ".writeDepthMean", writeDepthDist.mean());
    out.add(prefix + ".writeDepthMax", writeDepthDist.max());
}

} // namespace h2::mem
