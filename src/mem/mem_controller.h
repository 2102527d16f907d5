/**
 * @file
 * Queued memory controller owning one DramDevice.
 *
 * The analytic DramDevice already models bank occupancy and bus
 * contention (later work waits behind `busUntil`/`readyAt`), but until
 * this layer existed every request was dispatched the moment the
 * design issued it. The controller adds the scheduling decisions a
 * real controller makes between arrival and dispatch. It works in the
 * device's decoded chunks: DramDevice::forEachChunk splits each
 * request once, and every later step (queueing, FR-FCFS pick,
 * idle-gap probe, issue, in-flight tracking) hands the same
 * dram::Chunk back to the device.
 *
 *  - **Per-channel write queues.** Posted writes (structural traffic
 *    whose data is already latched: evictions, migrations, metadata
 *    updates, LLC writebacks routed through the posted-write buffer)
 *    are enqueued chunk by chunk on their channels, instead of
 *    being sent to the device at their ready tick. They never block
 *    the requester; they only contend once dispatched.
 *  - **FR-FCFS dispatch.** When a queue drains, the entry whose chunk
 *    hits the currently open row is picked before older row-misses
 *    (row-hit-first); ties fall back to arrival order.
 *  - **Read priority with write-drain hysteresis.** Reads dispatch
 *    immediately (demand traffic never queues behind writes that have
 *    not been forced out). A channel whose write queue reaches
 *    `writeHighWatermark` flips into drain mode and dispatches writes
 *    — delaying subsequent reads via device contention — until the
 *    queue falls to `writeLowWatermark` (one "drain episode").
 *  - **Idle write drain (starvation bound).** Before a read
 *    dispatches on a channel, queued writes whose service would
 *    complete by the read's arrival tick are issued into the idle gap.
 *    A queued write therefore issues no later than the first read that
 *    finds the channel idle, the next high-watermark drain, or
 *    drainAll() — it cannot be starved forever.
 *
 * An access runs three passes over its chunks, in this order: for
 * each chunk, the idle drain, the read-depth sample and the wait it
 * serializes behind; then every chunk issues; then each is tracked
 * in flight at its channel's final `busUntil`. Merging the passes
 * would change the queue stats of requests that revisit a channel.
 *
 * Host cost per access is O(1) in the common case: the split reuses
 * one buffer, the idle drain returns without scanning while the
 * channel's bus is busy within one burst clock of the access (no
 * write could fit — exact), and completed in-flight chunks pop off
 * the front of a per-channel FIFO. Every tracked completion is the
 * channel's `busUntil` at dispatch, which only grows, so the FIFO is
 * already in completion order (trackInflight asserts it).
 *
 * Stats (all zero-guarded for empty classes): average read queue
 * delay (the serialized wait between arrival and service start that
 * demand requests experience), average write queue residency, mean and
 * maximum read/write queue depth, drain episodes, and FR-FCFS row-hit
 * bypass counts.
 */

#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_device.h"

namespace h2::mem {

/** Queueing knobs shared by the NM and FM controllers of a design. */
struct QueueParams
{
    /** Per-channel write-queue depth that forces a drain episode. */
    u32 writeHighWatermark = 32;
    /** Depth a forced drain stops at. */
    u32 writeLowWatermark = 8;
};

class MemController
{
  public:
    /** Build the controller and the device it owns. Designs reach
     *  the device only through this controller: device() is const, so
     *  no caller can issue DramDevice::access() behind the queues. */
    explicit MemController(const dram::DramParams &deviceParams,
                           const QueueParams &params = {});

    MemController(const MemController &) = delete;
    MemController &operator=(const MemController &) = delete;

    /**
     * Dispatch an access the caller waits on (all reads, plus the few
     * serialized writes designs put on the critical path). Reads
     * first sweep queued writes that fit into the idle gap on the
     * channels they touch, then dispatch; the wait between @p now and
     * service start is recorded as read queue delay.
     *
     * @return completion tick of the last byte (same contract as
     *         DramDevice::access).
     */
    Tick access(Addr addr, u32 bytes, AccessType type, Tick now);

    /**
     * Enqueue a posted write whose data is ready at @p readyAt. Never
     * blocks the caller; may trigger a high-watermark drain episode
     * on the channels it lands on (contending with later reads). Its
     * completion is unknown until a drain dispatches the entry.
     */
    void post(Addr addr, u32 bytes, Tick readyAt);

    /** Dispatch every queued write (end of run / warm-up boundary so
     *  traffic and energy are fully accounted). @return completion of
     *  the last write, or @p now when nothing was queued. */
    Tick drainAll(Tick now);

    /** Writes currently sitting in queues (all channels). */
    u64 queuedWrites() const;

    const dram::DramDevice &device() const { return dev; }

    u64 demandAccesses() const { return nReads; }
    u64 drainEpisodes() const { return nDrainEpisodes; }
    /** FR-FCFS bypasses across all channels. */
    u64 rowHitBypasses() const { return nRowHitBypasses; }

    /** Mean serialized queueing wait (ps) of access() requests. */
    double avgReadQueueDelayPs() const { return readDelay.mean(); }
    /** Mean queue residency (ps) of posted writes, from enqueue to
     *  device issue. Idle-gap drains issue retroactively into the gap
     *  (at the write's ready tick), so uncontended writes record ~0;
     *  forced drains issue at the drain decision tick. */
    double avgWriteQueueDelayPs() const { return writeDelay.mean(); }

    /** Zero the queue and device counters; queued writes and device
     *  state (open rows, bank timing) are kept. */
    void resetStats();

    /** Counters under @p prefix (e.g. "nmq"): avgReadQueueDelayPs,
     *  avgWriteQueueDelayPs, drainEpisodes, rowHitBypasses,
     *  readDepthMean/Max and writeDepthMean/Max. */
    void collectStats(StatSet &out, const std::string &prefix) const;

    /** Sum of read queue delays (ps), for cross-controller means. */
    Tick readQueueDelayPsTotal() const
    {
        return Tick(readDelay.sum());
    }

  private:
    /** One posted write chunk, kept as the device decoded it: the
     *  FR-FCFS pick, the idle-gap probe and the dispatch all hand it
     *  back to the device as is. The channel is the queue's own. */
    struct QueuedWrite
    {
        dram::Chunk chunk;
        Tick readyAt;  ///< when the data was latched (enqueue tick)
    };

    /** FR-FCFS pick from channel @p ch's non-empty queue: oldest
     *  row-hit if any, else oldest. Queues are appended in arrival
     *  order and erase keeps it, so "oldest" is index order and the
     *  pick is the first row-hit, else entry 0. @p bypass reports
     *  whether the pick skipped an older row-miss (counted only if the
     *  caller dispatches it). */
    size_t pickFrFcfs(u32 ch, bool &bypass) const;

    /** Dispatch queue entry @p idx of channel @p ch into the device
     *  at @p issueTick; returns the completion tick. Queue residency
     *  is charged as issueTick - readyAt. */
    Tick dispatchWrite(u32 ch, size_t idx, Tick issueTick);

    /** Issue queued writes of @p ch that complete by @p now into the
     *  idle gap in front of a demand access. Returns without picking
     *  while channelBusUntil(ch) + clockPs > now: any chunk completes
     *  at least one burst clock after the channel's bus frees, so no
     *  queued write could fit — the exit is exact, not a heuristic. */
    void idleDrain(u32 ch, Tick now);

    /** Forced drain of @p ch down to the low watermark, issuing at
     *  decision tick @p now. */
    void forcedDrain(u32 ch, Tick now);

    /** Dispatch every queued write of @p ch (drainAll's per-channel
     *  body). @return completion of the channel's last write, or
     *  @p now. */
    Tick drainChannel(u32 ch, Tick now);

    /** Record the in-flight depth channel @p ch shows at @p now (the
     *  read-side "queue depth": dispatched chunks not yet complete when
     *  a demand access arrives) and drop completed entries (popped off
     *  the FIFO's front, so only the entries that completed are
     *  touched). */
    void sampleReadDepth(u32 ch, Tick now);

    /** Track a dispatched chunk completing at @p doneAt on @p ch;
     *  @p doneAt is the channel's busUntil, so it never decreases. */
    void trackInflight(u32 ch, Tick doneAt);

    dram::DramDevice dev;
    QueueParams cfg;
    std::vector<std::vector<QueuedWrite>> writeQ; ///< per channel
    /** access()'s request, split once; reused so the hot path does
     *  not allocate. */
    std::vector<dram::Chunk> chunks;
    /** Per channel: completion ticks of dispatched chunks, in the
     *  (nondecreasing) order they were dispatched. */
    std::vector<std::deque<Tick>> inflight;

    u64 nReads = 0;
    u64 nDrainEpisodes = 0;
    u64 nRowHitBypasses = 0;
    Distribution readDelay;
    Distribution writeDelay;
    Distribution readDepthDist;  ///< in-flight chunks, at arrival
    Distribution writeDepthDist; ///< write-queue depth, at enqueue
};

} // namespace h2::mem
