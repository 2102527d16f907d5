/**
 * @file
 * Analytic DRAM timing/energy model.
 *
 * Replaces DRAMSim2 from the paper's setup. The unit of the model is
 * the Chunk: forEachChunk() splits a request at the channel interleave
 * and decodes each piece once to its (channel, bank, row). Callers hold
 * on to the chunks and pass them back to issue() (mutating), probe()
 * (a what-if completion), freeAt() and rowOpen(), so no address is
 * decoded twice and nothing outside the device names a bank by raw
 * coordinates. The model tracks open rows and per-bank/channel
 * busy-until times, which yields row-hit/row-miss latencies, bank
 * conflicts, and bandwidth contention (queueing behind earlier traffic)
 * without a cycle-stepped event loop. Energy is accounted per chunk
 * (pJ/bit moved) and per activation (ACT/PRE) with Table 1 constants.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_params.h"

namespace h2::dram {

/** Aggregate traffic/energy counters of a DramDevice. */
struct DramStats
{
    u64 reads = 0;
    u64 writes = 0;
    u64 bytesRead = 0;
    u64 bytesWritten = 0;
    u64 rowHits = 0;
    u64 rowMisses = 0;       ///< row open to a different row (PRE+ACT)
    u64 rowEmpty = 0;        ///< bank closed (ACT only)
    u64 activations = 0;
    // Per-operation energy accumulation (asymmetric-capable: PCM pays
    // far more per written bit than per read bit).
    double readEnergyPj = 0.0;  ///< sum of bits-read × rdPjPerBit
    double writeEnergyPj = 0.0; ///< sum of bits-written × wrPjPerBit
    double actEnergyPj = 0.0;   ///< sum of activations × actPreNj

    u64 totalBytes() const { return bytesRead + bytesWritten; }
};

/** One interleave chunk of a request, decoded: the unit a DramDevice
 *  times and a mem::MemController queues. Never crosses an interleave
 *  boundary, so it lands on exactly one (channel, bank, row). */
struct Chunk
{
    Addr addr = 0;
    u32 bytes = 0;
    u32 ch = 0;
    u64 bank = 0;
    u64 row = 0;
};

/**
 * One DRAM device: a group of channels sharing geometry and timing.
 * Not thread-safe; one simulation drives it from one thread.
 */
class DramDevice
{
  public:
    explicit DramDevice(const DramParams &params);

    /**
     * Split [@p addr, @p addr + @p bytes) at the channel interleave and
     * call @p fn with each decoded Chunk, in address order. This is the
     * only place a request is split or an address decoded; callers keep
     * the chunks they need and hand them back to issue()/probe().
     */
    template <typename Fn>
    void
    forEachChunk(Addr addr, u32 bytes, Fn &&fn) const
    {
        h2_assert(bytes > 0, "zero-byte DRAM access");
        h2_assert(addr < cfg.capacityBytes &&
                      addr + bytes <= cfg.capacityBytes,
                  cfg.name, ": access beyond capacity, addr=", addr,
                  " bytes=", bytes);
        const Addr end = addr + bytes;
        for (Addr cur = addr; cur < end;) {
            Addr next = std::min<Addr>(end, (cur | geo.ilvMask) + 1);
            fn(decode(cur, static_cast<u32>(next - cur)));
            cur = next;
        }
    }

    /**
     * Perform an access of @p bytes starting at device address @p addr
     * at time @p now: every chunk issues at @p now, so chunks on
     * different channels proceed in parallel.
     *
     * @return completion time of the last byte.
     */
    Tick access(Addr addr, u32 bytes, AccessType type, Tick now);

    /** Number of channels (chunk interleave targets). */
    u32 channelCount() const { return static_cast<u32>(channels.size()); }

    /** Data-bus occupancy horizon of channel @p ch. */
    Tick
    channelBusUntil(u32 ch) const
    {
        return channels.at(ch).busUntil;
    }

    /** Issue chunk @p c at @p now (or once its bank is ready) and
     *  account it. @return completion of its data burst. */
    Tick issue(const Chunk &c, AccessType type, Tick now);

    /** Completion tick issue(@p c, any type, @p start) returns,
     *  computed against current device state without mutating it. The
     *  controller uses it to decide whether a queued write fits into
     *  an idle gap. */
    Tick probe(const Chunk &c, Tick start) const;

    /** Earliest tick both @p c's bank and its channel's data bus are
     *  free: the wait a request serializes behind. */
    Tick
    freeAt(const Chunk &c) const
    {
        const ChannelState &ch = channels[c.ch];
        return std::max(ch.busUntil, ch.banks[c.bank].readyAt);
    }

    /** Would @p c hit its bank's open row? (FR-FCFS hint.) */
    bool
    rowOpen(const Chunk &c) const
    {
        const BankState &b = channels[c.ch].banks[c.bank];
        return b.open && b.row == c.row;
    }

    const DramParams &params() const { return cfg; }

    /** Traffic/energy counters since the last resetStats(). */
    const DramStats &stats() const { return counters; }

    /**
     * Dynamic energy consumed since the last resetStats(), in
     * picojoules: the sum of the per-operation read, write, and
     * activate/precharge accumulations (asymmetric read/write energy
     * under PCM presets).
     */
    double dynamicEnergyPj() const;

    /** Bytes ever written to bank @p bank of channel @p ch since the
     *  last resetStats() (0 unless params().trackWear). */
    u64 bankWearBytes(u32 ch, u64 bank) const;

    /** Sum of per-bank wear counters (== bytesWritten in the stats
     *  window; 0 unless params().trackWear). */
    u64 wearTotalBytes() const;

    /** Spread between the most- and least-written bank — the
     *  write-leveling imbalance a wear-aware policy should minimize
     *  (0 unless params().trackWear). */
    u64 maxBankWearDelta() const;

    /**
     * Fraction of data-bus time used in [statsSince, now], where
     * statsSince is the tick of the last resetStats() (0 before any
     * reset). The busy accumulator and the window start reset
     * together, so a post-warm-up reset does not leave a cleared
     * numerator over a denominator that still spans warm-up.
     */
    double busUtilization(Tick now) const;

    /** busUtilization over [statsSince, last activity seen] — the
     *  window stats collection uses when no external clock is at
     *  hand. */
    double busUtilization() const { return busUtilization(lastTick); }

    /** Tick stats have accumulated since (last resetStats, or 0). */
    Tick statsSinceTick() const { return statsSince; }

    void resetStats();

    /** Collect counters into @p out under the prefix @p prefix. */
    void collectStats(StatSet &out, const std::string &prefix) const;

  private:
    /** One bank's open-row and availability state. */
    struct BankState
    {
        bool open = false;
        u64 row = 0;
        Tick readyAt = 0;
    };

    /** One channel's data-bus horizon and its banks. */
    struct ChannelState
    {
        Tick busUntil = 0;
        std::vector<BankState> banks;
    };

    /** Shift/mask view of the geometry, precomputed at construction. */
    struct Geometry
    {
        u32 ilvShift = 0;
        u64 ilvMask = 0;
        u32 chShift = 0;
        u64 chMask = 0;
        u32 rowShift = 0;
        u64 bankMask = 0;
        u32 rowBankShift = 0;
        u32 beatShift = 0; ///< log2 of busBytes * 2
        u64 beatMask = 0;
    };

    /** DDR beats needed to move @p bytes (two beats of busBytes/clock). */
    u64
    burstClocks(u64 bytes) const
    {
        return (bytes + geo.beatMask) >> geo.beatShift;
    }

    /** The chunk of @p bytes at @p addr: the power-of-two geometry
     *  (asserted at construction) folds the div/mod address map into
     *  shifts and masks. */
    Chunk
    decode(Addr addr, u32 bytes) const
    {
        u64 chunk = addr >> geo.ilvShift;
        u64 chAddr = ((chunk >> geo.chShift) << geo.ilvShift)
            | (addr & geo.ilvMask);
        return {addr, bytes, static_cast<u32>(chunk & geo.chMask),
                (chAddr >> geo.rowShift) & geo.bankMask,
                chAddr >> geo.rowBankShift};
    }


    DramParams cfg;
    Geometry geo;
    std::vector<ChannelState> channels;
    DramStats counters;
    Tick busyAccum = 0;  ///< data-bus occupancy summed over channels
    Tick lastTick = 0;   ///< latest chunk completion on any channel
    /** Per-bank written-bytes wear counters, indexed
     *  [channel * banksPerChannel + bank]; empty unless trackWear. */
    std::vector<u64> wearBytes;
    Tick statsSince = 0; ///< window start for busUtilization
};

} // namespace h2::dram
