/**
 * @file
 * Analytic DRAM timing/energy model.
 *
 * Replaces DRAMSim2 from the paper's setup. Every access resolves to
 * channel/bank/row; the model tracks open rows and per-bank/channel
 * busy-until times, which yields row-hit/row-miss latencies, bank
 * conflicts, and bandwidth contention (queueing behind earlier traffic)
 * without a cycle-stepped event loop. Energy is accounted per access
 * (pJ/bit moved) and per activation (ACT/PRE) with Table 1 constants.
 */

#pragma once

#include <vector>

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

/**
 * One DRAM device: a group of channels sharing geometry and timing.
 * Not thread-safe; one simulation drives it from one thread.
 */
class DramDevice
{
  public:
    explicit DramDevice(const DramParams &params);

    /**
     * Perform an access of @p bytes starting at device address @p addr
     * at time @p now. Accesses wider than the channel interleave are
     * split into chunks that proceed in parallel across channels.
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

    /** Earliest tick bank @p bank of channel @p ch can accept a
     *  command. */
    Tick
    bankReadyAt(u32 ch, u64 bank) const
    {
        return channels.at(ch).banks.at(bank).readyAt;
    }

    /** Is @p row the open row of bank @p bank on channel @p ch? (FR-FCFS
     *  scheduling hint for mem::MemController, which keeps its queued
     *  chunks decoded.) */
    bool
    rowOpen(u32 ch, u64 bank, u64 row) const
    {
        const BankState &b = channels[ch].banks[bank];
        return b.open && b.row == row;
    }

    /**
     * Completion tick of a single interleave chunk of @p bytes to
     * (@p ch, @p bank, @p row) — as decode() resolves it — started at
     * @p start, against current device state, without mutating it.
     * Used by the controller to decide whether a queued write fits
     * into an idle gap.
     */
    Tick probeChunkDone(u32 ch, u64 bank, u64 row, u32 bytes,
                        Tick start) const;

    /**
     * Resolve an address to channel index / bank / row.
     *
     * Hot path: the geometry is folded into shifts and masks at
     * construction when the channel count and row/bank geometry are
     * powers of two (the interleave always is); otherwise a div/mod
     * fallback keeps arbitrary geometries exact. Public so property
     * tests can pin the fast path to the reference arithmetic.
     */
    void
    decode(Addr addr, u32 &channel, u64 &bank, u64 &row) const
    {
        u64 chunk = addr >> geo.ilvShift;
        u64 chAddr;
        if (geo.chPow2) {
            channel = static_cast<u32>(chunk & geo.chMask);
            chAddr = ((chunk >> geo.chShift) << geo.ilvShift)
                | (addr & geo.ilvMask);
        } else {
            channel = static_cast<u32>(chunk % cfg.channels);
            chAddr = ((chunk / cfg.channels) << geo.ilvShift)
                | (addr & geo.ilvMask);
        }
        if (geo.rowBankPow2) {
            bank = (chAddr >> geo.rowShift) & geo.bankMask;
            row = chAddr >> geo.rowBankShift;
        } else {
            bank = (chAddr / cfg.rowBytes) % cfg.banksPerChannel;
            row = chAddr / (u64(cfg.rowBytes) * cfg.banksPerChannel);
        }
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
        bool chPow2 = false;
        u32 chShift = 0;
        u64 chMask = 0;
        bool rowBankPow2 = false;
        u32 rowShift = 0;
        u64 bankMask = 0;
        u32 rowBankShift = 0;
        bool beatPow2 = false; ///< busBytes * 2 is a power of two
        u32 beatShift = 0;
        u64 beatMask = 0;
    };

    /** DDR beats needed to move @p bytes (two beats of busBytes/clock). */
    u64
    burstClocks(u64 bytes) const
    {
        if (geo.beatPow2)
            return (bytes + geo.beatMask) >> geo.beatShift;
        return ceilDiv(bytes, u64(cfg.busBytes) * 2);
    }

    Tick accessChunk(Addr addr, u32 bytes, AccessType type, Tick now);

    /** Chunk completion given explicit bank/bus state (shared by
     *  accessChunk and probeChunkDone). */
    Tick chunkDone(const BankState &bank, u64 row, Tick busUntil,
                   u32 bytes, Tick start) const;

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
