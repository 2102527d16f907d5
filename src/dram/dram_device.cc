#include "dram/dram_device.h"

#include <algorithm>

#include "common/log.h"

namespace h2::dram {

DramDevice::DramDevice(const DramParams &params)
    : cfg(params)
{
    h2_assert(cfg.channels > 0 && cfg.banksPerChannel > 0,
              "DRAM geometry must be non-empty");
    h2_assert(isPowerOf2(cfg.interleaveBytes),
              "interleave must be a power of two");
    geo.ilvShift = floorLog2(cfg.interleaveBytes);
    geo.ilvMask = cfg.interleaveBytes - 1;
    geo.chPow2 = isPowerOf2(cfg.channels);
    if (geo.chPow2) {
        geo.chShift = floorLog2(cfg.channels);
        geo.chMask = cfg.channels - 1;
    }
    geo.rowBankPow2 =
        isPowerOf2(cfg.rowBytes) && isPowerOf2(cfg.banksPerChannel);
    if (geo.rowBankPow2) {
        geo.rowShift = floorLog2(cfg.rowBytes);
        geo.bankMask = cfg.banksPerChannel - 1;
        geo.rowBankShift = geo.rowShift + floorLog2(cfg.banksPerChannel);
    }
    u64 beatBytes = u64(cfg.busBytes) * 2;
    geo.beatPow2 = isPowerOf2(beatBytes);
    if (geo.beatPow2) {
        geo.beatShift = floorLog2(beatBytes);
        geo.beatMask = beatBytes - 1;
    }
    channels.resize(cfg.channels);
    for (auto &ch : channels)
        ch.banks.resize(cfg.banksPerChannel);
    if (cfg.trackWear)
        wearBytes.assign(u64(cfg.channels) * cfg.banksPerChannel, 0);
}

Tick
DramDevice::chunkDone(const BankState &bank, u64 row, Tick busUntil,
                      u32 bytes, Tick start) const
{
    u32 latCycles;
    if (bank.open && bank.row == row)
        latCycles = cfg.tCas;
    else if (!bank.open)
        latCycles = cfg.tRcd + cfg.tCas;
    else
        latCycles = cfg.tRp + cfg.tRcd + cfg.tCas;
    Tick cmdDone = start + Tick(latCycles) * cfg.clockPs;
    Tick dataStart = std::max(cmdDone, busUntil);
    // Double data rate: two beats of busBytes per clock.
    return dataStart + burstClocks(bytes) * cfg.clockPs;
}

Tick
DramDevice::accessChunk(Addr addr, u32 bytes, AccessType type, Tick now)
{
    u32 chIdx;
    u64 bankIdx, row;
    decode(addr, chIdx, bankIdx, row);
    ChannelState &ch = channels[chIdx];
    BankState &bank = ch.banks[bankIdx];

    Tick start = std::max(now, bank.readyAt);
    if (bank.open && bank.row == row) {
        ++counters.rowHits;
    } else if (!bank.open) {
        ++counters.rowEmpty;
        ++counters.activations;
        counters.actEnergyPj += cfg.actPreNj * 1000.0;
    } else {
        ++counters.rowMisses;
        ++counters.activations;
        counters.actEnergyPj += cfg.actPreNj * 1000.0;
    }
    Tick dataEnd = chunkDone(bank, row, ch.busUntil, bytes, start);
    bank.open = true;
    bank.row = row;
    ch.busUntil = dataEnd;
    busyAccum += burstClocks(bytes) * cfg.clockPs;
    bank.readyAt = dataEnd;
    if (dataEnd > lastTick)
        lastTick = dataEnd;

    if (type == AccessType::Read) {
        ++counters.reads;
        counters.bytesRead += bytes;
        counters.readEnergyPj += 8.0 * bytes * cfg.rdPjPerBit;
    } else {
        ++counters.writes;
        counters.bytesWritten += bytes;
        counters.writeEnergyPj += 8.0 * bytes * cfg.wrPjPerBit;
        // Cell programming (PCM): the bank stays busy past the data
        // burst, but the write itself completes with its burst — the
        // cost lands on whoever needs this bank next.
        bank.readyAt = dataEnd + Tick(cfg.tWr) * cfg.clockPs;
        if (cfg.trackWear)
            wearBytes[u64(chIdx) * cfg.banksPerChannel + bankIdx] += bytes;
    }
    return dataEnd;
}

Tick
DramDevice::access(Addr addr, u32 bytes, AccessType type, Tick now)
{
    h2_assert(bytes > 0, "zero-byte DRAM access");
    h2_assert(addr < cfg.capacityBytes && addr + bytes <= cfg.capacityBytes,
              cfg.name, ": access beyond capacity, addr=", addr,
              " bytes=", bytes);
    Tick done = 0;
    Addr cur = addr;
    u64 remaining = bytes;
    while (remaining > 0) {
        u64 inChunk = cfg.interleaveBytes - (cur & geo.ilvMask);
        u32 take = static_cast<u32>(std::min<u64>(inChunk, remaining));
        done = std::max(done, accessChunk(cur, take, type, now));
        cur += take;
        remaining -= take;
    }
    return done;
}

Tick
DramDevice::probeChunkDone(u32 ch, u64 bank, u64 row, u32 bytes,
                           Tick start) const
{
    const ChannelState &c = channels[ch];
    const BankState &b = c.banks[bank];
    return chunkDone(b, row, c.busUntil, bytes, std::max(start, b.readyAt));
}

double
DramDevice::dynamicEnergyPj() const
{
    return counters.readEnergyPj + counters.writeEnergyPj +
           counters.actEnergyPj;
}

u64
DramDevice::bankWearBytes(u32 ch, u64 bank) const
{
    if (!cfg.trackWear)
        return 0;
    return wearBytes.at(u64(ch) * cfg.banksPerChannel + bank);
}

u64
DramDevice::wearTotalBytes() const
{
    u64 total = 0;
    for (u64 w : wearBytes)
        total += w;
    return total;
}

u64
DramDevice::maxBankWearDelta() const
{
    if (wearBytes.empty())
        return 0;
    auto [lo, hi] = std::minmax_element(wearBytes.begin(), wearBytes.end());
    return *hi - *lo;
}

double
DramDevice::busUtilization(Tick now) const
{
    if (now <= statsSince)
        return 0.0;
    return double(busyAccum) / (double(now - statsSince) * channels.size());
}

void
DramDevice::resetStats()
{
    counters = DramStats{};
    busyAccum = 0;
    std::fill(wearBytes.begin(), wearBytes.end(), 0);
    // The utilization window restarts with the busy accumulator: a
    // warm-up reset must not divide post-warm-up busy time by a
    // denominator that still spans warm-up.
    statsSince = lastTick;
}

void
DramDevice::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".reads", double(counters.reads));
    out.add(prefix + ".writes", double(counters.writes));
    out.add(prefix + ".bytesRead", double(counters.bytesRead));
    out.add(prefix + ".bytesWritten", double(counters.bytesWritten));
    out.add(prefix + ".rowHits", double(counters.rowHits));
    out.add(prefix + ".rowMisses", double(counters.rowMisses));
    out.add(prefix + ".rowEmpty", double(counters.rowEmpty));
    out.add(prefix + ".activations", double(counters.activations));
    out.add(prefix + ".dynamicEnergyPj", dynamicEnergyPj());
    out.add(prefix + ".readEnergyPj", counters.readEnergyPj);
    out.add(prefix + ".writeEnergyPj", counters.writeEnergyPj);
    out.add(prefix + ".actEnergyPj", counters.actEnergyPj);
    out.add(prefix + ".busUtilization", busUtilization());
    if (cfg.trackWear) {
        out.add(prefix + ".wearTotalBytes", double(wearTotalBytes()));
        out.add(prefix + ".maxBankWearBytes",
                double(*std::max_element(wearBytes.begin(),
                                         wearBytes.end())));
        out.add(prefix + ".maxBankWearDelta", double(maxBankWearDelta()));
    }
}

} // namespace h2::dram
