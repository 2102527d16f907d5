#include "sim/sim_config.h"

#include <sstream>

#include "common/log.h"
#include "common/units.h"
#include "dram/dram_params.h"

namespace h2::sim {

SystemConfig
table1Config(u64 nmBytes, u64 fmBytes)
{
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.hier.numCores = 8;
    cfg.hier.l1 = {"L1", 64 * KiB, 4, 64};
    cfg.hier.l2 = {"L2", 256 * KiB, 8, 64};
    cfg.hier.llc = {"LLC", 8 * MiB, 16, 64};
    cfg.hier.l1LatencyCycles = 1;
    cfg.hier.l2LatencyCycles = 9;
    cfg.hier.llcLatencyCycles = 14;
    cfg.mem.nmBytes = nmBytes;
    cfg.mem.fmBytes = fmBytes;
    return cfg;
}

std::string
validateSystemConfig(const SystemConfig &cfg)
{
    if (cfg.numCores == 0)
        return "numCores must be at least 1";
    if (cfg.instrPerCore == 0)
        return "instrPerCore must be at least 1 (zero-instruction runs "
               "produce no metrics)";
    if (cfg.mem.nmBytes == 0)
        return "mem.nmBytes must be non-zero";
    if (cfg.mem.nmBytes >= cfg.mem.fmBytes)
        return detail::concat("NM capacity (", formatBytes(cfg.mem.nmBytes),
                              ") must be smaller than FM capacity (",
                              formatBytes(cfg.mem.fmBytes), ")");
    return {};
}

std::string
describeConfig(const SystemConfig &cfg)
{
    auto nm = dram::DramParams::hbm2(cfg.mem.nmBytes);
    auto fm = dram::DramParams::farMemory(cfg.mem.fmTech, cfg.mem.fmBytes);
    std::ostringstream os;
    os << "Cores       : " << cfg.numCores << " cores, out-of-order, "
       << cfg.core.issueWidth << "-way issue/commit, 3.2 GHz\n"
       << "L1 Cache    : private, " << formatBytes(cfg.hier.l1.sizeBytes)
       << ", " << cfg.hier.l1.ways << "-way, "
       << cfg.hier.l1LatencyCycles << " cycle access latency\n"
       << "L2 Cache    : private, " << formatBytes(cfg.hier.l2.sizeBytes)
       << ", " << cfg.hier.l2.ways << "-way, "
       << cfg.hier.l2LatencyCycles << " cycles access latency\n"
       << "L3 Cache    : shared " << formatBytes(cfg.hier.llc.sizeBytes)
       << ", " << cfg.hier.llc.ways << "-way, "
       << cfg.hier.llcLatencyCycles
       << " cycles access latency, non-inclusive non-exclusive\n"
       << "Near Memory : " << nm.name << " 2 GHz, "
       << formatBytes(nm.capacityBytes) << ", " << nm.channels
       << " 128-bit channels, " << nm.banksPerChannel
       << " banks, tCAS-tRCD-tRP: " << nm.tCas << "-" << nm.tRcd << "-"
       << nm.tRp << ", RD/WR+I/O energy: " << nm.rdPjPerBit
       << " pJ/bit, ACT/PRE energy: " << nm.actPreNj << " nJ\n"
       << "Far Memory  : " << fm.name << ", "
       << formatBytes(fm.capacityBytes) << ", " << fm.channels
       << " 64-bit channels, " << fm.banksPerChannel
       << " banks, tCAS-tRCD-tRP: " << fm.tCas << "-" << fm.tRcd << "-"
       << fm.tRp;
    if (fm.tWr > 0)
        os << ", tWR: " << fm.tWr;
    if (fm.rdPjPerBit == fm.wrPjPerBit)
        os << ", RD/WR+I/O energy: " << fm.rdPjPerBit << " pJ/bit";
    else
        os << ", RD+I/O energy: " << fm.rdPjPerBit
           << " pJ/bit, WR+I/O energy: " << fm.wrPjPerBit << " pJ/bit";
    os << ", ACT/PRE energy: " << fm.actPreNj << " nJ\n";
    return os.str();
}

} // namespace h2::sim
