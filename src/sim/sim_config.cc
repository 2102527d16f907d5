#include "sim/sim_config.h"

#include <sstream>

#include "common/log.h"
#include "common/units.h"
#include "dram/dram_params.h"

namespace h2::sim {

SystemConfig
table1Config(u64 nmBytes, u64 fmBytes)
{
    // Cores, caches and latencies are the defaults of SystemConfig and
    // HierarchyParams; only the memory capacities vary.
    SystemConfig cfg;
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
        return "nmBytes must be non-zero (use the 'baseline' design for "
               "an FM-only system)";
    if (cfg.mem.nmBytes >= cfg.mem.fmBytes)
        return detail::concat(
            "NM capacity (", formatBytes(cfg.mem.nmBytes),
            ") must be smaller than FM capacity (",
            formatBytes(cfg.mem.fmBytes),
            "); the paper evaluates NM:FM ratios of 1:16 to 4:16");
    return {};
}

std::string
describeConfig(const SystemConfig &cfg)
{
    dram::DramParams nm = cfg.mem.nmDeviceParams();
    dram::DramParams fm = cfg.mem.fmDeviceParams();
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
