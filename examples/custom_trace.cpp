/**
 * @file
 * Driving Hybrid2 with a user-supplied trace: implements a small CSV
 * TraceSource ("instGap,vaddr,R|W" per line, decimal numbers) and
 * replays it through the DCMC's public access API - the template for
 * replaying real application traces instead of the synthetic suite.
 *
 * Usage: custom_trace [trace.csv]
 * Without an argument a demo trace is generated in /tmp.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/parse.h"
#include "common/units.h"
#include "core/dcmc.h"
#include "workloads/trace.h"

namespace {

using namespace h2;

/** Replays "gap,vaddr,R|W" lines, looping at end of file. */
class CsvTrace : public workloads::TraceSource
{
  public:
    explicit CsvTrace(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            h2_fatal("cannot open trace file: ", path);
        std::string line;
        for (u64 lineNo = 1; std::getline(in, line); ++lineNo) {
            if (line.empty() || line[0] == '#')
                continue;
            const std::string row = path + " line " + std::to_string(lineNo);
            std::istringstream ss(line);
            std::string gap, addr, type;
            std::getline(ss, gap, ',');
            std::getline(ss, addr, ',');
            std::getline(ss, type, ',');
            if (type != "R" && type != "W")
                h2_fatal("bad value for ", row, " type: '", type,
                         "' (expected R or W)");
            u64 instGap = parseU64OrFatal(row + " instGap", gap);
            if (instGap > UINT32_MAX)
                h2_fatal("bad value for ", row, " instGap: '", gap,
                         "' (out of range)");
            records.push_back({static_cast<u32>(instGap),
                               parseU64OrFatal(row + " vaddr", addr),
                               type == "W" ? AccessType::Write
                                           : AccessType::Read});
        }
        if (records.empty())
            h2_fatal("trace file has no records: ", path);
    }

    workloads::TraceRecord
    next() override
    {
        return records[pos++ % records.size()];
    }

    u64 size() const { return records.size(); }

  private:
    std::vector<workloads::TraceRecord> records;
    u64 pos = 0;
};

std::string
writeDemoTrace()
{
    std::string path = "/tmp/hybrid2_demo_trace.csv";
    std::ofstream out(path);
    out << "# instGap,vaddr,R|W\n";
    // A hot 256 KiB loop plus cold streaming writes into the FM-backed
    // part of the flat address space (beyond the ~0.93 GiB NM region).
    for (int rep = 0; rep < 200; ++rep) {
        for (u64 a = 0; a < 256 * KiB; a += 4096)
            out << "20," << (a + u64(rep % 64) * 64) << ",R\n";
        out << "10," << (2 * GiB + u64(rep) * MiB) << ",W\n";
    }
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path = argc > 1 ? argv[1] : writeDemoTrace();
    std::printf("replaying %s through the Hybrid2 DCMC\n", path.c_str());

    // A paper-default Hybrid2: 1 GiB HBM2 NM, 16 GiB DDR4 FM, 64 MiB
    // sectored DRAM cache with 2 KiB sectors and 256 B lines.
    mem::MemSystemParams mp;
    core::Hybrid2Params hp;
    core::Dcmc dcmc(mp, hp);

    CsvTrace trace(path);
    std::printf("trace records : %llu (looped to 200k accesses)\n",
                static_cast<unsigned long long>(trace.size()));

    Tick now = 0;
    const u64 accesses = 200'000;
    const Tick corePeriod = 313; // 3.2 GHz
    for (u64 i = 0; i < accesses; ++i) {
        auto rec = trace.next();
        now += Tick(rec.instGap + 1) * corePeriod;
        Addr addr = (rec.vaddr % dcmc.flatCapacity()) & ~Addr(63);
        auto result = dcmc.access(addr, rec.type, now);
        now = std::max(now, result.completeAt() - 1); // crude serialization
    }
    dcmc.checkInvariants();

    StatSet out;
    dcmc.collectStats(out);
    std::printf("served from NM: %.1f%%\n",
                100.0 * double(dcmc.requestsFromNm())
                    / double(dcmc.requests()));
    std::printf("migrations    : %.0f\n", out.get("dcmc.migrations"));
    std::printf("swap-outs     : %.0f\n", out.get("dcmc.swapOuts"));
    std::printf("FM traffic    : %s\n",
                formatBytes(u64(out.get("fm.bytesRead")
                                + out.get("fm.bytesWritten"))).c_str());
    std::printf("NM traffic    : %s\n",
                formatBytes(u64(out.get("nm.bytesRead")
                                + out.get("nm.bytesWritten"))).c_str());
    std::printf("dyn. energy   : %.2f uJ\n",
                dcmc.dynamicEnergyPj() / 1e6);
    return 0;
}
