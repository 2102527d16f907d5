#include "workloads/workload_registry.h"

#include "common/log.h"
#include "common/units.h"
#include "workloads/trace_file.h"

namespace h2::workloads {

std::string
to_string(MpkiClass cls)
{
    switch (cls) {
      case MpkiClass::High: return "High";
      case MpkiClass::Medium: return "Medium";
      case MpkiClass::Low: return "Low";
    }
    return "?";
}

u64
Workload::perCoreFootprint(u32 numCores) const
{
    if (trace)
        return multithreaded ? traceVirtualBytes
                             : traceVirtualBytes / traceStreams;
    if (multithreaded)
        return footprintBytes;
    u64 per = footprintBytes / numCores;
    return std::max<u64>(per & ~u64(4095), 4096);
}

u64
Workload::totalVirtualBytes(u32 numCores) const
{
    if (trace)
        return traceVirtualBytes;
    if (!mixParts.empty()) {
        // One page-aligned slice per component in a shared space.
        u64 total = 0;
        for (const Workload &part : mixParts)
            total += (part.totalVirtualBytes(numCores) + 4095) &
                     ~u64(4095);
        return total;
    }
    if (multithreaded)
        return footprintBytes;
    return perCoreFootprint(numCores) * numCores;
}

std::unique_ptr<TraceSource>
Workload::makeSource(u32 core, u32 numCores, u64 seed) const
{
    if (trace) {
        if (numCores != traceStreams)
            h2_fatal("trace '", cacheName(), "' was captured with ",
                     traceStreams, " streams; run it with --cores ",
                     traceStreams, " (got ", numCores, ")");
        return std::make_unique<FileTraceSource>(trace, core);
    }
    if (!mixParts.empty()) {
        std::vector<std::unique_ptr<TraceSource>> sources;
        std::vector<Addr> offsets;
        std::vector<u32> weights;
        Addr base = 0;
        for (size_t i = 0; i < mixParts.size(); ++i) {
            const Workload &part = mixParts[i];
            // Per-stream offsetting: each component instance lands in
            // its own region (multi-program parts additionally split
            // per core, exactly as a standalone run of that part).
            Addr subBase = part.multithreaded
                ? 0 : Addr(core) * part.perCoreFootprint(numCores);
            sources.push_back(part.makeSource(
                core, numCores, seed + i * 0x9e3779b97f4a7c15ULL));
            offsets.push_back(base + subBase);
            weights.push_back(i == 0 ? mixWeight : 1);
            base += (part.totalVirtualBytes(numCores) + 4095) &
                    ~u64(4095);
        }
        return std::make_unique<MixSource>(std::move(sources),
                                           std::move(offsets),
                                           std::move(weights));
    }

    GenParams p;
    p.footprintBytes = perCoreFootprint(numCores);
    p.memRatio = memRatio;
    p.writeFrac = writeFrac;
    p.seed = splitmix64(seed ^ (u64(core) << 32)
                        ^ std::hash<std::string>{}(name));
    p.accessStride = accessStride;
    p.streams = streams;
    p.hotBytes = hotBytes;
    p.hotProbability = hotProbability;
    p.burstLines = burstLines;

    switch (pattern) {
      case Pattern::Stream:
        return std::make_unique<StreamGen>(p);
      case Pattern::Stride:
        return std::make_unique<StrideGen>(p, patternParam);
      case Pattern::Random:
        return std::make_unique<RandomGen>(p);
      case Pattern::Gather:
        return std::make_unique<GatherGen>(p);
      case Pattern::Zipf:
        return std::make_unique<ZipfGen>(p);
      case Pattern::PointerChase:
        return std::make_unique<PointerChaseGen>(p);
    }
    h2_panic("unknown pattern");
}

namespace {

using enum Pattern;

Workload
make(const std::string &name, MpkiClass cls, bool mt, double footprintGb,
     double memRatio, double writeFrac, Pattern pat, double paperMpki)
{
    Workload w;
    w.name = name;
    w.cls = cls;
    w.multithreaded = mt;
    w.footprintBytes = static_cast<u64>(footprintGb * double(GiB));
    w.memRatio = memRatio;
    w.writeFrac = writeFrac;
    w.pattern = pat;
    w.paperMpki = paperMpki;
    return w;
}

std::vector<Workload>
buildRegistry()
{
    std::vector<Workload> v;

    // ----- High MPKI (paper Table 2, top group) ----------------------
    // cg.D: sparse CG - the matrix is streamed while the x-vector is
    // gathered randomly; the vector region is reused across iterations.
    v.push_back(make("cg.D", MpkiClass::High, true, 7.8, 0.26, 0.15,
                     Gather, 90.6));
    v.back().hotBytes = 12 * MiB;
    v.back().hotProbability = 0.30;
    // sp.D / bt.D / lu.D: NAS stencil sweeps - streaming.
    v.push_back(make("sp.D", MpkiClass::High, true, 11.2, 0.26, 0.40,
                     Stream, 30.1));
    v.back().streams = 8;
    v.push_back(make("bt.D", MpkiClass::High, true, 10.7, 0.26, 0.35,
                     Stream, 30.1));
    v.push_back(make("fotonik3d", MpkiClass::High, false, 6.4, 0.24, 0.30,
                     Stream, 28.1));
    v.back().streams = 2;
    v.push_back(make("lbm", MpkiClass::High, false, 3.1, 0.23, 0.50,
                     Stream, 27.4));
    // bwaves: long-stride sweeps (blocked solver).
    v.push_back(make("bwaves", MpkiClass::High, false, 3.3, 0.027, 0.25,
                     Stride, 26.8));
    v.back().patternParam = 1024;
    v.push_back(make("lu.D", MpkiClass::High, true, 2.9, 0.22, 0.40,
                     Stream, 25.8));
    v.back().streams = 8;
    // mcf: dependent pointer chasing, small footprint, low MLP.
    v.push_back(make("mcf", MpkiClass::High, false, 0.1, 0.030, 0.25,
                     PointerChase, 25.8));
    v.back().mlp = 2;
    v.push_back(make("gcc", MpkiClass::High, false, 1.6, 0.022, 0.30,
                     Random, 21.2));
    v.back().burstLines = 8;
    v.push_back(make("roms", MpkiClass::High, false, 2.3, 0.135, 0.35,
                     Stream, 15.5));

    // ----- Medium MPKI ------------------------------------------------
    // mg.C: multigrid - strided levels.
    v.push_back(make("mg.C", MpkiClass::Medium, true, 2.8, 0.0145, 0.30,
                     Stride, 14.2));
    v.back().patternParam = 512;
    // omnetpp: discrete-event graph walk - pointer chase, poor spatial
    // locality (the workload that breaks page-granular caches).
    v.push_back(make("omnetpp", MpkiClass::Medium, false, 1.5, 0.011, 0.30,
                     PointerChase, 9.8));
    v.back().mlp = 2;
    v.push_back(make("is.C", MpkiClass::Medium, true, 1.0, 0.010, 0.35,
                     Random, 9.0));
    v.back().burstLines = 16;
    // dc.B: out-of-core data cube - pure streaming, no reuse.
    v.push_back(make("dc.B", MpkiClass::Medium, true, 4.0, 0.075, 0.45,
                     Stream, 8.4));
    v.back().streams = 8;
    v.push_back(make("ua.D", MpkiClass::Medium, true, 3.1, 0.008, 0.30,
                     Random, 7.8));
    v.back().burstLines = 16;
    v.push_back(make("xz", MpkiClass::Medium, false, 0.7, 0.040, 0.35,
                     Zipf, 5.6));
    v.back().hotBytes = 256 * KiB;
    v.back().burstLines = 32;
    v.back().hotProbability = 0.86;
    v.push_back(make("parest", MpkiClass::Medium, false, 0.2, 0.043, 0.30,
                     Zipf, 4.3));
    v.back().hotBytes = 256 * KiB;
    v.back().burstLines = 16;
    v.back().hotProbability = 0.90;
    v.push_back(make("cactus", MpkiClass::Medium, false, 0.8, 0.0035, 0.30,
                     Stride, 3.4));
    v.back().patternParam = 2048;
    v.push_back(make("ft.C", MpkiClass::Medium, true, 0.9, 0.0032, 0.35,
                     Stride, 3.1));
    v.back().patternParam = 1024;
    v.push_back(make("cam4", MpkiClass::Medium, false, 0.3, 0.022, 0.30,
                     Zipf, 2.2));
    v.back().hotBytes = 128 * KiB;
    v.back().burstLines = 16;
    v.back().hotProbability = 0.90;

    // ----- Low MPKI ----------------------------------------------------
    // The low-MPKI SPEC codes keep their working sets almost entirely
    // in SRAM; the hot regions below are sized to fit the private
    // caches so only the cold tail reaches memory, like the originals.
    v.push_back(make("wrf", MpkiClass::Low, false, 0.4, 0.0175, 0.30,
                     Zipf, 1.4));
    v.back().hotBytes = 128 * KiB;
    v.back().burstLines = 16;
    v.back().hotProbability = 0.92;
    v.push_back(make("xalanc", MpkiClass::Low, false, 0.1, 0.022, 0.25,
                     Zipf, 1.1));
    v.back().hotBytes = 128 * KiB;
    v.back().burstLines = 8;
    v.back().hotProbability = 0.95;
    v.push_back(make("imagick", MpkiClass::Low, false, 0.4, 0.009, 0.40,
                     Stream, 1.1));
    v.push_back(make("x264", MpkiClass::Low, false, 0.3, 0.018, 0.35,
                     Zipf, 0.9));
    v.back().hotBytes = 128 * KiB;
    v.back().burstLines = 16;
    v.back().hotProbability = 0.95;
    v.push_back(make("perlbench", MpkiClass::Low, false, 0.2, 0.014, 0.30,
                     Zipf, 0.7));
    v.back().hotBytes = 128 * KiB;
    v.back().burstLines = 8;
    v.back().hotProbability = 0.95;
    v.push_back(make("blender", MpkiClass::Low, false, 0.2, 0.012, 0.30,
                     Zipf, 0.7));
    v.back().hotBytes = 128 * KiB;
    v.back().burstLines = 8;
    v.back().hotProbability = 0.94;
    // deepsjeng: huge hash table touched rarely - wide footprint, very
    // low intensity, no spatial locality.
    v.push_back(make("deepsjeng", MpkiClass::Low, false, 3.4, 0.0006, 0.30,
                     Random, 0.3));
    v.push_back(make("nab", MpkiClass::Low, false, 0.2, 0.0067, 0.30,
                     Zipf, 0.2));
    v.back().hotBytes = 64 * KiB;
    v.back().burstLines = 8;
    v.back().hotProbability = 0.97;
    v.push_back(make("leela", MpkiClass::Low, false, 0.1, 0.0033, 0.30,
                     Zipf, 0.1));
    v.back().hotBytes = 32 * KiB;
    v.back().burstLines = 4;
    v.back().hotProbability = 0.97;
    v.push_back(make("namd", MpkiClass::Low, false, 0.1, 0.0033, 0.30,
                     Zipf, 0.13));
    v.back().hotBytes = 32 * KiB;
    v.back().burstLines = 4;
    v.back().hotProbability = 0.96;

    h2_assert(v.size() == 30, "registry must contain 30 workloads");
    return v;
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> registry = buildRegistry();
    return registry;
}

std::vector<Workload>
workloadsByClass(MpkiClass cls)
{
    std::vector<Workload> out;
    for (const auto &w : allWorkloads())
        if (w.cls == cls)
            out.push_back(w);
    return out;
}

const Workload *
tryFindWorkload(const std::string &name)
{
    for (const auto &w : allWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

const Workload &
findWorkload(const std::string &name)
{
    if (const Workload *w = tryFindWorkload(name))
        return *w;
    h2_fatal("unknown workload: ", name);
}

std::vector<Workload>
quickSuite()
{
    // One MT and one MP workload per MPKI class, covering the pattern
    // archetypes that differentiate the designs.
    return {
        findWorkload("cg.D"),      // high, MT, random
        findWorkload("lbm"),       // high, MP, stream
        findWorkload("xz"),        // medium, MP, hot/cold reuse
        findWorkload("dc.B"),      // medium, MT, streaming no-reuse
        findWorkload("xalanc"),    // low, MP, hot/cold
        findWorkload("deepsjeng"), // low, MP, wide sparse
    };
}

} // namespace h2::workloads
