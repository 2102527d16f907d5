#include "workloads/generators.h"

#include "common/log.h"

namespace h2::workloads {

GeneratorBase::GeneratorBase(const GenParams &params)
    : p(params), rng(params.seed)
{
    h2_assert(p.footprintBytes >= 4096, "footprint too small");
    h2_assert(p.memRatio > 0.0 && p.memRatio <= 1.0, "bad memRatio");
    h2_assert(p.writeFrac >= 0.0 && p.writeFrac <= 1.0, "bad writeFrac");
    gapBase = 1.0 / p.memRatio - 1.0;
}

TraceRecord
GeneratorBase::next()
{
    TraceRecord rec;
    // Expected instructions per access = 1/memRatio; the gap excludes
    // the access itself. Carry the fractional part so the ratio is met
    // exactly in the long run.
    double gap = gapBase + gapCarry;
    rec.instGap = static_cast<u32>(gap);
    gapCarry = gap - rec.instGap;
    // Generators already bound their addresses; the modulo is a
    // safety net whose u64 divide would otherwise tax every record.
    Addr a = nextAddr();
    rec.vaddr = a < p.footprintBytes ? a : a % p.footprintBytes;
    rec.type = rng.chance(p.writeFrac) ? AccessType::Write
                                       : AccessType::Read;
    return rec;
}

StreamGen::StreamGen(const GenParams &params)
    : GeneratorBase(params)
{
    u32 n = std::max<u32>(1, p.streams);
    partitionBytes = p.footprintBytes / n;
    h2_assert(partitionBytes > 0, "too many streams for footprint");
    cursors.resize(n);
    for (u32 s = 0; s < n; ++s)
        cursors[s] = rng.below(partitionBytes);
}

Addr
StreamGen::nextAddr()
{
    u32 s = turn;
    if (++turn == cursors.size())
        turn = 0;
    u64 addr = u64(s) * partitionBytes + cursors[s];
    // Wrap by subtraction: one stride past the end never reaches
    // 2*partitionBytes, so the result matches the modulo exactly.
    u64 c = cursors[s] + p.accessStride;
    if (c >= partitionBytes)
        c = p.accessStride <= partitionBytes ? c - partitionBytes
                                             : c % partitionBytes;
    cursors[s] = c;
    return addr;
}

StrideGen::StrideGen(const GenParams &params, u64 strideBytes)
    : GeneratorBase(params), stride(strideBytes)
{
    h2_assert(stride > 0 && stride < p.footprintBytes, "bad stride");
}

Addr
StrideGen::nextAddr()
{
    u64 addr = cursor;
    cursor += stride;
    if (cursor >= p.footprintBytes)
        // Restart offset by one element to touch new lines each sweep.
        cursor = (cursor + p.accessStride) % stride;
    return addr;
}

RandomGen::RandomGen(const GenParams &params)
    : GeneratorBase(params)
{
}

Addr
RandomGen::nextAddr()
{
    if (remainingInBurst == 0) {
        cursor = rng.below(p.footprintBytes) & ~Addr(63);
        remainingInBurst = p.burstLines;
    } else {
        cursor += 64; // footprint >= 4096, so one subtract wraps
        if (cursor >= p.footprintBytes)
            cursor -= p.footprintBytes;
    }
    --remainingInBurst;
    return cursor;
}

ZipfGen::ZipfGen(const GenParams &params)
    : GeneratorBase(params)
{
    h2_assert(p.hotBytes > 0, "ZipfGen needs hotBytes");
    hotBytes = std::min(std::max<u64>(4096, p.hotBytes),
                        p.footprintBytes / 2);
}

Addr
ZipfGen::nextAddr()
{
    if (rng.chance(p.hotProbability)) {
        // Resident loop over the hot region, one line per step.
        Addr a = hotCursor;
        hotCursor += 64; // hotBytes >= 4096, so one subtract wraps
        if (hotCursor >= hotBytes)
            hotCursor -= hotBytes;
        return a;
    }
    // Cold tail: random jumps with short sequential bursts.
    u64 coldSpan = p.footprintBytes - hotBytes;
    if (coldRemaining == 0) {
        coldCursor = rng.below(coldSpan) & ~Addr(63);
        coldRemaining = p.burstLines;
    } else {
        coldCursor += 64; // coldSpan >= footprint/2 >= 2048 > 64
        if (coldCursor >= coldSpan)
            coldCursor -= coldSpan;
    }
    --coldRemaining;
    return hotBytes + coldCursor;
}

PointerChaseGen::PointerChaseGen(const GenParams &params)
    : GeneratorBase(params)
{
    // Full-period LCG over a power-of-two node count: a % 8 == 5,
    // c odd (Hull-Dobell).
    nodes = u64(1) << floorLog2(p.footprintBytes / 64);
    pos = rng.below(nodes);
    mult = 6364136223846793005ULL;
    inc = splitmix64(p.seed) | 1;
}

Addr
PointerChaseGen::nextAddr()
{
    pos = (mult * pos + inc) & (nodes - 1);
    return pos * 64;
}

GatherGen::GatherGen(const GenParams &params)
    : GeneratorBase(params)
{
    h2_assert(p.hotBytes > 0, "GatherGen needs hotBytes");
    regionBytes = std::min<u64>(p.hotBytes, p.footprintBytes / 2);
    h2_assert(regionBytes >= 4096, "gather region too small");
    streamSpan = p.footprintBytes - regionBytes;
    u32 n = std::max<u32>(1, p.streams);
    partitionBytes = streamSpan / n;
    cursors.resize(n);
    for (u32 s = 0; s < n; ++s)
        cursors[s] = rng.below(partitionBytes);
}

Addr
GatherGen::nextAddr()
{
    if (rng.chance(p.hotProbability))
        return rng.below(regionBytes) & ~Addr(7);
    u32 s = turn;
    if (++turn == cursors.size())
        turn = 0;
    u64 addr = regionBytes + u64(s) * partitionBytes + cursors[s];
    u64 c = cursors[s] + p.accessStride;
    if (c >= partitionBytes)
        c = p.accessStride <= partitionBytes ? c - partitionBytes
                                             : c % partitionBytes;
    cursors[s] = c;
    return addr;
}

MixSource::MixSource(std::vector<std::unique_ptr<TraceSource>> mixParts,
                     std::vector<Addr> partOffsets,
                     std::vector<u32> partWeights)
    : parts(std::move(mixParts)), offsets(std::move(partOffsets)),
      weights(std::move(partWeights))
{
    h2_assert(!parts.empty() && parts.size() == offsets.size() &&
                  parts.size() == weights.size(),
              "MixSource vectors must be parallel and non-empty");
    for (u32 w : weights)
        h2_assert(w > 0, "MixSource weights must be non-zero");
    leftInTurn = weights[0];
}

TraceRecord
MixSource::next()
{
    TraceRecord rec = parts[turn]->next();
    rec.vaddr += offsets[turn];
    if (--leftInTurn == 0) {
        turn = (turn + 1) % parts.size();
        leftInTurn = weights[turn];
    }
    return rec;
}

} // namespace h2::workloads
