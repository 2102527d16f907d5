/**
 * @file
 * Interval-based core model and virtual-to-physical address mapping.
 *
 * The core model follows the interval simulation methodology the paper
 * cites (Genbrugge et al., HPCA'10): between misses the core retires
 * @c issueWidth instructions per cycle; long-latency LLC misses overlap
 * up to the MSHR limit and a ROB-sized run-ahead window, after which the
 * core stalls until the oldest miss returns.
 *
 * Address mapping reproduces the paper's "pages are allocated randomly
 * in the HBM or DDR4 proportionally to their capacity": virtual 4 KB
 * pages are placed through a pseudo-random *bijection* over the flat
 * physical space, so placement is random but collision-free.
 */

#pragma once

#include <vector>

#include "cache/cache_hierarchy.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/zero_lane.h"
#include "mem/hybrid_memory.h"
#include "sim/sim_config.h"
#include "workloads/trace.h"

namespace h2::sim {

/** Random, proportional page placement over the flat physical space. */
class AddressMap
{
  public:
    AddressMap(u64 flatBytes, u64 virtualBytes, u64 seed);

    Addr
    toPhysical(Addr globalVaddr) const
    {
        h2_assert(globalVaddr < virtSize,
                  "virtual address out of footprint");
        u64 vpage = globalVaddr / pageBytes;
        // The Feistel walk behind perm.map costs ~40% of a whole
        // simulation when taken per access; the translation is a pure
        // function of the page, so each page pays it once and every
        // later access is one lane lookup (directory, then leaf).
        u64 stored = pageLane.get(vpage);
        if (stored == kUnmapped)
            stored = pageLane.ref(vpage) = ~perm.map(vpage);
        return ~stored * u64(pageBytes) + globalVaddr % pageBytes;
    }

    u64 flatBytes() const { return flatSize; }
    u64 virtualBytes() const { return virtSize; }

    static constexpr u32 pageBytes = 4096;

  private:
    static constexpr u64 kUnmapped = 0;

    u64 flatSize;
    u64 virtSize;
    RandomPermutation perm;
    /** Memoized vpage -> ~ppage lane (0 = not yet translated, so a
     *  fresh lane is all untranslated). At most one u64 per footprint
     *  page (0.2% overhead), held only for the leaves of pages a run
     *  touches; filled lazily so the first touch of each page keeps
     *  the exact permutation result. */
    mutable SparseLane<u64> pageLane;
};

/** One simulated core consuming a trace. */
class CoreModel
{
  public:
    CoreModel(CoreId id, const CoreParams &params,
              workloads::TraceSource &trace,
              cache::CacheHierarchy &hierarchy, mem::HybridMemory &memory,
              const AddressMap &map, Addr virtualBase);

    Tick now() const { return clock; }

    /** Process one trace record. */
    void step();

    /** Wait for all outstanding misses (end of simulation). */
    void drain();

    /** Mark the end of warm-up: measured counters restart here. */
    void beginMeasurement();

    u64 instructions() const { return instrs; }

    u64 measuredInstructions() const { return instrs - measInstr0; }
    u64 measuredAccesses() const { return nAccesses - measAccess0; }
    Tick measurementStart() const { return measClock0; }

  private:
    struct Outstanding
    {
        Tick completeAt;
        u64 instr;
    };

    /** Fixed ring of in-flight misses: the retire loop runs every
     *  step, and the population is bounded by maxOutstanding, so a
     *  flat ring beats deque's chunked storage on the hot path. */
    class MissRing
    {
      public:
        void
        init(u32 capacity)
        {
            buf.assign(capacity + 1, {});
        }
        bool empty() const { return head == tail; }
        u64
        size() const
        {
            return head <= tail ? tail - head
                                : buf.size() - head + tail;
        }
        const Outstanding &front() const { return buf[head]; }
        void pop_front() { head = wrap(head + 1); }
        void
        push_back(const Outstanding &o)
        {
            buf[tail] = o;
            tail = wrap(tail + 1);
            h2_assert(tail != head, "miss ring overflow");
        }
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (u64 i = head; i != tail; i = wrap(i + 1))
                fn(buf[i]);
        }
        void clear() { head = tail = 0; }

      private:
        u64 wrap(u64 i) const { return i == buf.size() ? 0 : i; }
        std::vector<Outstanding> buf;
        u64 head = 0;
        u64 tail = 0;
    };

    CoreId id;
    CoreParams p;
    workloads::TraceSource &trace;
    cache::CacheHierarchy &hier;
    mem::HybridMemory &memory;
    const AddressMap &map;
    Addr vbase;

    Tick clock = 0;
    u64 issueCarry = 0; ///< sub-cycle remainder of gap / issueWidth
    u64 instrs = 0;
    u64 nAccesses = 0;
    u64 measInstr0 = 0;
    u64 measAccess0 = 0;
    Tick measClock0 = 0;
    MissRing pending;
};

} // namespace h2::sim
