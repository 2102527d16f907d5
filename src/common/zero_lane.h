/**
 * @file
 * Fixed-length arrays that start as kernel demand-zero memory.
 *
 * The per-run tables (remap tables, tag stores, the page lane) are sized
 * by the simulated machine, not by the workload, and a run touches a
 * small part of them. Each table encodes its initial state as all-zero
 * bytes, so construction fills nothing and touches no page. Two kinds
 * of lane hold them, chosen by how a run touches the table:
 *
 *  - ZeroLane: one flat anonymous mapping; a page costs memory and
 *    zeroing only when first touched. Lanes of 2 MiB or more are
 *    2 MiB-aligned and ask for transparent huge pages, which cut the
 *    TLB misses of their scattered lookups; with THP off they stay lazy
 *    at the base page size. For tables that are small or whose touched
 *    entries cluster: the XTA, and the dense SetAssocCache storage of
 *    the SRAM hierarchy and the remap caches, one lane of whole-set
 *    records (a set's tags, then its meta words). The DRAM-cache tag
 *    stores' sparse set storage (cache/set_assoc_cache.h) is built from
 *    two of them: a directory of per-set record numbers and an arena of
 *    the same records, so a set's ways stay one contiguous run.
 *  - SparseLane: a directory of leaf numbers plus an arena into which
 *    leaves of kLeafEntries entries are packed in first-write order.
 *    Reading an entry whose leaf was never written costs no memory;
 *    writing one claims the next arena leaf. Resident memory therefore
 *    follows the number of leaves written, not how widely they are
 *    spread. For large tables written at scattered indices (the remap
 *    tables and the page lane: pages are placed at random).
 */

#pragma once

#include <sys/mman.h>

#include <type_traits>
#include <utility>

#include "common/log.h"
#include "common/types.h"

namespace h2 {

/** A move-only array of @p T whose elements all start as zero bytes. */
template <typename T>
class ZeroLane
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "a zero lane holds trivially copyable elements");

  public:
    ZeroLane() = default;

    /** @p hugeWhenLarge false keeps a lane of 2 MiB or more on base
     *  pages (a SparseLane arena, whose touched part is one dense
     *  prefix: huge pages would only round its residency up). */
    explicit ZeroLane(u64 count, bool hugeWhenLarge = true) : n(count)
    {
        if (n == 0)
            return;
        u64 bytes = n * sizeof(T);
        bool huge = hugeWhenLarge && bytes >= kHugeBytes;
        mapBytes = huge ? bytes + kHugeBytes : bytes;
        map = mmap(nullptr, mapBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (map == MAP_FAILED)
            h2_fatal("cannot map ", bytes, " bytes for a zero lane");
        auto at = reinterpret_cast<u64>(map);
        if (huge) {
            at = (at + kHugeBytes - 1) & ~(kHugeBytes - 1);
            // Advisory: without THP the lane stays at base pages.
            madvise(reinterpret_cast<void *>(at), bytes, MADV_HUGEPAGE);
        }
        elems = reinterpret_cast<T *>(at);
    }

    ZeroLane(ZeroLane &&o) noexcept { swap(o); }
    ZeroLane &
    operator=(ZeroLane &&o) noexcept
    {
        ZeroLane(std::move(o)).swap(*this);
        return *this;
    }
    ZeroLane(const ZeroLane &) = delete;
    ZeroLane &operator=(const ZeroLane &) = delete;

    ~ZeroLane()
    {
        if (map)
            munmap(map, mapBytes);
    }

    T &operator[](u64 i) { return elems[i]; }
    const T &operator[](u64 i) const { return elems[i]; }
    T *data() { return elems; }
    const T *data() const { return elems; }
    u64 size() const { return n; }

  private:
    static constexpr u64 kHugeBytes = u64(2) << 20;

    void
    swap(ZeroLane &o) noexcept
    {
        std::swap(elems, o.elems);
        std::swap(n, o.n);
        std::swap(map, o.map);
        std::swap(mapBytes, o.mapBytes);
    }

    T *elems = nullptr;
    u64 n = 0;
    void *map = nullptr; ///< the whole mapping, alignment slack included
    u64 mapBytes = 0;
};

/**
 * A move-only array of @p T whose elements all start as zero bytes,
 * stored as two ZeroLanes: a directory with one u32 leaf number per
 * kLeafEntries indices (0 = never written) and an arena of leaves.
 * Arena leaf 0 is never written, so an absent leaf reads as zeros
 * without a branch; written leaves are numbered 1, 2, ... in the
 * order their first write arrived, so the touched part of the arena is
 * one dense prefix. Both lanes are reserved at full size up front
 * (address space only), so a leaf never moves and a reference from
 * ref() stays valid for the lane's lifetime.
 */
template <typename T>
class SparseLane
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "a sparse lane holds trivially copyable elements");

  public:
    /** log2 of the entries per leaf, chosen by measurement over 16 to
     *  1024 entries (README, "Demand-zero tables"): 16 entries (64 or
     *  128 bytes, one or two cache lines) gave the lowest peak RSS and
     *  the fastest BM_RemapLookup. The directory then costs 4 bytes
     *  per 16 entries: 2.2 MB for the 35 MB remap table of 1 GiB NM
     *  over 16 GiB FM. */
    static constexpr u32 kLeafShift = 4;
    static constexpr u64 kLeafEntries = u64(1) << kLeafShift;

    SparseLane() = default;

    explicit SparseLane(u64 count)
        : n(count), dir(ceilDiv(count, kLeafEntries)),
          arena((dir.size() + 1) * kLeafEntries, /*hugeWhenLarge=*/false)
    {
        h2_assert(dir.size() < (u64(1) << 32),
                  "sparse lane of ", count, " entries overflows u32 leaf "
                  "numbers");
    }

    SparseLane(SparseLane &&o) noexcept { swap(o); }
    SparseLane &
    operator=(SparseLane &&o) noexcept
    {
        SparseLane(std::move(o)).swap(*this);
        return *this;
    }
    SparseLane(const SparseLane &) = delete;
    SparseLane &operator=(const SparseLane &) = delete;

    /** Entry @p i; zero, with nothing allocated, if its leaf was never
     *  written. */
    T
    get(u64 i) const
    {
        return arena[slot(dir[i >> kLeafShift], i)];
    }

    /** Writable entry @p i; claims its leaf on first use. */
    T &
    ref(u64 i)
    {
        u32 &leaf = dir[i >> kLeafShift];
        if (leaf == 0)
            leaf = ++nLeaves;
        return arena[slot(leaf, i)];
    }

    u64 size() const { return n; }
    /** Leaves claimed so far (the arena's touched prefix, in leaves). */
    u64 leaves() const { return nLeaves; }

  private:
    static u64
    slot(u32 leaf, u64 i)
    {
        return (u64(leaf) << kLeafShift) | (i & (kLeafEntries - 1));
    }

    void
    swap(SparseLane &o) noexcept
    {
        std::swap(n, o.n);
        std::swap(nLeaves, o.nLeaves);
        std::swap(dir, o.dir);
        std::swap(arena, o.arena);
    }

    u64 n = 0;
    u32 nLeaves = 0;
    ZeroLane<u32> dir;
    ZeroLane<T> arena;
};

} // namespace h2
