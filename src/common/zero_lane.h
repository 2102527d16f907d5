/**
 * @file
 * Fixed-length arrays that start as kernel demand-zero memory.
 *
 * The dense per-run tables (remap tables, tag stores, the page lane)
 * are sized by the simulated machine, not by the workload, and a run
 * touches a small part of them. Backing them with an anonymous mapping
 * makes construction free: a page costs memory and zeroing only when
 * first touched. Each table encodes its initial state as all-zero
 * bytes, so it never fills. Lanes of 2 MiB or more are 2 MiB-aligned
 * and ask for transparent huge pages, which cut the TLB misses of their
 * scattered lookups; with THP off they stay lazy at the base page size.
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

    explicit ZeroLane(u64 count) : n(count)
    {
        if (n == 0)
            return;
        u64 bytes = n * sizeof(T);
        bool huge = bytes >= kHugeBytes;
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

} // namespace h2
