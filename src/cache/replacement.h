/**
 * @file
 * Replacement policies for set-associative structures.
 */

#pragma once

#include <string>

#include "common/types.h"

namespace h2::cache {

/** Victim-selection policy of a set-associative structure. */
enum class ReplPolicy : u8 {
    Lru,    ///< least-recently-used (stamp updated on every access)
    Fifo,   ///< oldest insertion (stamp fixed at fill time)
    Random, ///< pseudo-random way (deterministic hash of a counter)
};

std::string to_string(ReplPolicy policy);

/**
 * Select the victim way among @p ways entries.
 *
 * SetAssocCache::insert applies this rule inside its own single scan
 * of the set; tests use this function as the reference it must match.
 *
 * @param stamps   per-way recency/insertion stamps (smaller = older)
 * @param valids   per-way valid flags; an invalid way wins immediately
 * @param ways     number of ways
 * @param tiebreak monotonic counter used to derive the Random choice
 */
u32 selectVictim(ReplPolicy policy, const u64 *stamps, const bool *valids,
                 u32 ways, u64 tiebreak);

} // namespace h2::cache
