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

} // namespace h2::cache
