/**
 * @file
 * Resident memory of the test process, for tests that bound how much
 * host memory a table costs. ctest runs each test case in its own
 * process, so a before/after difference is that case's growth.
 */

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "common/types.h"

namespace h2::test {

/** Current resident set size of this process, in bytes. */
inline u64
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    u64 sizePages = 0, residentPages = 0;
    statm >> sizePages >> residentPages;
    EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
    return residentPages * u64(sysconf(_SC_PAGESIZE));
}

/** Growth of the resident set since @p before (0 if it shrank). */
inline u64
residentGrowth(u64 before)
{
    u64 now = residentBytes();
    return now > before ? now - before : 0;
}

} // namespace h2::test
