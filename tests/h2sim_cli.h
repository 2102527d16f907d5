/**
 * @file
 * Runs the h2sim binary (the H2SIM_BIN definition, set by
 * tests/CMakeLists.txt) for tests that pin its exit-code contract.
 */

#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

#ifndef H2SIM_BIN
#error "H2SIM_BIN must point at the h2sim executable"
#endif

namespace h2::sim {

struct CliRun
{
    int exitCode = -1;
    std::string output; ///< stdout and stderr
};

/** Run the h2sim binary with @p args. */
inline CliRun
runH2sim(const std::string &args)
{
    std::string cmd = std::string(H2SIM_BIN) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    CliRun run;
    if (!pipe)
        return run;
    char buf[256];
    while (size_t n = std::fread(buf, 1, sizeof buf, pipe))
        run.output.append(buf, n);
    int rc = pclose(pipe);
    if (WIFEXITED(rc))
        run.exitCode = WEXITSTATUS(rc);
    return run;
}

} // namespace h2::sim
