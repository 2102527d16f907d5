/**
 * @file
 * The design contract, checked against the live design registry: what
 * every H2_REGISTER_DESIGN ships besides its code, and the request
 * frame it inherits.
 *
 *  - A row in the README design table (the "Latency semantics" table
 *    whose header starts `| design |`).
 *  - docs/metrics.md rows for exactly the Metrics.detail keys the
 *    designs emit: every registered design's default spec runs under
 *    fm=dram and fm=pcm, and the union of their detail keys must equal
 *    the manifest's keys, in both directions, with each differing key
 *    named.
 *  - HybridMemory::access's bounds check: a request past
 *    flatCapacity() aborts, naming the design.
 *
 * Golden snapshots, the remaining part of the contract, are checked by
 * the GoldenMetrics.<Design>Lbm case test_golden_metrics.cc registers
 * for every design.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "sim/design_registry.h"
#include "sim/runner.h"
#include "workloads/workload_spec.h"

#ifndef H2_SOURCE_DIR
#error "H2_SOURCE_DIR must point at the repository root (set by CMake)"
#endif

namespace h2 {
namespace {

std::string
readRepoFile(const std::string &rel)
{
    std::ifstream in(std::string(H2_SOURCE_DIR) + "/" + rel);
    EXPECT_TRUE(in) << "cannot read " << rel;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Backticked tokens in the first cell of markdown table row @p line
 *  (empty for non-rows and rows without any). */
std::set<std::string>
firstCellKeys(const std::string &line)
{
    static const std::regex kRow(R"(^\s*\|([^|]*)\|)");
    static const std::regex kTick("`([^`]+)`");
    std::set<std::string> keys;
    std::smatch m;
    if (!std::regex_search(line, m, kRow))
        return keys;
    std::string cell = m[1].str();
    for (auto it = std::sregex_iterator(cell.begin(), cell.end(), kTick);
         it != std::sregex_iterator(); ++it)
        keys.insert((*it)[1].str());
    return keys;
}

TEST(DesignContract, EveryDesignHasAReadmeRow)
{
    // The design table runs from its `| design |` header to the first
    // line that is not a table row.
    std::istringstream readme(readRepoFile("README.md"));
    std::set<std::string> rows;
    bool inTable = false;
    std::string line;
    while (std::getline(readme, line)) {
        if (line.rfind("| design |", 0) == 0) {
            inTable = true;
            continue;
        }
        if (!inTable)
            continue;
        if (line.rfind("|", 0) != 0)
            break;
        for (const std::string &k : firstCellKeys(line))
            rows.insert(k);
    }
    ASSERT_FALSE(rows.empty()) << "README.md has no `| design |` table";
    for (const sim::DesignInfo *info : sim::DesignRegistry::instance().all())
        EXPECT_TRUE(rows.count(info->name))
            << "design '" << info->name
            << "' is registered but has no row in the README design "
               "table (README.md, \"Latency semantics\")";
}

TEST(DesignContract, DetailKeysMatchTheMetricsManifest)
{
    std::set<std::string> documented;
    std::istringstream manifest(readRepoFile("docs/metrics.md"));
    std::string line;
    while (std::getline(manifest, line))
        for (const std::string &k : firstCellKeys(line))
            documented.insert(k);
    ASSERT_FALSE(documented.empty());

    // Key -> the first design spec and FM technology that emitted it.
    std::map<std::string, std::string> emitted;
    workloads::Workload wl = workloads::resolveWorkloadOrFatal("lbm");
    for (dram::FarMemTech fm :
         {dram::FarMemTech::Dram, dram::FarMemTech::Pcm}) {
        sim::RunConfig cfg;
        cfg.numCores = 1;
        cfg.instrPerCore = 4'000;
        cfg.warmupInstrPerCore = 1'000;
        cfg.fm = fm;
        for (const sim::DesignInfo *info :
             sim::DesignRegistry::instance().all()) {
            std::string spec = info->defaultSpec().toString();
            sim::Metrics m = sim::simulateOne(cfg, wl, spec);
            for (const auto &[key, value] : m.detail.entries())
                emitted.emplace(key, spec + " (fm=" + to_string(fm) + ")");
        }
    }

    for (const auto &[key, source] : emitted)
        EXPECT_TRUE(documented.count(key))
            << "detail key '" << key << "', emitted by " << source
            << ", has no docs/metrics.md row";
    for (const std::string &key : documented)
        EXPECT_TRUE(emitted.count(key))
            << "docs/metrics.md documents '" << key
            << "', but no registered design emits it under fm=dram or "
               "fm=pcm";
}

TEST(DesignContractDeath, AccessBeyondFlatCapacityAbortsNamingTheDesign)
{
    mem::EmptyLlcView llc;
    mem::MemSystemParams mp;
    for (const sim::DesignInfo *info :
         sim::DesignRegistry::instance().all()) {
        auto design = sim::makeDesign(info->defaultSpec(), mp, llc);
        EXPECT_DEATH(
            design->access(design->flatCapacity(), AccessType::Read, 0),
            design->name() + ": access beyond flat capacity")
            << info->name;
    }
}

} // namespace
} // namespace h2
