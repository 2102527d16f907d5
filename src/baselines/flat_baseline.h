/**
 * @file
 * The normalization baseline: an FM-only system with no 3D-stacked DRAM.
 * Every result in the paper's evaluation is a speedup over this design.
 */

#pragma once

#include "mem/hybrid_memory.h"

namespace h2::baselines {

class FlatBaseline : public mem::HybridMemory
{
  public:
    explicit FlatBaseline(const mem::MemSystemParams &sysParams);

    std::string name() const override { return "BASELINE"; }
    u64 flatCapacity() const override { return sys.fmBytes; }

  private:
    bool serve(Addr addr, AccessType type, mem::Timeline &tl) override;
};

} // namespace h2::baselines
