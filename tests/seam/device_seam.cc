/**
 * @file
 * Compile-time check of the controller seam: a design (a HybridMemory
 * subclass) can issue DRAM traffic only through nmc()/fmc(), so FR-FCFS
 * queueing is never bypassed.
 *
 * The device_seam_* ctests (tests/CMakeLists.txt) compile this file
 * with -fsyntax-only against the real src/ headers, once per case.
 * SEAM_CONTROL takes the sanctioned path and must compile, which also
 * proves the include path works. Every other case tries to call
 * DramDevice::access() around the controller and must be rejected
 * with the diagnostic its ctest expects.
 */

#include <string>

#include "mem/hybrid_memory.h"

namespace h2 {

class SeamProbe : public mem::HybridMemory
{
  public:
    using HybridMemory::HybridMemory;

    std::string name() const override { return "seam-probe"; }
    u64 flatCapacity() const override { return sys.fmBytes; }

  private:
    bool
    serve(Addr addr, AccessType type, mem::Timeline &tl) override
    {
#if defined(SEAM_CONTROL)
        tl.serialize(fmc().access(addr, 64, type, tl.now()));
#elif defined(SEAM_FM_DEVICE)
        tl.serialize(fmDevice().access(addr, 64, type, tl.now()));
#elif defined(SEAM_NM_DEVICE)
        tl.serialize(nmDevice().access(addr, 64, type, tl.now()));
#elif defined(SEAM_NMC_DEVICE)
        tl.serialize(nmc().device().access(addr, 64, type, tl.now()));
#elif defined(SEAM_FM_MEMBER)
        tl.serialize(fm->access(addr, 64, type, tl.now()));
#else
#error "define one SEAM_* case"
#endif
        return false;
    }
};

} // namespace h2
