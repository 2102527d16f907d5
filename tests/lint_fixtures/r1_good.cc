// h2lint fixture: R1 must stay silent — all device traffic goes
// through the controller seam, and lookalike calls (a cache's
// access(), postWrite()) are not device calls.
#include "mem/hybrid_memory.h"

namespace h2::mem {

struct GoodDesign : HybridMemory
{
    void
    touch(Timeline &tl)
    {
        tl.serialize(nmc().access(0, 64, AccessType::Read, 0));
        fmc().post(64, 64, 0);
        postWrite(*fm, 128, 64, 0); // the sanctioned buffered form
        tags.access(0);             // a cache, not a DramDevice
    }

    struct Cache
    {
        void access(Addr);
    } tags;
};

// Mentioning nm->access(...) in a comment must not trip the rule.

} // namespace h2::mem
