// Mini-repo fixture: one banned call, found by the tree walk.
#include <cstdlib>

#include "bad.h"

namespace h2::demo {

int
roll()
{
    return std::rand(); // line 11: R2
}

} // namespace h2::demo
