// Mini-repo fixture: no #pragma once (R5 at line 1).
#include <string>

namespace h2::demo {

int roll();

} // namespace h2::demo
