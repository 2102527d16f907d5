// Mini-repo fixture: a hygienic header and a source with no banned
// calls. lintTree over this root must report nothing.
#pragma once

#include <string>

namespace h2::demo {

std::string greeting();

} // namespace h2::demo
