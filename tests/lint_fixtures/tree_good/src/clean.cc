#include "clean.h"

namespace h2::demo {

std::string
greeting()
{
    return "time(); rand() in a string literal is not a call";
}

} // namespace h2::demo
