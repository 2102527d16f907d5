#include "cache/replacement.h"

namespace h2::cache {

std::string
to_string(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::Lru: return "LRU";
      case ReplPolicy::Fifo: return "FIFO";
      case ReplPolicy::Random: return "Random";
    }
    return "?";
}

} // namespace h2::cache
