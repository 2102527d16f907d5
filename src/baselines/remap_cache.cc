#include "baselines/remap_cache.h"

namespace h2::baselines {

namespace {

cache::CacheParams
makeParams(u64 storageBytes, u32 entryBytes, u32 ways)
{
    cache::CacheParams p;
    p.name = "remapCache";
    // Model each remap entry as one "line" of entryBytes.
    p.sizeBytes = storageBytes / entryBytes * entryBytes;
    p.ways = ways;
    p.lineBytes = entryBytes;
    return p;
}

} // namespace

RemapCache::RemapCache(u64 storageBytes, u32 entryBytes, u32 ways)
    : tags(makeParams(storageBytes, entryBytes, ways))
{
}

bool
RemapCache::lookup(u64 segment)
{
    // Key the tag store by a synthetic address: segment * entryBytes.
    Addr key = segment * tags.params().lineBytes;
    if (tags.access(key, AccessType::Read))
        return true;
    tags.insert(key, false);
    return false;
}

void
RemapCache::invalidate(u64 segment)
{
    tags.invalidate(segment * tags.params().lineBytes);
}

} // namespace h2::baselines
