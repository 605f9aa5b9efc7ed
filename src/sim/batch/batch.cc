#include "sim/batch/batch.hh"

#include <atomic>
#include <cstdlib>

namespace aosd
{

namespace
{

bool
initialBatch()
{
    // AOSD_NO_BATCH=1 selects the per-event reference path for
    // harnesses that cannot pass a flag (google-benchmark's main);
    // unset, empty, or "0" keep the batched fast path.
    const char *env = std::getenv("AOSD_NO_BATCH");
    if (!env || !env[0])
        return true;
    return env[0] == '0' && env[1] == '\0';
}

std::atomic<bool> batchOn{initialBatch()};

} // namespace

bool
batchEnabled()
{
    return batchOn.load(std::memory_order_relaxed);
}

void
setBatchEnabled(bool on)
{
    batchOn.store(on, std::memory_order_relaxed);
}

} // namespace aosd
