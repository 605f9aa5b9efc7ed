#include "sim/parallel/parallel_runner.hh"

#include <thread>

namespace aosd
{

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobCount(jobs == 0 ? defaultJobs() : jobs)
{
}

ParallelRunner::~ParallelRunner() = default;

unsigned
ParallelRunner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool &
ParallelRunner::pool()
{
    if (!workers)
        workers = std::make_unique<ThreadPool>(jobCount);
    return *workers;
}

void
ParallelRunner::runIndexed(std::size_t n,
                           const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    if (jobCount == 1) {
        // The serial escape hatch: inline on the calling thread, no
        // capture bracketing — today's exact code path.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::vector<FlatStats> shards(collectStats ? n : 0);
    const bool capture = collectStats;
    auto task = [&](std::size_t i) {
        if (!capture) {
            fn(i);
            return;
        }
        // Zero the worker's registry so the flattened shard holds
        // exactly this task's events.
        StatRegistry &reg = StatRegistry::instance();
        reg.setRetainRetired(true);
        reg.resetAll();
        fn(i);
        shards[i] = reg.flatten();
        reg.resetAll();
    };
    pool().forEachIndex(n, task);

    // Merge worker shards by ascending task index — the same order a
    // serial run would have retired them in.
    if (capture) {
        StatRegistry &reg = StatRegistry::instance();
        for (const FlatStats &shard : shards)
            reg.absorbRetired(shard);
    }
}

} // namespace aosd
