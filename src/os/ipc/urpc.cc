#include "os/ipc/urpc.hh"

#include "cpu/primitive_costs.hh"
#include "mem/cache.hh"
#include "os/threads/sync.hh"
#include "os/threads/thread.hh"
#include "sim/attribution.hh"
#include "sim/counters/counters.hh"

namespace aosd
{

namespace
{

/** Argument bytes for the simplest call. */
constexpr std::uint32_t argBytes = 16;

} // namespace

UrpcModel::UrpcModel(const MachineDesc &machine, UrpcConfig config)
    : desc(machine), cfg(config)
{}

UrpcBreakdown
UrpcModel::nullCall() const
{
    auto us = [&](Cycles c) { return desc.clock.cyclesToMicros(c); };
    UrpcBreakdown b;

    // Two queue crossings (call and reply), each guarded by a lock.
    // On machines without an interlocked instruction this is the
    // kernel-trap path — URPC cannot fully escape the kernel there.
    LockImpl impl = naturalLockImpl(desc);
    b.lockUs = 2.0 * us(lockPairCycles(desc, impl));

    // Arguments onto the shared queue, results off it.
    b.copyUs = 2.0 * us(copyCycles(desc, argBytes));

    // Call + reply through shared memory, no kernel on the data path.
    countEvent(HwCounter::IpcMessages, 2);
    countEvent(HwCounter::IpcFastPath);
    countEvent(HwCounter::IpcBytesCopied, 2ull * argBytes);

    // The client's thread blocks at user level; the server's runs
    // (default thread options: no FP state, full register save).
    ThreadCosts costs = computeThreadCosts(desc);
    b.threadSwitchUs = 2.0 * us(costs.userThreadSwitch);

    // Kernel processor reallocation, amortized over a burst of calls.
    Cycles realloc =
        sharedCostDb().cycles(desc.id, Primitive::NullSyscall) +
        sharedCostDb().cycles(desc.id, Primitive::ContextSwitch);
    b.reallocationUs =
        us(realloc) / std::max<std::uint32_t>(cfg.callsPerReallocation,
                                              1);

    // One component table for the profiler tree and an open traced
    // request's span group (no trace records).
    if (attributionEnabled()) {
        auto cyc = [&](double micros) {
            return desc.clock.microsToCycles(micros);
        };
        const ObsLeaf components[] = {
            {"locks", cyc(b.lockUs)},
            {"copy", cyc(b.copyUs)},
            {"thread_switch", cyc(b.threadSwitchUs)},
            {"reallocation", cyc(b.reallocationUs)},
        };
        obsGroup("urpc", components, TraceEvent::RpcPhase);
    }
    return b;
}

} // namespace aosd
