#include "workload/synapse.hh"

#include <algorithm>

#include "sim/counters/counters.hh"

namespace aosd
{

std::vector<SynapseRun>
synapseExperiments()
{
    // The paper reports ratios from 21:1 to 42:1 across experiments
    // (8 of the calls per switch came from the run-time system).
    return {
        {"logic-sim-small", 420000, 20000},   // 21:1
        {"logic-sim-medium", 870000, 30000},  // 29:1
        {"queueing-net", 1440000, 40000},     // 36:1
        {"logic-sim-large", 2100000, 50000},  // 42:1
    };
}

SynapseCostResult
priceSynapseRun(const MachineDesc &machine, const SynapseRun &run,
                ThreadCostOptions opts)
{
    ThreadCosts costs = computeThreadCosts(machine, opts);
    SynapseCostResult r;
    r.run = run.name;
    r.ratio = run.callSwitchRatio();
    r.callTimeUs = machine.clock.cyclesToMicros(
        costs.procedureCall * run.procedureCalls);
    r.switchTimeUs = machine.clock.cyclesToMicros(
        costs.userThreadSwitch * run.contextSwitches);
    return r;
}

SynapseSimResult
simulateSynapseRun(const MachineDesc &machine, const SynapseRun &run,
                   unsigned target_samples, ThreadCostOptions opts)
{
    ThreadCosts costs = computeThreadCosts(machine, opts);
    SynapseSimResult r;
    r.priced = priceSynapseRun(machine, run, opts);

    Cycles total = costs.procedureCall * run.procedureCalls +
                   costs.userThreadSwitch * run.contextSwitches;
    Cycles interval = std::max<Cycles>(
        1, total / std::max<unsigned>(target_samples, 1));

    CounterWindow window(true, SamplerConfig{interval});
    CounterSampler &sampler = CounterSampler::instance();

    // Interleave chronologically: spread the calls evenly across the
    // switch boundaries (integer arithmetic, no rounding drift).
    Cycles now = 0;
    std::uint64_t switches = run.contextSwitches;
    std::uint64_t calls_done = 0;
    for (std::uint64_t s = 0; s <= switches; ++s) {
        std::uint64_t calls_target =
            run.procedureCalls * (s + 1) / (switches + 1);
        for (; calls_done < calls_target; ++calls_done) {
            now += costs.procedureCall;
            r.callCycles += costs.procedureCall;
            countEvent(HwCounter::ProcedureCalls);
            sampler.tick(now, static_cast<double>(r.switchCycles));
        }
        if (s < switches) {
            now += costs.userThreadSwitch;
            r.switchCycles += costs.userThreadSwitch;
            countEvent(HwCounter::ThreadSwitches);
            sampler.tick(now, static_cast<double>(r.switchCycles));
        }
    }
    r.totalCycles = now;

    r.timeseries =
        window.finish(now, static_cast<double>(r.switchCycles));
    return r;
}

} // namespace aosd
