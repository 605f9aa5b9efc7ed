#include "os/ipc/lrpc.hh"

#include "cpu/primitive_costs.hh"
#include "mem/cache.hh"
#include "sim/attribution.hh"
#include "sim/counters/counters.hh"

namespace aosd
{

namespace
{

/**
 * Run `round_trips` LRPCs on a fresh kernel and return the TLB misses
 * counted during the final one (steady state).
 */
std::uint64_t
simulateTlbMisses(const MachineDesc &desc, const LrpcConfig &cfg,
                  unsigned round_trips)
{
    // A helper simulation inside an analytic model: its charges must
    // not leak into the caller's attribution tree or nest phantom
    // spans into an open request.
    ObsPause pause;
    SimKernel kernel(desc);
    AddressSpace &client = kernel.createSpace("client");
    AddressSpace &server = kernel.createSpace("server");
    client.setWorkingSet(0x1000, cfg.clientWorkingSetPages);
    server.setWorkingSet(0x2000, cfg.serverWorkingSetPages);
    // Map the working sets so walks succeed.
    client.mapRange(0x1000, cfg.clientWorkingSetPages, 0x9000, {});
    server.mapRange(0x2000, cfg.serverWorkingSetPages, 0xa000, {});

    kernel.contextSwitchTo(client); // start in the client

    std::uint64_t before = 0;
    for (unsigned i = 0; i < round_trips; ++i) {
        before = kernel.stats().get(kstat::userTlbMisses) +
                 kernel.stats().get(kstat::kernelTlbMisses);
        kernel.syscall();
        kernel.contextSwitchTo(server);
        kernel.syscall();
        kernel.contextSwitchTo(client);
    }
    std::uint64_t after = kernel.stats().get(kstat::userTlbMisses) +
                          kernel.stats().get(kstat::kernelTlbMisses);
    return after - before;
}

} // namespace

LrpcModel::LrpcModel(const MachineDesc &machine, LrpcConfig config)
    : desc(machine), cfg(config)
{}

std::uint64_t
LrpcModel::steadyStateTlbMisses() const
{
    return simulateTlbMisses(desc, cfg, 4);
}

LrpcBreakdown
LrpcModel::nullCall() const
{
    const PrimitiveCostDb &db = sharedCostDb();
    auto us = [&](Cycles c) { return desc.clock.cyclesToMicros(c); };

    LrpcBreakdown b;
    b.stubUs = 2.0 * us(cfg.stubInstructions);
    b.kernelEntryUs =
        2.0 * db.micros(desc.id, Primitive::NullSyscall);
    b.validationUs = 2.0 * us(cfg.validationInstructions);
    b.contextSwitchUs =
        2.0 * db.micros(desc.id, Primitive::ContextSwitch);

    // Simulated refills: on tagged TLBs this is ~0 in steady state;
    // untagged TLBs refill both domains' working sets every trip.
    std::uint64_t misses = steadyStateTlbMisses();
    Cycles miss_cost = desc.tlb.management == TlbManagement::Hardware
                           ? desc.tlb.hwMissCycles
                           : desc.tlb.swUserMissCycles;
    b.tlbMissUs = us(misses * miss_cost);

    // One copy onto the shared A-stack per direction.
    b.argCopyUs = 2.0 * us(copyCycles(desc, cfg.argBytes));

    // Call + reply ride the same-machine fast path.
    countEvent(HwCounter::IpcMessages, 2);
    countEvent(HwCounter::IpcFastPath);
    countEvent(HwCounter::IpcBytesCopied, 2ull * cfg.argBytes);

    // One component table, in call order, mirroring the breakdown
    // Table 4 reports: profiler tree, span group and trace timeline.
    if (attributionEnabled()) {
        auto cyc = [&](double micros) {
            return desc.clock.microsToCycles(micros);
        };
        const ObsLeaf components[] = {
            {"stubs", cyc(b.stubUs), "lrpc_stubs"},
            {"kernel_entry", cyc(b.kernelEntryUs), "lrpc_kernel_entry"},
            {"validation", cyc(b.validationUs), "lrpc_validation"},
            {"context_switch", cyc(b.contextSwitchUs),
             "lrpc_context_switch"},
            {"tlb_refill", cyc(b.tlbMissUs), "lrpc_tlb_refill", misses},
            {"arg_copy", cyc(b.argCopyUs), "lrpc_arg_copy"},
        };
        obsGroup("lrpc", components, TraceEvent::RpcPhase);
    }
    return b;
}

} // namespace aosd
