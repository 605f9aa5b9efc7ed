#include "os/ipc/rpc.hh"

#include "cpu/primitive_costs.hh"
#include "mem/cache.hh"
#include "os/ipc/message.hh"
#include "sim/attribution.hh"
#include "sim/counters/counters.hh"

namespace aosd
{

double
RpcBreakdown::totalUs() const
{
    return clientStubUs + serverStubUs + kernelTransferUs + interruptUs +
           checksumUs + copyUs + dispatchUs + controllerUs + wireUs;
}

double
RpcBreakdown::percent(double component_us) const
{
    double t = totalUs();
    return t > 0 ? 100.0 * component_us / t : 0.0;
}

double
RpcBreakdown::cpuUs() const
{
    return totalUs() - wireUs - controllerUs;
}

SrcRpcModel::SrcRpcModel(const MachineDesc &machine, RpcConfig config)
    : desc(machine), cfg(std::move(config))
{}

RpcBreakdown
SrcRpcModel::roundTrip(std::uint32_t arg_bytes,
                       std::uint32_t result_bytes) const
{
    const PrimitiveCostDb &db = sharedCostDb();
    const Clock &clk = desc.clock;
    Ethernet ether(cfg.link);

    auto us = [&](Cycles c) { return clk.cyclesToMicros(c); };

    RpcBreakdown b;

    std::uint32_t call_pkt = arg_bytes + cfg.protocolHeaderBytes;
    std::uint32_t reply_pkt = result_bytes + cfg.protocolHeaderBytes;

    // A round trip is two messages (call + reply) over the kernel-
    // mediated network path; marshaling copies both payloads at both
    // ends.
    countEvent(HwCounter::IpcMessages, 2);
    countEvent(HwCounter::IpcSlowPath);
    countEvent(HwCounter::IpcBytesCopied,
               static_cast<std::uint64_t>(cfg.copiesPerTransfer) *
                   (arg_bytes + result_bytes));

    // Stubs: fixed bookkeeping; the byte copies are priced separately
    // so the copy component is visible (s2.4).
    b.clientStubUs = us(cfg.clientStubInstructions);
    b.serverStubUs = us(cfg.serverStubInstructions);

    // Kernel transfer: system calls to send/receive plus the blocking
    // context switches while each side waits.
    b.kernelTransferUs =
        cfg.syscallsPerRoundTrip *
            db.micros(desc.id, Primitive::NullSyscall) +
        cfg.contextSwitchesPerRoundTrip *
            db.micros(desc.id, Primitive::ContextSwitch);

    // Interrupts: one trap per packet event plus handler body with
    // uncached device-register accesses.
    std::uint32_t interrupts =
        2 * cfg.link.interruptsPerPacket + 2; // rx each side + tx done
    Cycles handler = cfg.interruptHandlerInstructions +
                     static_cast<Cycles>(cfg.interruptDeviceAccesses) *
                         desc.cache.uncachedCycles;
    b.interruptUs =
        interrupts * (db.micros(desc.id, Primitive::Trap) + us(handler));

    // Checksums over both packets at both ends.
    Cycles ck = cfg.checksumPassesPerPacket *
                (checksumCycles(desc, call_pkt) +
                 checksumCycles(desc, reply_pkt));
    b.checksumUs = us(ck);

    // Marshaling copies of arguments and results.
    Cycles cp = cfg.copiesPerTransfer * (copyCycles(desc, arg_bytes) +
                                         copyCycles(desc, result_bytes));
    b.copyUs = us(cp);

    // Server thread wakeup and dispatch.
    b.dispatchUs = us(cfg.dispatchInstructions) +
                   db.micros(desc.id, Primitive::ContextSwitch);

    b.controllerUs =
        2.0 * 2.0 * cfg.link.controllerLatencyUs; // tx+rx, both packets
    b.wireUs = ether.wireTimeUs(call_pkt) + ether.wireTimeUs(reply_pkt);

    // One component table, in wire order, for the profiler tree, an
    // open traced request's span group and the trace timeline.
    if (attributionEnabled()) {
        auto cyc = [&](double micros) {
            return clk.microsToCycles(micros);
        };
        const ObsLeaf components[] = {
            {"client_stub", cyc(b.clientStubUs), "rpc_client_stub",
             arg_bytes},
            {"kernel_transfer", cyc(b.kernelTransferUs),
             "rpc_kernel_transfer"},
            {"copy", cyc(b.copyUs), "rpc_copy"},
            {"checksum", cyc(b.checksumUs), "rpc_checksum"},
            {"controller", cyc(b.controllerUs), "rpc_controller"},
            {"wire", cyc(b.wireUs), "rpc_wire"},
            {"interrupts", cyc(b.interruptUs), "rpc_interrupts"},
            {"server_stub", cyc(b.serverStubUs), "rpc_server_stub",
             result_bytes},
            {"dispatch", cyc(b.dispatchUs), "rpc_dispatch"},
        };
        obsGroup("rpc", components, TraceEvent::RpcPhase);
    }

    return b;
}

double
SrcRpcModel::scaledLatencyUs(std::uint32_t arg_bytes,
                             std::uint32_t result_bytes,
                             double cpu_factor) const
{
    RpcBreakdown b = roundTrip(arg_bytes, result_bytes);
    // Instruction-rate components scale with the CPU; wire, controller
    // and the DRAM-paced copy/checksum streams do not (s2.1, s2.4).
    double scaled_cpu = (b.clientStubUs + b.serverStubUs +
                         b.kernelTransferUs + b.interruptUs +
                         b.dispatchUs) /
                        cpu_factor;
    double memory_bound = b.checksumUs + b.copyUs;
    return scaled_cpu + memory_bound + b.controllerUs + b.wireUs;
}

} // namespace aosd
