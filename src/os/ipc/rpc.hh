/**
 * @file
 * SRC-style cross-machine RPC model (Table 3, §2.1).
 *
 * A round-trip null RPC decomposes into: client/server stubs
 * (marshaling), kernel transfer (system calls + thread blocking context
 * switches), interrupt processing at both ends, checksum computation,
 * controller/DMA latency, and wire time. Every CPU-side component is
 * priced from the simulated primitives of the target machine, so the
 * paper's observation — CPU overhead, not the network, dominates; and
 * the CPU components fail to scale with integer performance — emerges
 * from the same mechanisms as Table 1.
 */

#ifndef AOSD_OS_IPC_RPC_HH
#define AOSD_OS_IPC_RPC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "net/ethernet.hh"

namespace aosd
{

/** Time distribution of one round-trip RPC, in microseconds. */
struct RpcBreakdown
{
    double clientStubUs = 0;
    double serverStubUs = 0;
    double kernelTransferUs = 0; ///< syscalls + blocking switches
    double interruptUs = 0;
    double checksumUs = 0;
    double copyUs = 0;           ///< marshaling byte copies
    double dispatchUs = 0;       ///< server thread wakeup/dispatch
    double controllerUs = 0;     ///< DMA/FIFO latency
    double wireUs = 0;

    double totalUs() const;
    /** Share of a component, in percent of the total. */
    double percent(double component_us) const;
    /** CPU-side time (everything but wire + controller). */
    double cpuUs() const;
};

/**
 * Fixed parameters of the SRC RPC system (§2.1, Table 3), shared by
 * the analytic SrcRpcModel and the executed RpcSimulation. The link
 * is the one setting a caller chooses.
 */
namespace srcrpc
{
/** Header bytes the RPC protocol adds inside the payload. */
inline constexpr std::uint32_t protocolHeaderBytes = 0;
/** Fixed stub instructions, client / server side. */
inline constexpr std::uint64_t clientStubInstructions = 220;
inline constexpr std::uint64_t serverStubInstructions = 180;
/** System calls per round trip (send + receive, both sides). */
inline constexpr std::uint32_t syscallsPerRoundTrip = 4;
/** Blocking context switches per round trip. */
inline constexpr std::uint32_t contextSwitchesPerRoundTrip = 4;
/** Interrupt-handler body instructions (beyond the trap itself). */
inline constexpr std::uint64_t interruptHandlerInstructions = 150;
/** Uncached device-register accesses in the interrupt handler. */
inline constexpr std::uint32_t interruptDeviceAccesses = 12;
/** Scheduler instructions to wake and dispatch the server thread. */
inline constexpr std::uint64_t dispatchInstructions = 260;
/** Checksum passes per packet (sender computes, receiver checks). */
inline constexpr std::uint32_t checksumPassesPerPacket = 2;
/** Copies of each argument/result buffer (user->kernel->wire). */
inline constexpr std::uint32_t copiesPerTransfer = 2;
} // namespace srcrpc

/** SRC RPC on one machine type (both ends identical, as on Fireflies). */
class SrcRpcModel
{
  public:
    explicit SrcRpcModel(const MachineDesc &machine,
                         EthernetDesc link = {});

    /** Round-trip RPC with the given argument/result payloads. */
    RpcBreakdown roundTrip(std::uint32_t arg_bytes,
                           std::uint32_t result_bytes) const;

    /** The paper's small packet: 74 bytes each way. */
    RpcBreakdown nullRpc() const { return roundTrip(74, 74); }

    /**
     * What-if: scale the CPU by `factor` (all instruction-rate
     * components shrink; wire, controller and DRAM-limited copy terms
     * do not scale) — the §2.1 Schroeder–Burrows extrapolation check.
     */
    double scaledLatencyUs(std::uint32_t arg_bytes,
                           std::uint32_t result_bytes,
                           double cpu_factor) const;

    const MachineDesc &machine() const { return desc; }

  private:
    MachineDesc desc;
    EthernetDesc link;
};

} // namespace aosd

#endif // AOSD_OS_IPC_RPC_HH
