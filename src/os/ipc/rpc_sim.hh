/**
 * @file
 * Executed cross-machine RPC simulation.
 *
 * Where SrcRpcModel (Table 3) is an analytic composition of simulated
 * primitive costs, RpcSimulation actually *runs* the round trip:
 * client and server are SimKernels with schedulers, the request and
 * reply are packets on the event-driven Network, interrupts wake
 * threads, stubs and checksums charge their cycles as they execute.
 * Tests cross-validate the two — the executed latency must agree with
 * the analytic model — which is the same consistency check the paper's
 * authors performed between measured RPC time and its component
 * breakdown.
 */

#ifndef AOSD_OS_IPC_RPC_SIM_HH
#define AOSD_OS_IPC_RPC_SIM_HH

#include <cstdint>
#include <memory>

#include "net/network.hh"
#include "os/ipc/rpc.hh"
#include "os/kernel/kernel.hh"
#include "os/kernel/scheduler.hh"
#include "sim/event_queue.hh"

namespace aosd
{

/** Result of an executed RPC run. */
struct RpcSimResult
{
    /** Completed round trips. */
    std::uint64_t calls = 0;
    /** Wall-clock simulated time for the whole run, microseconds. */
    double elapsedUs = 0;
    /** Mean per-call latency, microseconds. */
    double latencyUs = 0;
    /** Client/server CPU microseconds actually charged. */
    double clientCpuUs = 0;
    double serverCpuUs = 0;
    std::uint64_t packets = 0;
};

/** Two identical machines on one Ethernet running null RPCs. */
class RpcSimulation
{
  public:
    RpcSimulation(const MachineDesc &machine, EthernetDesc link = {});

    /** Run `calls` sequential null RPCs to completion. */
    RpcSimResult run(std::uint64_t calls,
                     std::uint32_t arg_bytes = 74,
                     std::uint32_t result_bytes = 74);

  private:
    struct Node;

    MachineDesc desc;
    EthernetDesc link;
};

} // namespace aosd

#endif // AOSD_OS_IPC_RPC_SIM_HH
