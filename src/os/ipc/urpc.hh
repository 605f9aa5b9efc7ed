/**
 * @file
 * User-level RPC (URPC) — the paper's §2.5 escape hatch: "operating
 * system designers ... should look for mechanisms that avoid the
 * kernel when possible (e.g., [Bershad et al. 90b])".
 *
 * On a shared-memory multiprocessor, client and server domains share
 * pairwise message queues in memory; calls are test&set-guarded
 * enqueues plus user-level thread switches, and the kernel is needed
 * only (amortized) for processor reallocation. The cost model composes
 * the same simulated pieces as everything else — lock cost (a kernel
 * trap on the MIPS!), copy cost, user-level thread switch cost — so
 * the technique's machine-dependence is visible.
 */

#ifndef AOSD_OS_IPC_URPC_HH
#define AOSD_OS_IPC_URPC_HH

#include <cstdint>

#include "arch/machine_desc.hh"

namespace aosd
{

/** Time distribution of a null URPC, in microseconds. */
struct UrpcBreakdown
{
    double lockUs = 0;          ///< queue locks, both directions
    double copyUs = 0;          ///< args onto / results off the queue
    double threadSwitchUs = 0;  ///< user-level switch to/from server
    double reallocationUs = 0;  ///< amortized kernel processor handoff

    double
    totalUs() const
    {
        return lockUs + copyUs + threadSwitchUs + reallocationUs;
    }
};

/** Configuration of the URPC path. */
struct UrpcConfig
{
    /** Calls between kernel processor reallocations (the amortization
     *  the design depends on; 1 = every call goes to the kernel). */
    std::uint32_t callsPerReallocation = 50;
};

/** URPC on one machine. */
class UrpcModel
{
  public:
    explicit UrpcModel(const MachineDesc &machine, UrpcConfig cfg = {});

    UrpcBreakdown nullCall() const;

    const MachineDesc &machine() const { return desc; }

  private:
    MachineDesc desc;
    UrpcConfig cfg;
};

} // namespace aosd

#endif // AOSD_OS_IPC_URPC_HH
