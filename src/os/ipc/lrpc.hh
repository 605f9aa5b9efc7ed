/**
 * @file
 * Lightweight RPC model (Table 4, §2.2).
 *
 * LRPC [Bershad et al. 90a] lets the client thread execute directly in
 * the server's address space through shared, statically-mapped argument
 * stacks: a null call is two kernel entries and two address-space
 * switches plus a little stub work. The limiting factor is therefore
 * the *hardware* cost of crossing the kernel, and on an untagged TLB
 * (CVAX) roughly a quarter of the call vanishes into TLB refills after
 * the two purges. Both effects are simulated here with the machine's
 * primitives and its TLB model.
 */

#ifndef AOSD_OS_IPC_LRPC_HH
#define AOSD_OS_IPC_LRPC_HH

#include <cstdint>

#include "arch/machine_desc.hh"
#include "mem/tlb.hh"
#include "os/kernel/kernel.hh"

namespace aosd
{

/** Time distribution of a null LRPC, in microseconds. */
struct LrpcBreakdown
{
    double stubUs = 0;          ///< client + server stubs
    double kernelEntryUs = 0;   ///< two traps into the kernel
    double validationUs = 0;    ///< binding/A-stack checks, dispatch
    double contextSwitchUs = 0; ///< two address-space switches
    double tlbMissUs = 0;       ///< refills after untagged purges
    double argCopyUs = 0;       ///< copy onto/off the shared A-stack

    double
    totalUs() const
    {
        return stubUs + kernelEntryUs + validationUs + contextSwitchUs +
               tlbMissUs + argCopyUs;
    }

    /** The hardware-imposed floor: kernel entries + switches + minimal
     *  TLB refill (the "LRPC overhead vs hardware minimum" framing of
     *  Table 4). */
    double
    hardwareMinimumUs() const
    {
        return kernelEntryUs + contextSwitchUs + tlbMissUs;
    }

    /** Percentage of the call above the hardware floor. */
    double
    overheadPercent() const
    {
        return 100.0 * (totalUs() - hardwareMinimumUs()) / totalUs();
    }

    double
    tlbPercent() const
    {
        return 100.0 * tlbMissUs / totalUs();
    }
};

/** Fixed parameters of the LRPC path (Table 4). */
namespace lrpc
{
/** Argument bytes for the simplest call. */
inline constexpr std::uint32_t argBytes = 16;
/** Stub instructions per side (LRPC stubs are a few instructions). */
inline constexpr std::uint64_t stubInstructions = 110;
/** Kernel validation/dispatch instructions per crossing. */
inline constexpr std::uint64_t validationInstructions = 70;
} // namespace lrpc

/** Configuration of the LRPC path. */
struct LrpcConfig
{
    /** Pages each domain touches between crossings (its TLB working
     *  set; refilled after each purge on untagged hardware). */
    std::uint32_t clientWorkingSetPages = 10;
    std::uint32_t serverWorkingSetPages = 10;
};

/**
 * LRPC on one machine. Uses a live Tlb instance so the purge/refill
 * behaviour is simulated, not assumed: tagged TLBs lose (almost)
 * nothing, untagged TLBs refill both working sets per round trip.
 */
class LrpcModel
{
  public:
    explicit LrpcModel(const MachineDesc &machine, LrpcConfig cfg = {});

    /** Simulate one null round trip, steady state. */
    LrpcBreakdown nullCall() const;

    /**
     * Simulated TLB misses per round trip (steady state, after the
     * first call has warmed everything warmable).
     */
    std::uint64_t steadyStateTlbMisses() const;

    const MachineDesc &machine() const { return desc; }

  private:
    MachineDesc desc;
    LrpcConfig cfg;
};

} // namespace aosd

#endif // AOSD_OS_IPC_LRPC_HH
