/**
 * @file
 * The instrumented simulated kernel.
 *
 * SimKernel plays the role the authors' instrumented Mach kernels play
 * in §5: every primitive operation — system call, trap, address-space
 * context switch, thread switch, TLB miss, emulated instruction — is
 * both *charged* (simulated time advances by the machine's simulated
 * primitive cost) and *counted* (Table 7's columns). Higher layers
 * (IPC, VM, threads, the workload engine) drive the kernel; they never
 * invent costs of their own for these primitives.
 */

#ifndef AOSD_OS_KERNEL_KERNEL_HH
#define AOSD_OS_KERNEL_KERNEL_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "arch/machine_desc.hh"
#include "cpu/primitive_costs.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "os/kernel/address_space.hh"
#include "sim/counters/reconcile.hh"
#include "sim/profile/profile.hh"
#include "sim/stats.hh"

namespace aosd
{

/** Counter names SimKernel maintains (Table 7 columns). */
namespace kstat
{
inline constexpr const char *syscalls = "syscalls";
inline constexpr const char *traps = "traps";
inline constexpr const char *addrSpaceSwitches = "addr_space_switches";
inline constexpr const char *threadSwitches = "thread_switches";
inline constexpr const char *emulatedInstrs = "emulated_instrs";
inline constexpr const char *kernelTlbMisses = "kernel_tlb_misses";
inline constexpr const char *userTlbMisses = "user_tlb_misses";
inline constexpr const char *otherExceptions = "other_exceptions";
inline constexpr const char *pteChanges = "pte_changes";
} // namespace kstat

/** The batchable kernel primitives, one row each of SimKernel's op
 *  table. The order is part of replayEventMix's seeded draw. */
enum class KernelOp : std::uint8_t
{
    Syscall,
    Trap,
    OtherException,
    ThreadSwitch,
    EmulatedTas,
    /** One emulated instruction (emulateInstructions(1)). */
    EmulatedInstr,
    PteChange
};
inline constexpr std::size_t kernelOpCount =
    static_cast<std::size_t>(KernelOp::PteChange) + 1;

/** Interrupts-disabled test-and-set sequence of the kernel's emulated
 *  test&set fast trap, beyond the trap entry/exit hardware cost. */
inline constexpr Cycles emulatedTasSequenceCycles = 70;

/** Per-emulated-instruction decode-and-interpret cost. */
inline constexpr Cycles emulatedInstrCycles = 4;

/** The per-event prices SimKernel charges on `machine`, for
 *  reconcileKernelWindow() over a workload window. */
KernelWindowCosts kernelWindowCosts(const MachineDesc &machine);

/** One machine's kernel: time accounting + counting + TLB/cache state. */
class SimKernel
{
  public:
    explicit SimKernel(const MachineDesc &machine);

    const MachineDesc &machine() const { return desc; }

    // ---- address spaces -------------------------------------------
    /** Create a new address space (ASIDs recycle modulo the TLB's
     *  pidCount, as on real hardware). */
    AddressSpace &createSpace(const std::string &name);

    AddressSpace &currentSpace();

    /** The kernel's own space (mapped kernel data: page tables etc.). */
    AddressSpace &kernelSpace() { return *spaces.front(); }

    // ---- primitive operations (charge + count) --------------------
    /** Charge `n` back-to-back events of `op` (its per-event name
     *  below, n times). While batchActive() the whole run is charged
     *  in one closed-form update — cycles, stat and HwCounters as the
     *  per-event constants × n, profiler entries/self-cycles/
     *  histograms via the repeated attribution hooks, sampler
     *  boundaries via CounterSampler::tickRun — byte-identical to the
     *  per-event loop in every JSON document. Otherwise
     *  (AOSD_NO_BATCH=1 / setBatchEnabled(false), the reference
     *  interpreter mode, the tracer on, or an open span-traced
     *  request) it runs that loop.
     *  `sample_each` reproduces the workload drivers'
     *    CounterSampler::tick(elapsedCycles(), primitiveCycles())
     *  after every event. A PteChange run charges only: its callers
     *  apply the page edits with protectPage, which commute with the
     *  charges. */
    void charge(KernelOp op, std::uint64_t n = 1,
                bool sample_each = false);

    /** Null system call overhead (kernel entry + call prep + C call). */
    void syscall() { chargeEvent(KernelOp::Syscall); }

    /** A trap/fault/interrupt through the common machinery. */
    void trap() { chargeEvent(KernelOp::Trap); }

    /** An interrupt or page fault ("other exceptions" in Table 7). */
    void otherException() { chargeEvent(KernelOp::OtherException); }

    /** Kernel-thread switch within the current space (no mapping
     *  change; counted separately, cf. Table 7 footnote). */
    void threadSwitch() { chargeEvent(KernelOp::ThreadSwitch); }

    /** Fast-path kernel emulation of one interlocked test&set: a
     *  minimal trap that disables interrupts, tests and sets (§4.1:
     *  parthenon spends ~1/5 of its time synchronizing this way). */
    void emulateTestAndSet() { chargeEvent(KernelOp::EmulatedTas); }

    /** The kernel emulates `n` instructions on behalf of user code
     *  (e.g. test&set on the MIPS, §4.1/§5) — one attribution event
     *  for all n, unlike charge(KernelOp::EmulatedInstr, n). */
    void
    emulateInstructions(std::uint64_t n)
    {
        chargeEvent(KernelOp::EmulatedInstr, n);
    }

    /** Change one PTE and keep TLB/virtual cache consistent. */
    void pteChange(AddressSpace &space, Vpn vpn, PageProt prot);

    /** The state edits of pteChange alone, without its charge: the
     *  PTE protection, the TLB shootdown and the virtual-cache flush. */
    void protectPage(AddressSpace &space, Vpn vpn, PageProt prot);

    /** Full address-space context switch, including the hardware costs
     *  of the mapping change and any untagged-TLB/cache purges, plus
     *  the TLB refill of the target's working set. */
    void contextSwitchTo(AddressSpace &target);

    /** Batching applies right now: the toggle is on, the pre-decoded
     *  fast path is active, and no per-event observer (tracer, open
     *  span request) is watching. */
    bool batchActive() const;

    // ---- memory references ----------------------------------------
    /**
     * Touch pages in the current space through the TLB, charging
     * refill costs on misses. `kernel_space` selects the slow
     * software-refill path (mapped kernel data) and counts toward
     * kernel TLB misses.
     */
    void touchPages(const std::vector<Vpn> &pages, bool kernel_space);

    /** Touch the current space's working set (after a switch). */
    void touchWorkingSet();

    // ---- direct charging ------------------------------------------
    /** Spend user/kernel computation time without counting anything.
     *  The cycles are attributed to the profiler's current scope. */
    void
    chargeCycles(Cycles c)
    {
        cycleCount += c;
        if (profilerEnabled())
            Profiler::instance().addCycles(c);
    }
    void
    chargeMicros(double us)
    {
        chargeCycles(desc.clock.microsToCycles(us));
    }

    /** Run user code for `instructions` at ~1 instruction/cycle scaled
     *  by the machine's application performance. */
    void runUserCode(std::uint64_t instructions);

    // ---- results ---------------------------------------------------
    Cycles elapsedCycles() const { return cycleCount; }
    double elapsedMicros() const;
    double elapsedSeconds() const { return elapsedMicros() / 1e6; }

    /** Time spent inside primitive operations only (the §5 "% of time
     *  in OS primitives" numerator). */
    Cycles primitiveCycles() const { return primCycles; }

    const StatGroup &stats() const { return counters; }
    StatGroup &mutableStats() { return counters; }

    Tlb &tlb() { return tlbModel; }
    Cache &cache() { return cacheModel; }

    void resetAccounting();

  private:
    /** One row of the kernel-op table (kernel.cc). */
    struct OpRow;
    static const OpRow opRows[kernelOpCount];

    /** One attribution event of `op`: n = 1 except for
     *  emulateInstructions, whose n instructions share one leaf. */
    void chargeEvent(KernelOp op, std::uint64_t n = 1);
    /** ...running `inside` within the event's scope (pteChange's page
     *  edits, so an open span sees the shootdown and flush they
     *  count). */
    template <class Inside>
    void chargeEvent(KernelOp op, std::uint64_t n, Inside inside);
    /** Bump `row`'s stat and counters for n events. */
    void count(const OpRow &row, std::uint64_t n);
    void chargePrimitive(Primitive p);
    /** Predecode off and no tracer: re-interpret handlers and streams
     *  per event instead of charging their decoded constants. */
    bool interpreting() const;
    /** Re-interpret the software refill handler for one TLB miss
     *  (predecode-off reference path); its total equals the modeled
     *  constant the fast path charges, by construction. */
    Cycles interpRefillCost(bool kernel_space);

    MachineDesc desc;
    const PrimitiveCostDb &costs;
    /** cost(desc.id, p) resolved once per primitive at construction:
     *  chargePrimitive runs per kernel event, so no map lookups there. */
    std::array<const PrimitiveCost *, std::size(allPrimitives)>
        primCost{};
    /** Reference execution model for the predecode-off path, which
     *  re-interprets the handler program on every kernel event instead
     *  of charging the cached superblock totals. */
    ExecModel refExec;
    /** A kernel-emulation stream and its pre-decoded cycle total. The
     *  interpreter fallback re-runs the stream per event; the fast
     *  path charges the constant. */
    struct EmulSeq
    {
        InstrStream stream;
        Cycles cycles = 0;
    };
    /** The emulated test&set fast-trap sequence: trap entry, the
     *  interrupts-disabled test-and-set microcode, trap return. */
    EmulSeq tasSeq;
    /** Software TLB-refill handler streams (built only when the TLB is
     *  software-managed). Their cycle totals equal the machine's
     *  swUser/swKernelMissCycles by construction, so the interpreter
     *  fallback — which re-runs the stream on every miss — charges
     *  exactly what the fast path's modeled constant charges. */
    InstrStream swRefillUserSeq;
    InstrStream swRefillKernelSeq;
    bool hasSwRefill = false;
    /** The decode-and-dispatch work of emulating one user instruction
     *  in the kernel (emulatedInstrCycles of ALU work). */
    EmulSeq emulStepSeq;
    Tlb tlbModel;
    Cache cacheModel;
    StatGroup counters{"kernel"};
    /** Interned kstat handles (StatGroup::handle): the workload loop
     *  bumps these once per kernel event, so no string lookups there.
     *  Stable because `counters` is never copied or moved. */
    std::uint64_t *statSyscalls;
    std::uint64_t *statTraps;
    std::uint64_t *statAddrSpaceSwitches;
    std::uint64_t *statThreadSwitches;
    std::uint64_t *statEmulatedInstrs;
    std::uint64_t *statKernelTlbMisses;
    std::uint64_t *statUserTlbMisses;
    std::uint64_t *statOtherExceptions;
    std::uint64_t *statPteChanges;
    std::vector<std::unique_ptr<AddressSpace>> spaces;
    std::size_t currentIdx = 0;
    Asid nextAsid = 1;
    Cycles cycleCount = 0;
    Cycles primCycles = 0;
};

} // namespace aosd

#endif // AOSD_OS_KERNEL_KERNEL_HH
