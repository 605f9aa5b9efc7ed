/**
 * @file
 * Cycle-level execution of handler programs.
 *
 * ExecModel charges each micro-op its base cost plus the stateful
 * memory-system effects the paper analyses: write-buffer stalls, cache
 * misses, uncached accesses, control-register latency, microcode, TLB
 * and cache-maintenance operations. The cycle totals, divided by the
 * machine clock, regenerate the microsecond columns of Tables 1 and 5;
 * the instruction totals regenerate Table 2.
 *
 * What one op costs on one machine is one table, priceOp(): the
 * interpreter (runStream) applies it per repetition and the decoder
 * (cpu/decoded_program.hh) applies it once per op, times its count.
 */

#ifndef AOSD_CPU_EXEC_MODEL_HH
#define AOSD_CPU_EXEC_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/isa.hh"
#include "arch/machine_desc.hh"
#include "mem/write_buffer.hh"
#include "sim/counters/counters.hh"
#include "sim/observers.hh"
#include "sim/trace.hh"

namespace aosd
{

struct DecodedProgram;

/** Where the cycles of a stream went (for the paper's share analyses). */
struct CycleBreakdown
{
    Cycles base = 0;          ///< 1-cycle issue slots (incl. nops)
    Cycles writeBufferStall = 0;
    Cycles cacheMissStall = 0;
    Cycles uncached = 0;
    Cycles ctrlReg = 0;
    Cycles microcode = 0;     ///< CISC microcode + hwDelay latency
    Cycles tlbOps = 0;
    Cycles cacheMaintenance = 0;
    Cycles trapHardware = 0;  ///< trap entry/return hardware cycles
    Cycles fpuSync = 0;

    Cycles
    total() const
    {
        return base + writeBufferStall + cacheMissStall + uncached +
               ctrlReg + microcode + tlbOps + cacheMaintenance +
               trapHardware + fpuSync;
    }

    CycleBreakdown &operator+=(const CycleBreakdown &o);
};

/** How one repetition of an op meets the write buffer, the only
 *  stateful part of its price. */
enum class WbInteraction : std::uint8_t
{
    None,      ///< constant cost only
    Store,     ///< a cached store, offered to the buffer at start + 1
    LoadDrain, ///< a cached load held at its start until the buffer
               ///< drains (readsWaitForDrain machines)
};

/**
 * The price of one repetition of an op on one machine: its constant
 * cycles split by CycleBreakdown cause, its counter bumps, its write-
 * buffer interaction (whose stall comes on top, before the constant
 * cycles) and the trace instant the interpreter emits for it.
 */
struct OpPrice
{
    struct Cause
    {
        Cycles CycleBreakdown::*field = &CycleBreakdown::base;
        Cycles cycles = 0;
    };
    struct Bump
    {
        HwCounter counter = HwCounter::InstrRetired;
        std::uint64_t n = 0;
    };
    struct Instant
    {
        TraceEvent event = TraceEvent::Mark;
        const char *name = nullptr; ///< nullptr: no instant
        std::uint64_t arg = 0;
    };

    Cycles cycles = 0; ///< sum of `causes`
    std::array<Cause, 2> causes{}; ///< unused entries add 0 to base
    std::array<Bump, 3> bumps{};   ///< unused entries bump by 0
    WbInteraction wb = WbInteraction::None;
    Instant instant;

    /** Charge `n` repetitions' causes to `bd`. */
    void
    addCauses(CycleBreakdown &bd, std::uint64_t n) const
    {
        for (const Cause &c : causes)
            bd.*c.field += n * c.cycles;
    }
};

/** The one op-price table, shared by the interpreter and the
 *  decoder. reconcileCycles (sim/counters/reconcile.hh) keeps its own
 *  penalty list: it checks that these counts times penalties equal
 *  these cycles. */
OpPrice priceOp(const MachineDesc &desc, const Op &op);

/** Result of executing one phase. */
struct PhaseResult
{
    PhaseKind kind = PhaseKind::Body;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    CycleBreakdown breakdown;
};

/**
 * Report one executed handler phase to the attribution hook
 * (sim/attribution.hh): a profiler scope named for the phase
 * (phaseSlug) holding a leaf per nonzero breakdown cause
 * ("base", "write_buffer_stall", ...), a span leaf of its cycles and,
 * when `traced`, an ExecPhase record on the trace timeline.
 */
void obsPhase(const PhaseResult &ph, bool traced);

/** obsPhase(ph, false) for each of a handler's phases, in order — the
 *  kernel's attribution of a cached primitive cost. */
inline void
obsPhases(const std::vector<PhaseResult> &phases)
{
    if (attributionEnabled())
        for (const PhaseResult &ph : phases)
            obsPhase(ph, false);
}

/**
 * `n` back-to-back obsPhases(phases) calls, each under a scope named
 * `scope`, in one closed-form update per node — byte-identical to the
 * n single calls (same node creation order, entry counts and
 * histograms). The kernel's batch charger replays a cached
 * primitive's attribution for a whole run of homogeneous events.
 */
void obsPhasesRepeated(const char *scope,
                       const std::vector<PhaseResult> &phases,
                       std::uint64_t n);

/** Result of executing a whole handler program. */
struct ExecResult
{
    std::vector<PhaseResult> phases;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    CycleBreakdown breakdown;

    /** Time at a given clock, in microseconds. */
    double
    micros(const Clock &clock) const
    {
        return clock.cyclesToMicros(cycles);
    }

    /** Cycles attributed to a named phase (0 if absent). */
    Cycles phaseCycles(PhaseKind kind) const;
};

/**
 * Executes instruction streams for one machine. Stateful: the write
 * buffer persists across ops within a run() call and is reset between
 * calls (the paper's measurements are steady-state repeated calls with
 * a quiescent buffer at entry).
 */
class ExecModel
{
  public:
    explicit ExecModel(const MachineDesc &machine);

    /** Execute a complete handler program. */
    ExecResult run(const HandlerProgram &program);

    /**
     * Execute a pre-decoded program (cpu/decoded_program.hh): add the
     * precomputed constants, replay only the write-buffer steps.
     * Produces an ExecResult identical to run() on the source program
     * — cycles, instructions, breakdowns, counter bumps, profiler
     * attribution. The caller guarantees the tracer is off (the
     * decoded path has no per-op sites to trace; use run() then).
     */
    ExecResult runDecoded(const DecodedProgram &dec);

    /**
     * Execute this machine's handler for `prim` through the cached
     * decoded fast path when predecodeEnabled() and the tracer is off,
     * falling back to interpreting the cached handler program
     * otherwise. The two paths return identical results.
     */
    ExecResult runPrimitive(Primitive prim);

    /** Execute a bare stream (used by share analyses and the IPC layer).
     *  Continues from `start_cycle` against the current buffer state.
     *  Attributes nothing: run() reports each phase via obsPhase(). */
    PhaseResult runStream(const InstrStream &stream,
                          Cycles start_cycle = 0);

    /** Reset memory-system state between measurements. */
    void reset() { writeBuffer.reset(); }

    const MachineDesc &machine() const { return desc; }

  private:
    /** One write-buffer interaction at `now` (a store or a draining
     *  load): returns its stall, charged to `bd` — the step both the
     *  interpreter and the decoded replay take. */
    Cycles wbStep(bool is_store, bool same_page, Cycles now,
                  CycleBreakdown &bd);

    MachineDesc desc;
    WriteBuffer writeBuffer;
};

} // namespace aosd

#endif // AOSD_CPU_EXEC_MODEL_HH
