/**
 * @file
 * Pre-decoded superblock execution of handler programs.
 *
 * A handler program is static per (machine, primitive): the op list,
 * every per-op cost constant, and every counter bump except the write
 * buffer's are functions of the MachineDesc alone. The interpreter in
 * ExecModel::run() nevertheless re-walks the op list — switch, count
 * loop, counter bump — on every execution, and the workload engine
 * executes handlers hundreds of thousands of times per Table 7 cell.
 *
 * decodeProgram() walks the op list once, pricing each op with the
 * interpreter's own table (priceOp, cpu/exec_model.hh) times its
 * count, and compiles each phase into a superblock: precomputed
 * base/microcode/ctrl-reg/trap cycle totals, the instruction count,
 * and the batched constant counter bumps, plus a short list of
 * *steps* for the only stateful component left — the write buffer (a
 * cached store always interacts with it; a cached load does too when
 * the machine's reads wait for the buffer to drain).
 * ExecModel::runDecoded() replays the steps against the live buffer
 * and adds the constants, producing an ExecResult identical
 * field-for-field — cycles, instructions, phase
 * breakdowns, counter deltas, profiler attribution — to the
 * interpreter's (tests/test_predecode.cc proves it per machine x
 * primitive; CI cmp-gates whole report documents byte-for-byte).
 *
 * The layer is switchable two ways, both output-preserving:
 *  - AOSD_NO_PREDECODE=1 in the environment picks the interpreter
 *    reference path for the whole process (every tool, test and
 *    benchmark honours it);
 *  - setPredecodeEnabled(false) does the same at run time.
 */

#ifndef AOSD_CPU_DECODED_PROGRAM_HH
#define AOSD_CPU_DECODED_PROGRAM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "arch/isa.hh"
#include "arch/machine_desc.hh"
#include "cpu/exec_model.hh"
#include "sim/counters/counters.hh"

namespace aosd
{

/** Is the pre-decoded fast path selected? Defaults to on; off via
 *  setPredecodeEnabled(false) or AOSD_NO_PREDECODE=1 in the
 *  environment. */
bool predecodeEnabled();

/** Select/deselect the fast path process-wide (worker threads see the
 *  change; call it during option parsing, before simulating). */
void setPredecodeEnabled(bool on);

/**
 * One stateful interaction with the write buffer. Everything between
 * two steps is constant and collapsed into `gapBefore`.
 */
struct DecodedStep
{
    /** Constant cycles elapsing since the previous step (or the phase
     *  start), including the previous step's own issue slot. */
    Cycles gapBefore = 0;
    /** A cached store entering the buffer; otherwise a cached load
     *  held until the buffer drains (readsWaitForDrain machines). */
    bool isStore = false;
    bool samePage = false;

    bool operator==(const DecodedStep &) const = default;
};

/** One phase compiled to constants + write-buffer steps. */
struct DecodedPhase
{
    PhaseKind kind = PhaseKind::Body;
    /** Every cause except writeBufferStall, which is stepped. */
    CycleBreakdown constBreakdown;
    std::uint64_t instructions = 0;
    /** Constant cycles after the last step (the whole phase when there
     *  are no steps). */
    Cycles tailCycles = 0;
    std::vector<DecodedStep> steps;
    /** Batched constant counter bumps, sparse, in declaration order.
     *  Excludes the write buffer's own counters (bumped by the steps)
     *  and the load drain-wait counters (bumped when a step waits). */
    std::vector<std::pair<HwCounter, std::uint64_t>> constCounters;
};

/** A handler program compiled for one MachineDesc. */
struct DecodedProgram
{
    Primitive primitive = Primitive::NullSyscall;
    std::vector<DecodedPhase> phases;
};

/** Compile `program` for `machine` (pure; no caching). */
DecodedProgram decodeProgram(const MachineDesc &machine,
                             const HandlerProgram &program);

/** Compile a bare stream (one Body-kind phase's worth). */
DecodedPhase decodeStream(const MachineDesc &machine,
                          const InstrStream &stream);

/**
 * Thread-local decoded-handler cache, keyed like cachedHandler() and
 * validated the same way: an ablation-modified desc under a cached
 * machine id recompiles and replaces the entry.
 */
const DecodedProgram &cachedDecodedHandler(const MachineDesc &machine,
                                           Primitive prim);

} // namespace aosd

#endif // AOSD_CPU_DECODED_PROGRAM_HH
