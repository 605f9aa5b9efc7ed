#include "cpu/exec_model.hh"

#include <array>
#include <utility>

#include "cpu/decoded_program.hh"
#include "cpu/handlers.hh"
#include "sim/attribution.hh"
#include "sim/counters/counters.hh"
#include "sim/logging.hh"

namespace aosd
{

namespace
{

/** The ten causes of a CycleBreakdown, in attribution order: the one
 *  table behind the profiler's cause leaves and operator+=. */
constexpr std::pair<const char *, Cycles CycleBreakdown::*> causeTable[] = {
    {"base", &CycleBreakdown::base},
    {"write_buffer_stall", &CycleBreakdown::writeBufferStall},
    {"cache_miss_stall", &CycleBreakdown::cacheMissStall},
    {"uncached", &CycleBreakdown::uncached},
    {"ctrl_reg", &CycleBreakdown::ctrlReg},
    {"microcode", &CycleBreakdown::microcode},
    {"tlb_ops", &CycleBreakdown::tlbOps},
    {"cache_maintenance", &CycleBreakdown::cacheMaintenance},
    {"trap_hardware", &CycleBreakdown::trapHardware},
    {"fpu_sync", &CycleBreakdown::fpuSync},
};

std::array<ObsLeaf, std::size(causeTable)>
causes(const CycleBreakdown &bd)
{
    std::array<ObsLeaf, std::size(causeTable)> out;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = {causeTable[i].first, bd.*causeTable[i].second};
    return out;
}

} // namespace

void
obsPhase(const PhaseResult &ph, bool traced)
{
    if (!attributionEnabled())
        return;
    obsCauses({phaseSlug(ph.kind), ph.cycles,
               traced ? phaseName(ph.kind) : nullptr, ph.instructions},
              causes(ph.breakdown), TraceEvent::ExecPhase);
}

void
obsPhasesRepeated(const char *scope,
                  const std::vector<PhaseResult> &phases,
                  std::uint64_t n)
{
    if (!attributionEnabled())
        return;
    ObsRepeat outer(scope, n);
    for (const PhaseResult &ph : phases) {
        ObsRepeat phase(phaseSlug(ph.kind), n);
        for (const ObsLeaf &c : causes(ph.breakdown))
            if (c.cycles)
                obsLeafRepeated(c.name, c.cycles, n);
    }
}

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &o)
{
    for (const auto &cause : causeTable)
        this->*cause.second += o.*cause.second;
    return *this;
}

Cycles
ExecResult::phaseCycles(PhaseKind kind) const
{
    for (const auto &p : phases)
        if (p.kind == kind)
            return p.cycles;
    return 0;
}

ExecModel::ExecModel(const MachineDesc &machine)
    : desc(machine), writeBuffer(machine.writeBuffer)
{}

Cycles
ExecModel::chargeOp(const Op &op, Cycles now, CycleBreakdown &bd)
{
    switch (op.kind) {
      case OpKind::Alu:
      case OpKind::Nop:
        bd.base += 1;
        countEvent(HwCounter::IssueSlots);
        if (op.kind == OpKind::Nop)
            countEvent(HwCounter::Nops);
        return 1;

      case OpKind::Branch: {
        Cycles c = 1 + desc.timing.branchPenaltyCycles;
        bd.base += 1;
        bd.trapHardware += desc.timing.branchPenaltyCycles;
        countEvent(HwCounter::IssueSlots);
        countEvent(HwCounter::Branches);
        countEvent(HwCounter::InterlockCycles,
                   desc.timing.branchPenaltyCycles);
        return c;
      }

      case OpKind::Load: {
        if (op.uncached) {
            bd.uncached += desc.cache.uncachedCycles;
            countEvent(HwCounter::UncachedAccesses);
            return desc.cache.uncachedCycles;
        }
        Cycles c = 1;
        bd.base += 1;
        countEvent(HwCounter::IssueSlots);
        countEvent(HwCounter::Loads);
        if (desc.writeBuffer.readsWaitForDrain) {
            Cycles wait = writeBuffer.drainTime(now);
            c += wait;
            bd.writeBufferStall += wait;
            if (wait) {
                countEvent(HwCounter::WbReadWaits);
                countEvent(HwCounter::WbStallCycles, wait);
            }
        }
        if (op.coldMiss) {
            c += desc.cache.missPenaltyCycles;
            bd.cacheMissStall += desc.cache.missPenaltyCycles;
            countEvent(HwCounter::ColdMisses);
        }
        return c;
      }

      case OpKind::Store: {
        if (op.uncached) {
            bd.uncached += desc.cache.uncachedCycles;
            countEvent(HwCounter::UncachedAccesses);
            return desc.cache.uncachedCycles;
        }
        // The store itself issues in one cycle; it may stall waiting
        // for a write buffer slot.
        Cycles stall = writeBuffer.store(now + 1, op.samePage);
        bd.base += 1;
        bd.writeBufferStall += stall;
        countEvent(HwCounter::IssueSlots);
        countEvent(HwCounter::Stores);
        return 1 + stall;
      }

      case OpKind::TrapEnter:
        bd.trapHardware += desc.timing.trapEnterCycles;
        countEvent(HwCounter::TrapEnters);
        return desc.timing.trapEnterCycles;

      case OpKind::TrapReturn:
        bd.trapHardware += desc.timing.trapReturnCycles;
        countEvent(HwCounter::TrapReturns);
        return desc.timing.trapReturnCycles;

      case OpKind::CtrlRegRead:
      case OpKind::CtrlRegWrite:
        bd.ctrlReg += desc.timing.ctrlRegCycles;
        countEvent(HwCounter::CtrlRegAccesses);
        return desc.timing.ctrlRegCycles;

      case OpKind::TlbWrite:
        bd.tlbOps += desc.tlb.writeEntryCycles;
        countEvent(HwCounter::TlbWriteOps);
        return desc.tlb.writeEntryCycles;

      case OpKind::TlbProbe:
        bd.tlbOps += 3;
        countEvent(HwCounter::TlbProbeOps);
        return 3;

      case OpKind::TlbPurgeEntry:
        bd.tlbOps += desc.tlb.purgeEntryCycles;
        countEvent(HwCounter::TlbPurgeEntryOps);
        return desc.tlb.purgeEntryCycles;

      case OpKind::TlbPurgeAll:
        bd.tlbOps += desc.tlb.purgeAllCycles;
        countEvent(HwCounter::TlbPurgeAllOps);
        return desc.tlb.purgeAllCycles;

      case OpKind::CacheFlushLine:
        bd.cacheMaintenance += desc.cache.flushLineCycles;
        countEvent(HwCounter::CacheFlushLines);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::CacheFlush,
                                       "cache_flush_line", 1);
        return desc.cache.flushLineCycles;

      case OpKind::CacheFlushAll: {
        Cycles lines = desc.cache.sizeBytes / desc.cache.lineBytes;
        Cycles c = lines * desc.cache.flushLineCycles;
        bd.cacheMaintenance += c;
        countEvent(HwCounter::CacheFlushLines, lines);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::CacheFlush,
                                       "cache_flush_all", lines);
        return c;
      }

      case OpKind::Microcoded:
        bd.microcode += op.cycles;
        countEvent(HwCounter::MicrocodeOps);
        countEvent(HwCounter::MicrocodeCycles, op.cycles);
        return op.cycles;

      case OpKind::AtomicOp:
        // Interlocked ops bypass the cache and lock the bus.
        bd.uncached += desc.cache.uncachedCycles;
        countEvent(HwCounter::AtomicOps);
        return desc.cache.uncachedCycles;

      case OpKind::FpuSync:
        bd.fpuSync += op.cycles;
        countEvent(HwCounter::FpuSyncCycles, op.cycles);
        return op.cycles;

      case OpKind::WindowOverflowTrap:
        // Hardware-wise a trap entry; counted and traced as the
        // paper's SPARC cost driver it is.
        bd.trapHardware += desc.timing.trapEnterCycles;
        countEvent(HwCounter::WindowOverflows);
        countEvent(HwCounter::WindowsSpilled);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::WindowOverflow,
                                       "window_overflow");
        return desc.timing.trapEnterCycles;

      case OpKind::WindowUnderflowTrap:
        bd.trapHardware += desc.timing.trapEnterCycles;
        countEvent(HwCounter::WindowUnderflows);
        if (tracerEnabled())
            Tracer::instance().instant(TraceEvent::WindowUnderflow,
                                       "window_underflow");
        return desc.timing.trapEnterCycles;
    }
    panic("unknown op kind");
}

PhaseResult
ExecModel::runStream(const InstrStream &stream, Cycles start_cycle)
{
    PhaseResult result;
    Cycles now = start_cycle;
    for (const auto &op : stream.ops()) {
        for (std::uint32_t i = 0; i < op.count; ++i)
            now += chargeOp(op, now, result.breakdown);
        if (op.countsAsInstr) {
            result.instructions += op.count;
            countEvent(HwCounter::InstrRetired, op.count);
        }
    }
    result.cycles = now - start_cycle;
    return result;
}

ExecResult
ExecModel::run(const HandlerProgram &program)
{
    writeBuffer.reset();
    ExecResult result;
    Cycles now = 0;
    for (const auto &phase : program.phases) {
        PhaseResult pr = runStream(phase.code, now);
        pr.kind = phase.kind;
        now += pr.cycles;
        obsPhase(pr, /*traced=*/true);
        result.instructions += pr.instructions;
        result.breakdown += pr.breakdown;
        result.phases.push_back(std::move(pr));
    }
    result.cycles = now;
    return result;
}

ExecResult
ExecModel::runDecoded(const DecodedProgram &dec)
{
    writeBuffer.reset();
    ExecResult result;
    Cycles now = 0;
    for (const DecodedPhase &dp : dec.phases) {
        PhaseResult pr;
        pr.kind = dp.kind;
        pr.instructions = dp.instructions;
        pr.breakdown = dp.constBreakdown;
        Cycles start = now;
        for (const DecodedStep &st : dp.steps) {
            now += st.gapBefore;
            if (st.isStore) {
                Cycles stall = writeBuffer.store(now + 1, st.samePage);
                pr.breakdown.writeBufferStall += stall;
                now += stall;
            } else {
                Cycles wait = writeBuffer.drainTime(now);
                pr.breakdown.writeBufferStall += wait;
                if (wait) {
                    countEvent(HwCounter::WbReadWaits);
                    countEvent(HwCounter::WbStallCycles, wait);
                }
                now += wait;
            }
        }
        now += dp.tailCycles;
        pr.cycles = now - start;
        if (countersEnabled())
            for (const auto &[c, n] : dp.constCounters)
                countEvent(c, n);
        obsPhase(pr, /*traced=*/false);
        result.instructions += pr.instructions;
        result.breakdown += pr.breakdown;
        result.phases.push_back(std::move(pr));
    }
    result.cycles = now;
    return result;
}

ExecResult
ExecModel::runPrimitive(Primitive prim)
{
    if (predecodeEnabled() && !tracerEnabled())
        return runDecoded(cachedDecodedHandler(desc, prim));
    return run(cachedHandler(desc, prim));
}

} // namespace aosd
