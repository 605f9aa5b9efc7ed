#include "cpu/exec_model.hh"

#include <array>
#include <utility>

#include "cpu/decoded_program.hh"
#include "cpu/handlers.hh"
#include "sim/attribution.hh"
#include "sim/counters/counters.hh"

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

OpPrice
priceOp(const MachineDesc &desc, const Op &op)
{
    using B = CycleBreakdown;
    const TimingDesc &t = desc.timing;
    const CacheDesc &cache = desc.cache;
    OpPrice p;
    std::size_t causes = 0, bumps = 0;
    auto charge = [&](Cycles B::*field, Cycles c) {
        p.causes[causes++] = {field, c};
        p.cycles += c;
    };
    auto bump = [&](HwCounter c, std::uint64_t n = 1) {
        p.bumps[bumps++] = {c, n};
    };

    switch (op.kind) {
      case OpKind::Alu:
      case OpKind::Nop:
        charge(&B::base, 1);
        bump(HwCounter::IssueSlots);
        if (op.kind == OpKind::Nop)
            bump(HwCounter::Nops);
        break;

      case OpKind::Branch:
        charge(&B::base, 1);
        charge(&B::trapHardware, t.branchPenaltyCycles);
        bump(HwCounter::IssueSlots);
        bump(HwCounter::Branches);
        bump(HwCounter::InterlockCycles, t.branchPenaltyCycles);
        break;

      case OpKind::Load:
        if (op.uncached) {
            charge(&B::uncached, cache.uncachedCycles);
            bump(HwCounter::UncachedAccesses);
            break;
        }
        // A load waiting for the buffer to drain waits at its start;
        // its issue slot and miss penalty follow.
        charge(&B::base, 1);
        bump(HwCounter::IssueSlots);
        bump(HwCounter::Loads);
        if (op.coldMiss) {
            charge(&B::cacheMissStall, cache.missPenaltyCycles);
            bump(HwCounter::ColdMisses);
        }
        if (desc.writeBuffer.readsWaitForDrain)
            p.wb = WbInteraction::LoadDrain;
        break;

      case OpKind::Store:
        if (op.uncached) {
            charge(&B::uncached, cache.uncachedCycles);
            bump(HwCounter::UncachedAccesses);
            break;
        }
        // The store itself issues in one cycle; it may stall waiting
        // for a write buffer slot.
        charge(&B::base, 1);
        bump(HwCounter::IssueSlots);
        bump(HwCounter::Stores);
        p.wb = WbInteraction::Store;
        break;

      case OpKind::TrapEnter:
        charge(&B::trapHardware, t.trapEnterCycles);
        bump(HwCounter::TrapEnters);
        break;

      case OpKind::TrapReturn:
        charge(&B::trapHardware, t.trapReturnCycles);
        bump(HwCounter::TrapReturns);
        break;

      case OpKind::CtrlRegRead:
      case OpKind::CtrlRegWrite:
        charge(&B::ctrlReg, t.ctrlRegCycles);
        bump(HwCounter::CtrlRegAccesses);
        break;

      case OpKind::TlbWrite:
        charge(&B::tlbOps, desc.tlb.writeEntryCycles);
        bump(HwCounter::TlbWriteOps);
        break;

      case OpKind::TlbProbe:
        charge(&B::tlbOps, 3);
        bump(HwCounter::TlbProbeOps);
        break;

      case OpKind::TlbPurgeEntry:
        charge(&B::tlbOps, desc.tlb.purgeEntryCycles);
        bump(HwCounter::TlbPurgeEntryOps);
        break;

      case OpKind::TlbPurgeAll:
        charge(&B::tlbOps, desc.tlb.purgeAllCycles);
        bump(HwCounter::TlbPurgeAllOps);
        break;

      case OpKind::CacheFlushLine:
        charge(&B::cacheMaintenance, cache.flushLineCycles);
        bump(HwCounter::CacheFlushLines);
        p.instant = {TraceEvent::CacheFlush, "cache_flush_line", 1};
        break;

      case OpKind::CacheFlushAll: {
        Cycles lines = cache.sizeBytes / cache.lineBytes;
        charge(&B::cacheMaintenance, lines * cache.flushLineCycles);
        bump(HwCounter::CacheFlushLines, lines);
        p.instant = {TraceEvent::CacheFlush, "cache_flush_all", lines};
        break;
      }

      case OpKind::Microcoded:
        charge(&B::microcode, op.cycles);
        bump(HwCounter::MicrocodeOps);
        bump(HwCounter::MicrocodeCycles, op.cycles);
        break;

      case OpKind::AtomicOp:
        // Interlocked ops bypass the cache and lock the bus.
        charge(&B::uncached, cache.uncachedCycles);
        bump(HwCounter::AtomicOps);
        break;

      case OpKind::FpuSync:
        charge(&B::fpuSync, op.cycles);
        bump(HwCounter::FpuSyncCycles, op.cycles);
        break;

      case OpKind::WindowOverflowTrap:
        // Hardware-wise a trap entry; counted and traced as the
        // paper's SPARC cost driver it is.
        charge(&B::trapHardware, t.trapEnterCycles);
        bump(HwCounter::WindowOverflows);
        bump(HwCounter::WindowsSpilled);
        p.instant = {TraceEvent::WindowOverflow, "window_overflow"};
        break;

      case OpKind::WindowUnderflowTrap:
        charge(&B::trapHardware, t.trapEnterCycles);
        bump(HwCounter::WindowUnderflows);
        p.instant = {TraceEvent::WindowUnderflow, "window_underflow"};
        break;
    }
    return p;
}

Cycles
ExecModel::wbStep(bool is_store, bool same_page, Cycles now,
                  CycleBreakdown &bd)
{
    if (is_store) {
        Cycles stall = writeBuffer.store(now + 1, same_page);
        bd.writeBufferStall += stall;
        return stall;
    }
    Cycles wait = writeBuffer.drainTime(now);
    bd.writeBufferStall += wait;
    if (wait) {
        countEvent(HwCounter::WbReadWaits);
        countEvent(HwCounter::WbStallCycles, wait);
    }
    return wait;
}

PhaseResult
ExecModel::runStream(const InstrStream &stream, Cycles start_cycle)
{
    PhaseResult result;
    Cycles now = start_cycle;
    for (const Op &op : stream.ops()) {
        const OpPrice p = priceOp(desc, op);
        for (std::uint32_t i = 0; i < op.count; ++i) {
            if (p.wb != WbInteraction::None)
                now += wbStep(p.wb == WbInteraction::Store,
                              op.samePage, now, result.breakdown);
            now += p.cycles;
            if (p.instant.name && tracerEnabled())
                Tracer::instance().instant(p.instant.event,
                                           p.instant.name,
                                           p.instant.arg);
        }
        p.addCauses(result.breakdown, op.count);
        if (op.countsAsInstr)
            result.instructions += op.count;
        if (countersEnabled()) {
            for (const OpPrice::Bump &b : p.bumps)
                ctrdetail::add(b.counter, b.n * op.count);
            if (op.countsAsInstr)
                ctrdetail::add(HwCounter::InstrRetired, op.count);
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
            now += wbStep(st.isStore, st.samePage, now, pr.breakdown);
        }
        now += dp.tailCycles;
        pr.cycles = now - start;
        if (countersEnabled())
            for (const auto &[c, n] : dp.constCounters)
                ctrdetail::add(c, n);
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
