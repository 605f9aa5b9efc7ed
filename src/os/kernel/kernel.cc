#include "os/kernel/kernel.hh"

#include "cpu/decoded_program.hh"
#include "cpu/exec_model.hh"
#include "cpu/handlers.hh"
#include "sim/attribution.hh"
#include "sim/batch/batch.hh"
#include "sim/counters/counters.hh"
#include "sim/logging.hh"
#include "sim/sampling/sampler.hh"

namespace aosd
{

KernelWindowCosts
kernelWindowCosts(const MachineDesc &machine)
{
    const PrimitiveCostDb &db = sharedCostDb();
    KernelWindowCosts c;
    c.syscallCycles = db.cycles(machine.id, Primitive::NullSyscall);
    c.trapCycles = db.cycles(machine.id, Primitive::Trap);
    c.switchCycles = db.cycles(machine.id, Primitive::ContextSwitch);
    c.pteChangeCycles = db.cycles(machine.id, Primitive::PteChange);
    c.emulInstrCycles = emulatedInstrCycles;
    c.emulTasCycles = machine.timing.trapEnterCycles +
                      machine.timing.trapReturnCycles +
                      emulatedTasSequenceCycles;
    return c;
}

/**
 * One batchable kernel op: its attribution, its Table-7 stat, its
 * HwCounters and its cost. The per-event charge and the closed-form
 * run of the op both read this row and nothing else.
 */
struct SimKernel::OpRow
{
    /** The profiler/span scope of a handler op, the leaf of a stream
     *  op. */
    const char *name;
    /** A handler op's scope records (a Complete record is of `end`). */
    ObsTrace trace;
    TraceEvent begin;
    TraceEvent end;
    /** A stream op's Instant record of `begin` (arg: the instruction
     *  count), or none. */
    const char *instant;
    std::uint64_t *SimKernel::*stat;
    std::array<HwCounter, 2> events;
    std::uint8_t eventCount;
    /** The cost: the cached handler `prim`, charged phase by phase
     *  under the scope — or, when `seq` is set, an emulation stream
     *  charged as one leaf. */
    Primitive prim;
    EmulSeq SimKernel::*seq;
};

// clang-format off
const SimKernel::OpRow SimKernel::opRows[kernelOpCount] = {
    {.name = "syscall", .trace = ObsTrace::Complete,
     .begin = TraceEvent::Syscall, .end = TraceEvent::Syscall,
     .instant = nullptr, .stat = &SimKernel::statSyscalls,
     .events = {HwCounter::KernelSyscalls}, .eventCount = 1,
     .prim = Primitive::NullSyscall, .seq = nullptr},
    {.name = "trap", .trace = ObsTrace::Pair,
     .begin = TraceEvent::TrapEnter, .end = TraceEvent::TrapExit,
     .instant = nullptr, .stat = &SimKernel::statTraps,
     .events = {HwCounter::KernelTraps}, .eventCount = 1,
     .prim = Primitive::Trap, .seq = nullptr},
    {.name = "exception", .trace = ObsTrace::Complete,
     .begin = TraceEvent::TrapEnter, .end = TraceEvent::TrapEnter,
     .instant = nullptr, .stat = &SimKernel::statOtherExceptions,
     .events = {HwCounter::KernelTraps}, .eventCount = 1,
     .prim = Primitive::Trap, .seq = nullptr},
    {.name = "thread_switch", .trace = ObsTrace::Complete,
     .begin = TraceEvent::ThreadSwitch, .end = TraceEvent::ThreadSwitch,
     .instant = nullptr, .stat = &SimKernel::statThreadSwitches,
     .events = {HwCounter::ThreadSwitches}, .eventCount = 1,
     .prim = Primitive::ContextSwitch, .seq = nullptr},
    // A dedicated fast trap vector: hardware entry/exit plus a short
    // interrupts-disabled test-and-set sequence (~80 cycles), much
    // cheaper than the general trap path but far dearer than an
    // atomic instruction would be.
    {.name = "emulated_test_and_set", .trace = ObsTrace::None,
     .begin = TraceEvent::Mark, .end = TraceEvent::Mark,
     .instant = nullptr, .stat = &SimKernel::statEmulatedInstrs,
     .events = {HwCounter::EmulatedInstrs, HwCounter::EmulatedTasOps},
     .eventCount = 2, .prim = {}, .seq = &SimKernel::tasSeq},
    // Each emulated instruction decodes and interprets in the kernel:
    // a handful of cycles beyond the trap that delivered it.
    {.name = "emulate_instr", .trace = ObsTrace::None,
     .begin = TraceEvent::EmulatedInstr, .end = TraceEvent::Mark,
     .instant = "emulate", .stat = &SimKernel::statEmulatedInstrs,
     .events = {HwCounter::EmulatedInstrs}, .eventCount = 1,
     .prim = {}, .seq = &SimKernel::emulStepSeq},
    {.name = "pte_change", .trace = ObsTrace::None,
     .begin = TraceEvent::Mark, .end = TraceEvent::Mark,
     .instant = nullptr, .stat = &SimKernel::statPteChanges,
     .events = {HwCounter::PteChanges}, .eventCount = 1,
     .prim = Primitive::PteChange, .seq = nullptr},
};
// clang-format on

SimKernel::SimKernel(const MachineDesc &machine)
    : desc(machine), costs(sharedCostDb()), refExec(machine),
      tlbModel(machine.tlb), cacheModel(machine.cache)
{
    for (Primitive p : allPrimitives)
        primCost[static_cast<std::size_t>(p)] = &costs.cost(desc.id, p);
    statSyscalls = &counters.handle(kstat::syscalls);
    statTraps = &counters.handle(kstat::traps);
    statAddrSpaceSwitches = &counters.handle(kstat::addrSpaceSwitches);
    statThreadSwitches = &counters.handle(kstat::threadSwitches);
    statEmulatedInstrs = &counters.handle(kstat::emulatedInstrs);
    statKernelTlbMisses = &counters.handle(kstat::kernelTlbMisses);
    statUserTlbMisses = &counters.handle(kstat::userTlbMisses);
    statOtherExceptions = &counters.handle(kstat::otherExceptions);
    statPteChanges = &counters.handle(kstat::pteChanges);
    // No memory ops, so the whole fast-trap sequence decodes to one
    // constant: trap entry + return hardware plus the t&s microcode.
    tasSeq.stream.trapEnter(/*counts_as_instr=*/false)
        .microcoded(emulatedTasSequenceCycles)
        .trapReturn();
    tasSeq.cycles = decodeStream(desc, tasSeq.stream).tailCycles;
    if (desc.tlb.management == TlbManagement::Software) {
        swRefillUserSeq = tlbRefillSeq(desc, false);
        swRefillKernelSeq = tlbRefillSeq(desc, true);
        hasSwRefill = true;
    }
    // One ALU op per cycle of per-instruction emulation work, so the
    // stream decodes to emulatedInstrCycles.
    emulStepSeq.stream.alu(emulatedInstrCycles);
    emulStepSeq.cycles = decodeStream(desc, emulStepSeq.stream).tailCycles;
    // Space 0 is the kernel itself; its working set models the mapped
    // kernel data (page tables and the like) that still needs TLB
    // entries even when kernel *code* runs unmapped (s5).
    spaces.push_back(
        std::make_unique<AddressSpace>("kernel", 0, desc));
    kernelSpace().setWorkingSet(0x800, 8);
}

AddressSpace &
SimKernel::createSpace(const std::string &name)
{
    Asid asid = nextAsid++;
    if (desc.tlb.processIdTags && desc.tlb.pidCount > 0) {
        // ASIDs wrap on real hardware; recycling one forces a purge of
        // stale translations.
        Asid wrapped = asid % desc.tlb.pidCount;
        if (asid >= desc.tlb.pidCount) {
            tlbModel.invalidateAsid(wrapped);
            countEvent(HwCounter::AsidRollovers);
            asid = wrapped == 0 ? 1 : wrapped;
        }
    }
    spaces.push_back(std::make_unique<AddressSpace>(name, asid, desc));
    return *spaces.back();
}

AddressSpace &
SimKernel::currentSpace()
{
    return *spaces[currentIdx];
}

void
SimKernel::chargePrimitive(Primitive p)
{
    const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(p)];
    if (interpreting()) {
        // Reference mode: re-interpret the handler program op by op
        // for every kernel event instead of charging the cached
        // superblock totals. The execution is deterministic (the
        // buffer resets per run), so the cycles and the per-phase
        // attribution ExecModel::run reports equal the cached path's
        // exactly; its micro-event counter bumps are already folded
        // into the cached cost constants, so they must not leak into
        // the enclosing workload window's counters.
        ObsPause pause(obsdetail::counters);
        ExecResult r = refExec.run(cachedHandler(desc, p));
        cycleCount += r.cycles;
        primCycles += r.cycles;
        return;
    }
    // Attribute the cached handler simulation phase by phase, so a
    // kernel-level profile or span tree bottoms out in the same
    // hardware causes (trap_hardware, write_buffer_stall, ...) the
    // exec model charged — byte-identical to the reference branch.
    obsPhases(pc.detail.phases);
    cycleCount += pc.cycles;
    primCycles += pc.cycles;
}

bool
SimKernel::interpreting() const
{
    return !predecodeEnabled() && !tracerEnabled();
}

bool
SimKernel::batchActive() const
{
    return batchEnabled() && predecodeEnabled() &&
           batchObserversIdle();
}

void
SimKernel::count(const OpRow &row, std::uint64_t n)
{
    *(this->*row.stat) += n;
    for (std::uint8_t i = 0; i < row.eventCount; ++i)
        countEvent(row.events[i], n);
}

void
SimKernel::chargeEvent(KernelOp op, std::uint64_t n)
{
    chargeEvent(op, n, [] {});
}

template <class Inside>
void
SimKernel::chargeEvent(KernelOp op, std::uint64_t n, Inside inside)
{
    const OpRow &row = opRows[static_cast<std::size_t>(op)];
    if (!row.seq) {
        ObsScope obs(row.name, cycleCount, row.trace, row.begin,
                     row.end);
        count(row, 1);
        chargePrimitive(row.prim);
        inside();
        return;
    }
    count(row, n);
    if (row.instant && tracerEnabled())
        Tracer::instance().recordAt(cycleCount, row.begin,
                                    TracePhase::Instant, row.instant, n);
    const EmulSeq &seq = this->*row.seq;
    Cycles c;
    if (interpreting()) {
        // Interpreter reference path: re-run the stream per emulated
        // instruction. Its total is the decoded constant by
        // construction, and its micro-events are already folded into
        // that constant (the leaf below is its attribution), so they
        // must not leak into the workload window's counters.
        ObsPause cpause(obsdetail::counters);
        c = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            c += refExec.runStream(seq.stream).cycles;
    } else {
        c = n * seq.cycles;
    }
    cycleCount += c;
    primCycles += c;
    obsLeaf(row.name, c);
}

void
SimKernel::charge(KernelOp op, std::uint64_t n, bool sample_each)
{
    if (n == 0 || !batchActive()) {
        for (std::uint64_t i = 0; i < n; ++i) {
            chargeEvent(op);
            if (sample_each)
                CounterSampler::instance().tick(
                    cycleCount, static_cast<double>(primCycles));
        }
        return;
    }
    // Closed form: the row's attribution under a scope entered n
    // times (or n leaves), then n events' stat, counters and cycles,
    // plus the sampler boundaries the per-event loop would cross.
    const OpRow &row = opRows[static_cast<std::size_t>(op)];
    Cycles each;
    if (row.seq) {
        each = (this->*row.seq).cycles;
        obsLeafRepeated(row.name, each, n);
    } else {
        const PrimitiveCost &pc =
            *primCost[static_cast<std::size_t>(row.prim)];
        each = pc.cycles;
        obsPhasesRepeated(row.name, pc.detail.phases, n);
    }
    const Cycles start = cycleCount;
    const Cycles prim_start = primCycles;
    count(row, n);
    cycleCount += each * n;
    primCycles += each * n;
    if (sample_each) {
        CounterSet per;
        for (std::uint8_t i = 0; i < row.eventCount; ++i)
            per.set(row.events[i], 1);
        CounterSampler::instance().tickRun(start, each, n, per,
                                           prim_start, each);
    }
}

void
SimKernel::pteChange(AddressSpace &space, Vpn vpn, PageProt prot)
{
    // The edits run inside the op's scope, so an open span counts the
    // shootdown and the flush they cause.
    chargeEvent(KernelOp::PteChange, 1,
                [&] { protectPage(space, vpn, prot); });
}

void
SimKernel::protectPage(AddressSpace &space, Vpn vpn, PageProt prot)
{
    space.pageTable().protect(vpn, prot);
    tlbModel.invalidate(vpn, space.asid());
    // Virtually-addressed caches must also drop the page's lines; the
    // simulated primitive already charges the machine's sweep cost
    // (i860: 536 of 559 instructions), so only state changes here.
    if (desc.cache.indexing == CacheIndexing::Virtual)
        cacheModel.flushPage(vpn << pageShift, space.asid());
}

void
SimKernel::contextSwitchTo(AddressSpace &target)
{
    AddressSpace &from = currentSpace();
    if (&target == &from)
        return;
    ObsScope obs("context_switch", cycleCount, ObsTrace::Pair,
                 TraceEvent::ContextSwitch, TraceEvent::ContextSwitch);
    ++*statAddrSpaceSwitches;
    countEvent(HwCounter::ContextSwitches);
    // An address-space switch implies a thread switch (Table 7 note).
    ++*statThreadSwitches;
    countEvent(HwCounter::ThreadSwitches);
    chargePrimitive(Primitive::ContextSwitch);

    Cycles purge = tlbModel.switchContext();
    cycleCount += purge;
    primCycles += purge;
    if (purge) {
        countEvent(HwCounter::TlbPurgeCycles, purge);
        obsLeaf("tlb_purge", purge);
    }

    bool cache_tagged = !desc.cache.flushOnContextSwitch;
    Cycles flush = cacheModel.switchContext(cache_tagged);
    cycleCount += flush;
    primCycles += flush;
    if (flush) {
        countEvent(HwCounter::CacheFlushCycles, flush);
        obsLeaf("cache_flush", flush);
    }

    for (std::size_t i = 0; i < spaces.size(); ++i) {
        if (spaces[i].get() == &target) {
            currentIdx = i;
            touchWorkingSet();
            return;
        }
    }
    panic("switch to a space this kernel does not own");
}

Cycles
SimKernel::interpRefillCost(bool kernel_space)
{
    // Reference mode on a software-managed TLB: the refill really
    // is a kernel handler (s5), so run it through the interpreter
    // like every other handler. Its micro-event bumps are already
    // folded into the modeled constant, so they must not leak into
    // the workload window (runStream attributes nothing).
    ObsPause cpause(obsdetail::counters);
    return refExec
        .runStream(kernel_space ? swRefillKernelSeq : swRefillUserSeq)
        .cycles;
}

void
SimKernel::touchPages(const std::vector<Vpn> &pages, bool kernel_space)
{
    AddressSpace &space =
        kernel_space ? kernelSpace() : currentSpace();
    ProfScope prof("tlb_refill");
    const Cycles span_start = cycleCount;
    const bool tracing = tracerEnabled();
    if (tracing)
        Tracer::instance().setCycle(cycleCount);
    const Asid asid = space.asid();
    const char *miss_leaf = kernel_space ? "miss_kernel" : "miss_user";
    // Observer state is loop-invariant too (the reference refill pauses
    // and restores it), and nothing in the loop snapshots the counters:
    // test the profiler once and bump tlb_hits once, from the TLB's hit
    // stat, instead of per page.
    const bool profiling = profilerEnabled();
    const std::uint64_t hits_before = tlbModel.hits();
    // Loop-invariant: whether misses charge the interpreted refill
    // handler (reference mode) or the lookup's modeled constant.
    const bool interp_refill = hasSwRefill && interpreting();
    // One TLB miss on a kernel (kernel_ref) or user reference:
    // charge the refill, attribute and count it, install v -> pfn.
    auto refill = [&](const TlbLookup &miss, bool kernel_ref,
                      const char *leaf, Vpn v, Asid a, Pfn pfn,
                      PageProt prot) {
        Cycles c = interp_refill ? interpRefillCost(kernel_ref)
                                 : miss.missCycles;
        cycleCount += c;
        primCycles += c;
        if (profiling)
            Profiler::instance().addLeafCycles(leaf, c);
        if (tracing)
            Tracer::instance().setCycle(cycleCount);
        ++*(kernel_ref ? statKernelTlbMisses : statUserTlbMisses);
        tlbModel.refill(v, a, pfn, prot, miss.fillCell);
        if (tracing)
            Tracer::instance().instant(TraceEvent::TlbFill, "tlb_fill", v);
    };
    for (Vpn vpn : pages) {
        TlbLookup r = tlbModel.lookup(vpn, asid, kernel_space, false);
        if (r.hit)
            continue;
        const Pte *walked = space.translate(vpn);
        Pte pte = walked ? *walked : Pte{vpn, {}, false, false, false};
        refill(r, kernel_space, miss_leaf, vpn, asid, pte.pfn, pte.prot);
        // Refilling from a *mapped* page table makes the walk itself
        // reference kernel space: possible second-level miss (s5:
        // "Page tables, for instance, remain mapped in kernel mode;
        // TLB entries are needed to map the page tables themselves").
        if (!kernel_space) {
            // Each address space has its own kernel-mapped table
            // pages; more spaces means more table pages competing for
            // TLB entries.
            Vpn table_page = 0x800 + asid + ((vpn >> 10) % 2);
            TlbLookup k = tlbModel.lookup(table_page, 0, true, false);
            if (!k.hit)
                refill(k, true, "miss_page_table", table_page, 0,
                       table_page, {});
        }
    }
    countEvent(HwCounter::TlbHits, tlbModel.hits() - hits_before);
    if (cycleCount > span_start)
        spanLeaf("tlb_refill", cycleCount - span_start);
}

void
SimKernel::touchWorkingSet()
{
    touchPages(currentSpace().workingSet(), false);
}

void
SimKernel::runUserCode(std::uint64_t instructions)
{
    // Application instruction throughput scales with the machine's
    // integer performance; normalize so the CVAX retires one
    // instruction per ~1.4 cycles.
    double cpi = 1.4 / desc.appPerfVsCvax *
                 (desc.clock.mhz() / 11.1);
    auto c = static_cast<Cycles>(instructions * cpi + 0.5);
    cycleCount += c;
    // A profiler leaf only: a span request's tree holds kernel work.
    obsLeafRepeated("user_code", c, 1);
}

double
SimKernel::elapsedMicros() const
{
    return desc.clock.cyclesToMicros(cycleCount);
}

void
SimKernel::resetAccounting()
{
    cycleCount = 0;
    primCycles = 0;
    counters.reset();
    tlbModel.resetStats();
    cacheModel.resetStats();
}

} // namespace aosd
