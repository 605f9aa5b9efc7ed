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
    tasSeq.trapEnter(/*counts_as_instr=*/false)
        .microcoded(emulatedTasSequenceCycles)
        .trapReturn();
    // No memory ops, so the whole fast-trap sequence decodes to one
    // constant: trap entry + return hardware plus the t&s microcode.
    tasCycles = decodeStream(desc, tasSeq).tailCycles;
    if (desc.tlb.management == TlbManagement::Software) {
        swRefillUserSeq = tlbRefillSeq(desc, false);
        swRefillKernelSeq = tlbRefillSeq(desc, true);
        hasSwRefill = true;
    }
    // One ALU op per cycle of per-instruction emulation work, so the
    // stream's interpreted total equals n * emulatedInstrCycles.
    emulStepSeq.alu(emulatedInstrCycles);
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
    if (!predecodeEnabled() && !tracerEnabled()) {
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
SimKernel::batchActive() const
{
    return batchEnabled() && predecodeEnabled() &&
           batchObserversIdle();
}

template <class Step>
bool
SimKernel::steppedRun(std::uint64_t n, bool sample_each, Step step)
{
    if (n != 0 && batchActive())
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        step();
        if (sample_each)
            CounterSampler::instance().tick(
                cycleCount, static_cast<double>(primCycles));
    }
    return true;
}

void
SimKernel::chargeRun(std::uint64_t *stat,
                     std::initializer_list<HwCounter> events,
                     Cycles each, std::uint64_t n, bool sample_each)
{
    const Cycles start = cycleCount;
    const Cycles prim_start = primCycles;
    *stat += n;
    for (HwCounter event : events)
        countEvent(event, n);
    cycleCount += each * n;
    primCycles += each * n;
    if (sample_each) {
        CounterSet per;
        for (HwCounter event : events)
            per.set(event, 1);
        CounterSampler::instance().tickRun(start, each, n, per,
                                           prim_start, each);
    }
}

void
SimKernel::batchScopedPrimitive(const char *scope, Primitive p,
                                std::uint64_t *stat, HwCounter event,
                                std::uint64_t n, bool sample_each)
{
    const PrimitiveCost &pc = *primCost[static_cast<std::size_t>(p)];
    obsPhasesRepeated(scope, pc.detail.phases, n);
    chargeRun(stat, {event}, pc.cycles, n, sample_each);
}

void
SimKernel::syscallBatch(std::uint64_t n, bool sample_each)
{
    if (steppedRun(n, sample_each, [this] { syscall(); }))
        return;
    batchScopedPrimitive("syscall", Primitive::NullSyscall,
                         statSyscalls, HwCounter::KernelSyscalls, n,
                         sample_each);
}

void
SimKernel::trapBatch(std::uint64_t n, bool sample_each)
{
    if (steppedRun(n, sample_each, [this] { trap(); }))
        return;
    batchScopedPrimitive("trap", Primitive::Trap, statTraps,
                         HwCounter::KernelTraps, n, sample_each);
}

void
SimKernel::otherExceptionBatch(std::uint64_t n, bool sample_each)
{
    if (steppedRun(n, sample_each, [this] { otherException(); }))
        return;
    batchScopedPrimitive("exception", Primitive::Trap,
                         statOtherExceptions, HwCounter::KernelTraps,
                         n, sample_each);
}

void
SimKernel::threadSwitchBatch(std::uint64_t n, bool sample_each)
{
    if (steppedRun(n, sample_each, [this] { threadSwitch(); }))
        return;
    batchScopedPrimitive("thread_switch", Primitive::ContextSwitch,
                         statThreadSwitches,
                         HwCounter::ThreadSwitches, n, sample_each);
}

void
SimKernel::emulateTestAndSetBatch(std::uint64_t n, bool sample_each)
{
    if (steppedRun(n, sample_each, [this] { emulateTestAndSet(); }))
        return;
    obsLeafRepeated("emulated_test_and_set", tasCycles, n);
    chargeRun(statEmulatedInstrs,
              {HwCounter::EmulatedInstrs, HwCounter::EmulatedTasOps},
              tasCycles, n, sample_each);
}

void
SimKernel::emulateSingleInstructionsBatch(std::uint64_t n,
                                          bool sample_each)
{
    if (steppedRun(n, sample_each, [this] { emulateInstructions(1); }))
        return;
    obsLeafRepeated("emulate_instr", emulatedInstrCycles, n);
    chargeRun(statEmulatedInstrs, {HwCounter::EmulatedInstrs},
              emulatedInstrCycles, n, sample_each);
}

void
SimKernel::pteChangeBatch(AddressSpace &space,
                          const std::vector<Vpn> &vpns, PageProt prot)
{
    if (vpns.empty())
        return;
    if (!batchActive()) {
        for (Vpn vpn : vpns)
            pteChange(space, vpn, prot);
        return;
    }
    batchScopedPrimitive("pte_change", Primitive::PteChange,
                         statPteChanges, HwCounter::PteChanges,
                         vpns.size(), false);
    // Stepped state edits at the batch boundary: each page's PTE,
    // TLB shootdown and (virtually-indexed) cache flush. These only
    // mutate state and bump their own counters — no cycles, no
    // attribution — so running them after the aggregate charge
    // leaves every observable total equal to the interleaved loop's.
    for (Vpn vpn : vpns) {
        space.pageTable().protect(vpn, prot);
        tlbModel.invalidate(vpn, space.asid());
        if (desc.cache.indexing == CacheIndexing::Virtual)
            cacheModel.flushPage(vpn << pageShift, space.asid());
    }
}

void
SimKernel::syscall()
{
    ObsScope obs("syscall", cycleCount, TraceEvent::Syscall);
    ++*statSyscalls;
    countEvent(HwCounter::KernelSyscalls);
    chargePrimitive(Primitive::NullSyscall);
}

void
SimKernel::trap()
{
    ObsScope obs("trap", cycleCount, TraceEvent::TrapEnter,
                 TraceEvent::TrapExit);
    ++*statTraps;
    countEvent(HwCounter::KernelTraps);
    chargePrimitive(Primitive::Trap);
}

void
SimKernel::pteChange(AddressSpace &space, Vpn vpn, PageProt prot)
{
    ObsScope obs("pte_change", cycleCount);
    ++*statPteChanges;
    countEvent(HwCounter::PteChanges);
    chargePrimitive(Primitive::PteChange);
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
    ObsScope obs("context_switch", cycleCount,
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

void
SimKernel::threadSwitch()
{
    ObsScope obs("thread_switch", cycleCount, TraceEvent::ThreadSwitch);
    ++*statThreadSwitches;
    countEvent(HwCounter::ThreadSwitches);
    chargePrimitive(Primitive::ContextSwitch);
}

void
SimKernel::emulateInstructions(std::uint64_t n)
{
    *statEmulatedInstrs += n;
    countEvent(HwCounter::EmulatedInstrs, n);
    // Each emulated instruction decodes and interprets in the kernel:
    // a handful of cycles beyond the trap that delivered it.
    if (tracerEnabled())
        Tracer::instance().recordAt(cycleCount,
                                    TraceEvent::EmulatedInstr,
                                    TracePhase::Instant, "emulate", n);
    Cycles c;
    if (!predecodeEnabled() && !tracerEnabled()) {
        // Interpreter reference path: decode and dispatch each
        // emulated instruction individually. The stream's total is
        // emulatedInstrCycles by construction, so the charge is
        // identical to the folded fast-path constant below.
        ObsPause cpause(obsdetail::counters);
        c = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            c += refExec.runStream(emulStepSeq).cycles;
    } else {
        c = n * emulatedInstrCycles;
    }
    cycleCount += c;
    primCycles += c;
    obsLeaf("emulate_instr", c);
}

void
SimKernel::emulateTestAndSet()
{
    ++*statEmulatedInstrs;
    countEvent(HwCounter::EmulatedInstrs);
    countEvent(HwCounter::EmulatedTasOps);
    // A dedicated fast trap vector: hardware entry/exit plus a short
    // interrupts-disabled test-and-set sequence (~80 cycles), much
    // cheaper than the general trap path but far dearer than an
    // atomic instruction would be. With predecode on, the sequence's
    // cycle total was computed once at construction; the interpreter
    // fallback re-runs the fast-trap stream per event, with its
    // micro-events suppressed (they are already folded into the
    // constant; the leaf below is its attribution).
    Cycles c;
    if (!predecodeEnabled() && !tracerEnabled()) {
        ObsPause cpause(obsdetail::counters);
        c = refExec.runStream(tasSeq).cycles;
    } else {
        c = tasCycles;
    }
    cycleCount += c;
    primCycles += c;
    obsLeaf("emulated_test_and_set", c);
}

void
SimKernel::otherException()
{
    ObsScope obs("exception", cycleCount, TraceEvent::TrapEnter);
    ++*statOtherExceptions;
    countEvent(HwCounter::KernelTraps);
    chargePrimitive(Primitive::Trap);
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
    std::uint64_t *miss_stat =
        kernel_space ? statKernelTlbMisses : statUserTlbMisses;
    const char *miss_leaf = kernel_space ? "miss_kernel" : "miss_user";
    // Observer state is loop-invariant too (the reference refill pauses
    // and restores it), and nothing in the loop snapshots the counters:
    // test the profiler once and bump tlb_hits once, from the TLB's hit
    // stat, instead of per page.
    const bool profiling = profilerEnabled();
    const std::uint64_t hits_before = tlbModel.hits();
    // Loop-invariant: whether misses charge the interpreted refill
    // handler (reference mode) or the lookup's modeled constant.
    const bool interp_refill =
        hasSwRefill && !predecodeEnabled() && !tracing;
    for (Vpn vpn : pages) {
        TlbLookup r = tlbModel.lookup(vpn, asid, kernel_space, false);
        if (!r.hit) {
            Cycles mc = interp_refill ? interpRefillCost(kernel_space)
                                      : r.missCycles;
            cycleCount += mc;
            primCycles += mc;
            if (profiling)
                Profiler::instance().addLeafCycles(miss_leaf, mc);
            if (tracing)
                Tracer::instance().setCycle(cycleCount);
            ++*miss_stat;
            const Pte *walked = space.translate(vpn);
            Pte pte =
                walked ? *walked : Pte{vpn, {}, false, false, false};
            tlbModel.refill(vpn, asid, pte.pfn, pte.prot, r.fillCell);
            if (tracing)
                Tracer::instance().instant(TraceEvent::TlbFill,
                                           "tlb_fill", vpn);
            // Refilling from a *mapped* page table makes the walk
            // itself reference kernel space: possible second-level
            // miss (s5: "Page tables, for instance, remain mapped in
            // kernel mode; TLB entries are needed to map the page
            // tables themselves").
            if (!kernel_space) {
                // Each address space has its own kernel-mapped table
                // pages; more spaces means more table pages competing
                // for TLB entries.
                Vpn table_page = 0x800 + asid + ((vpn >> 10) % 2);
                TlbLookup k =
                    tlbModel.lookup(table_page, 0, true, false);
                if (!k.hit) {
                    Cycles kc = interp_refill ? interpRefillCost(true)
                                              : k.missCycles;
                    cycleCount += kc;
                    primCycles += kc;
                    if (profiling)
                        Profiler::instance().addLeafCycles(
                            "miss_page_table", kc);
                    if (tracing)
                        Tracer::instance().setCycle(cycleCount);
                    ++*statKernelTlbMisses;
                    tlbModel.refill(table_page, 0, table_page, {},
                                    k.fillCell);
                    if (tracing)
                        Tracer::instance().instant(TraceEvent::TlbFill,
                                                   "tlb_fill",
                                                   table_page);
                }
            }
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
SimKernel::chargeMicros(double us)
{
    Cycles c = desc.clock.microsToCycles(us);
    cycleCount += c;
    if (profilerEnabled())
        Profiler::instance().addCycles(c);
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
