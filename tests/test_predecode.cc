/**
 * @file
 * Tests for the pre-decoded superblock execution layer
 * (cpu/decoded_program.hh): the decoded fast path must be
 * indistinguishable from the interpreter in every observable —
 * cycles, instructions, per-phase breakdowns, hardware-counter
 * bumps, profiler attribution, and whole-workload kernel runs —
 * across every machine, primitive, and architecture-fix variant.
 * The same suite runs (and must pass) under AOSD_NO_PREDECODE=1,
 * where every dispatch starts on the interpreter.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/machines.hh"
#include "cpu/decoded_program.hh"
#include "cpu/exec_model.hh"
#include "cpu/handler_variants.hh"
#include "cpu/handlers.hh"
#include "os/kernel/kernel.hh"
#include "sim/counters/counters.hh"
#include "sim/profile/profile.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"

namespace aosd
{
namespace
{

/** Restore predecode/counter/profiler state around each test. */
class PredecodeTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        setPredecodeEnabled(true);
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        Profiler::instance().disable();
        Profiler::instance().clear();
    }
};

void
expectBreakdownEq(const CycleBreakdown &a, const CycleBreakdown &b)
{
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.writeBufferStall, b.writeBufferStall);
    EXPECT_EQ(a.cacheMissStall, b.cacheMissStall);
    EXPECT_EQ(a.uncached, b.uncached);
    EXPECT_EQ(a.ctrlReg, b.ctrlReg);
    EXPECT_EQ(a.microcode, b.microcode);
    EXPECT_EQ(a.tlbOps, b.tlbOps);
    EXPECT_EQ(a.cacheMaintenance, b.cacheMaintenance);
    EXPECT_EQ(a.trapHardware, b.trapHardware);
    EXPECT_EQ(a.fpuSync, b.fpuSync);
}

void
expectResultsEq(const ExecResult &interp, const ExecResult &decoded)
{
    EXPECT_EQ(interp.cycles, decoded.cycles);
    EXPECT_EQ(interp.instructions, decoded.instructions);
    expectBreakdownEq(interp.breakdown, decoded.breakdown);
    ASSERT_EQ(interp.phases.size(), decoded.phases.size());
    for (std::size_t i = 0; i < interp.phases.size(); ++i) {
        EXPECT_EQ(interp.phases[i].kind, decoded.phases[i].kind);
        EXPECT_EQ(interp.phases[i].cycles, decoded.phases[i].cycles);
        EXPECT_EQ(interp.phases[i].instructions,
                  decoded.phases[i].instructions);
        expectBreakdownEq(interp.phases[i].breakdown,
                          decoded.phases[i].breakdown);
    }
}

// ---- interpreter equivalence --------------------------------------

TEST_F(PredecodeTest, DecodedMatchesInterpreterEveryPair)
{
    for (const MachineDesc &m : allMachines()) {
        for (Primitive p : allPrimitives) {
            SCOPED_TRACE(std::string(m.name) + "/" + primitiveName(p));
            ExecModel exec(m);
            ExecResult interp = exec.run(cachedHandler(m, p));
            exec.reset();
            ExecResult decoded =
                exec.runDecoded(cachedDecodedHandler(m, p));
            expectResultsEq(interp, decoded);
        }
    }
}

TEST_F(PredecodeTest, DecodedCounterBumpsMatchInterpreter)
{
    HwCounters &c = HwCounters::instance();
    for (const MachineDesc &m : allMachines()) {
        for (Primitive p : allPrimitives) {
            SCOPED_TRACE(std::string(m.name) + "/" + primitiveName(p));
            ExecModel exec(m);
            c.enable();
            exec.run(cachedHandler(m, p));
            CounterSet interp = c.snapshot();
            exec.reset();
            c.enable();
            exec.runDecoded(cachedDecodedHandler(m, p));
            CounterSet decoded = c.snapshot();
            c.disable();
            EXPECT_EQ(interp, decoded);
        }
    }
}

// ---- the shared price table against MachineDesc literals ----------

/** One op's expected price, written from MachineDesc fields. */
struct PriceCase
{
    const char *name;
    Op op;
    Cycles cycles;
    CycleBreakdown breakdown;
    std::vector<std::pair<HwCounter, std::uint64_t>> counters;
};

Op
opOf(OpKind kind, std::uint32_t cycles = 0, bool uncached = false,
     bool cold_miss = false)
{
    Op op;
    op.kind = kind;
    op.cycles = cycles;
    op.uncached = uncached;
    op.coldMiss = cold_miss;
    return op;
}

/** Every OpKind (and each Load/Store variant) once, retired as one
 *  instruction against a quiescent write buffer. */
std::vector<PriceCase>
priceCases(const MachineDesc &m)
{
    using C = HwCounter;
    const Cycles bp = m.timing.branchPenaltyCycles;
    const Cycles miss = m.cache.missPenaltyCycles;
    const Cycles unc = m.cache.uncachedCycles;
    const Cycles enter = m.timing.trapEnterCycles;
    const Cycles lines = m.cache.sizeBytes / m.cache.lineBytes;
    auto bd = [](Cycles CycleBreakdown::*cause, Cycles c,
                 Cycles CycleBreakdown::*cause2 = nullptr,
                 Cycles c2 = 0) {
        CycleBreakdown out;
        out.*cause += c;
        if (cause2)
            out.*cause2 += c2;
        return out;
    };
    using B = CycleBreakdown;
    return {
        {"alu", opOf(OpKind::Alu), 1, bd(&B::base, 1),
         {{C::IssueSlots, 1}}},
        {"nop", opOf(OpKind::Nop), 1, bd(&B::base, 1),
         {{C::IssueSlots, 1}, {C::Nops, 1}}},
        {"branch", opOf(OpKind::Branch), 1 + bp,
         bd(&B::base, 1, &B::trapHardware, bp),
         {{C::IssueSlots, 1}, {C::Branches, 1}, {C::InterlockCycles, bp}}},
        {"load", opOf(OpKind::Load), 1, bd(&B::base, 1),
         {{C::IssueSlots, 1}, {C::Loads, 1}}},
        {"load_cold", opOf(OpKind::Load, 0, false, true), 1 + miss,
         bd(&B::base, 1, &B::cacheMissStall, miss),
         {{C::IssueSlots, 1}, {C::Loads, 1}, {C::ColdMisses, 1}}},
        {"load_uncached", opOf(OpKind::Load, 0, true), unc,
         bd(&B::uncached, unc), {{C::UncachedAccesses, 1}}},
        {"store", opOf(OpKind::Store), 1, bd(&B::base, 1),
         {{C::IssueSlots, 1},
          {C::Stores, 1},
          {C::WbStores, 1},
          {C::WbOccupancyHighWater, 1}}},
        {"store_uncached", opOf(OpKind::Store, 0, true), unc,
         bd(&B::uncached, unc), {{C::UncachedAccesses, 1}}},
        {"trap_enter", opOf(OpKind::TrapEnter), enter,
         bd(&B::trapHardware, enter), {{C::TrapEnters, 1}}},
        {"trap_return", opOf(OpKind::TrapReturn),
         m.timing.trapReturnCycles,
         bd(&B::trapHardware, m.timing.trapReturnCycles),
         {{C::TrapReturns, 1}}},
        {"ctrl_read", opOf(OpKind::CtrlRegRead), m.timing.ctrlRegCycles,
         bd(&B::ctrlReg, m.timing.ctrlRegCycles),
         {{C::CtrlRegAccesses, 1}}},
        {"ctrl_write", opOf(OpKind::CtrlRegWrite),
         m.timing.ctrlRegCycles, bd(&B::ctrlReg, m.timing.ctrlRegCycles),
         {{C::CtrlRegAccesses, 1}}},
        {"tlb_write", opOf(OpKind::TlbWrite), m.tlb.writeEntryCycles,
         bd(&B::tlbOps, m.tlb.writeEntryCycles), {{C::TlbWriteOps, 1}}},
        {"tlb_probe", opOf(OpKind::TlbProbe), 3, bd(&B::tlbOps, 3),
         {{C::TlbProbeOps, 1}}},
        {"tlb_purge_entry", opOf(OpKind::TlbPurgeEntry),
         m.tlb.purgeEntryCycles, bd(&B::tlbOps, m.tlb.purgeEntryCycles),
         {{C::TlbPurgeEntryOps, 1}}},
        {"tlb_purge_all", opOf(OpKind::TlbPurgeAll),
         m.tlb.purgeAllCycles, bd(&B::tlbOps, m.tlb.purgeAllCycles),
         {{C::TlbPurgeAllOps, 1}}},
        {"cache_flush_line", opOf(OpKind::CacheFlushLine),
         m.cache.flushLineCycles,
         bd(&B::cacheMaintenance, m.cache.flushLineCycles),
         {{C::CacheFlushLines, 1}}},
        {"cache_flush_all", opOf(OpKind::CacheFlushAll),
         lines * m.cache.flushLineCycles,
         bd(&B::cacheMaintenance, lines * m.cache.flushLineCycles),
         {{C::CacheFlushLines, lines}}},
        {"microcoded", opOf(OpKind::Microcoded, 7), 7,
         bd(&B::microcode, 7),
         {{C::MicrocodeOps, 1}, {C::MicrocodeCycles, 7}}},
        {"atomic", opOf(OpKind::AtomicOp), unc, bd(&B::uncached, unc),
         {{C::AtomicOps, 1}}},
        {"fpu_sync", opOf(OpKind::FpuSync, 5), 5, bd(&B::fpuSync, 5),
         {{C::FpuSyncCycles, 5}}},
        {"window_overflow", opOf(OpKind::WindowOverflowTrap), enter,
         bd(&B::trapHardware, enter),
         {{C::WindowOverflows, 1}, {C::WindowsSpilled, 1}}},
        {"window_underflow", opOf(OpKind::WindowUnderflowTrap), enter,
         bd(&B::trapHardware, enter), {{C::WindowUnderflows, 1}}},
    };
}

TEST_F(PredecodeTest, PriceTableMatchesMachineDescLiterals)
{
    // The interpreter and the decoder share one price table, so their
    // agreement (DecodedCounterBumpsMatchInterpreter) no longer checks
    // the table itself. This does, against literals: cycles, cause
    // and every counter bump of each op kind, through both paths.
    for (MachineId id : {MachineId::R3000, MachineId::SPARC}) {
        const MachineDesc m = makeMachine(id);
        ExecModel exec(m);
        std::set<OpKind> kinds;
        for (const PriceCase &pc : priceCases(m)) {
            SCOPED_TRACE(std::string(m.name) + "/" + pc.name);
            kinds.insert(pc.op.kind);
            InstrStream stream;
            stream.push(pc.op);
            CounterSet want;
            want.set(HwCounter::InstrRetired, 1);
            for (const auto &[c, n] : pc.counters)
                want.set(c, n);

            exec.reset();
            CounterWindow interp_window;
            PhaseResult interp = exec.runStream(stream);
            EXPECT_EQ(interp.cycles, pc.cycles);
            EXPECT_EQ(interp.instructions, 1u);
            expectBreakdownEq(interp.breakdown, pc.breakdown);
            EXPECT_EQ(interp_window.events(), want);

            CounterWindow decoded_window;
            DecodedProgram dec;
            dec.phases.push_back(decodeStream(m, stream));
            ExecResult decoded = exec.runDecoded(dec);
            EXPECT_EQ(decoded.cycles, pc.cycles);
            EXPECT_EQ(decoded.instructions, 1u);
            expectBreakdownEq(decoded.breakdown, pc.breakdown);
            EXPECT_EQ(decoded_window.events(), want);
        }
        EXPECT_EQ(kinds.size(),
                  static_cast<std::size_t>(OpKind::WindowUnderflowTrap) +
                      1);
    }
}

TEST_F(PredecodeTest, DecodedProfileAttributionMatchesInterpreter)
{
    MachineDesc m = makeMachine(MachineId::SPARC);
    Profiler &prof = Profiler::instance();
    ExecModel exec(m);

    prof.enable();
    exec.run(cachedHandler(m, Primitive::ContextSwitch));
    prof.disable();
    Json interp = prof.toJson();
    prof.clear();

    exec.reset();
    prof.enable();
    exec.runDecoded(
        cachedDecodedHandler(m, Primitive::ContextSwitch));
    prof.disable();
    Json decoded = prof.toJson();
    prof.clear();

    EXPECT_EQ(interp.dump(), decoded.dump());
}

TEST_F(PredecodeTest, RunPrimitiveMatchesBothModes)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    ExecModel exec(m);
    ExecResult ref = exec.run(cachedHandler(m, Primitive::Trap));

    exec.reset();
    ExecResult fast = exec.runPrimitive(Primitive::Trap);
    expectResultsEq(ref, fast);

    setPredecodeEnabled(false);
    exec.reset();
    ExecResult slow = exec.runPrimitive(Primitive::Trap);
    expectResultsEq(ref, slow);
}

// ---- handler-variant equivalence ----------------------------------

TEST_F(PredecodeTest, DecodedVariantsMatchInterpreter)
{
    for (ArchFix fix : allArchFixes) {
        for (const MachineDesc &m : allMachines()) {
            for (Primitive p : allPrimitives) {
                if (!archFixApplies(fix, m.id, p))
                    continue;
                SCOPED_TRACE(std::string(archFixName(fix)) + " " +
                             m.name);
                ExecModel exec(m);
                ExecResult interp =
                    exec.run(buildImprovedHandler(m, p, fix));
                exec.reset();
                ExecResult decoded =
                    exec.runDecoded(cachedDecodedVariant(m, p, fix));
                expectResultsEq(interp, decoded);
            }
        }
    }
}

// ---- decode-cache invalidation ------------------------------------

TEST_F(PredecodeTest, CacheRecompilesForModifiedDesc)
{
    MachineDesc stock = makeMachine(MachineId::R3000);
    const DecodedProgram &before =
        cachedDecodedHandler(stock, Primitive::Trap);
    Cycles stock_trap = before.phases.front().constBreakdown.total();

    // An ablation-style modified desc under the same machine id must
    // recompile (and replace) the cached entry, not serve stale
    // constants.
    MachineDesc tweaked = stock;
    tweaked.timing.trapEnterCycles += 7;
    const DecodedProgram &modified =
        cachedDecodedHandler(tweaked, Primitive::Trap);
    Cycles tweaked_trap =
        modified.phases.front().constBreakdown.total();
    EXPECT_EQ(tweaked_trap, stock_trap + 7);

    // And asking for the stock desc again recompiles back.
    const DecodedProgram &again =
        cachedDecodedHandler(stock, Primitive::Trap);
    EXPECT_EQ(again.phases.front().constBreakdown.total(), stock_trap);
}

TEST_F(PredecodeTest, VariantCacheRecompilesForModifiedDesc)
{
    MachineDesc stock = makeMachine(MachineId::I860);
    Cycles before = cachedDecodedVariant(stock, Primitive::Trap,
                                         ArchFix::FaultAddressRegister)
                        .phases.front()
                        .constBreakdown.total();
    MachineDesc tweaked = stock;
    tweaked.timing.trapEnterCycles += 5;
    Cycles after = cachedDecodedVariant(tweaked, Primitive::Trap,
                                        ArchFix::FaultAddressRegister)
                       .phases.front()
                       .constBreakdown.total();
    EXPECT_EQ(after, before + 5);
}

// ---- the kernel's constant-folded streams -------------------------

TEST_F(PredecodeTest, TasSequenceDecodesToTheModeledConstant)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    InstrStream tas;
    tas.trapEnter(false)
        .microcoded(emulatedTasSequenceCycles)
        .trapReturn();
    DecodedPhase dp = decodeStream(m, tas);
    EXPECT_TRUE(dp.steps.empty());
    EXPECT_EQ(dp.tailCycles, m.timing.trapEnterCycles +
                                 m.timing.trapReturnCycles +
                                 emulatedTasSequenceCycles);

    // And the interpreter agrees (the stream is stateless).
    ExecModel exec(m);
    EXPECT_EQ(exec.runStream(tas).cycles, dp.tailCycles);
}

TEST_F(PredecodeTest, TlbRefillSeqTotalsEqualTheMissConstants)
{
    for (MachineId id : {MachineId::R2000, MachineId::R3000}) {
        MachineDesc m = makeMachine(id);
        ASSERT_EQ(m.tlb.management, TlbManagement::Software);
        for (bool kernel : {false, true}) {
            SCOPED_TRACE(std::string(m.name) +
                         (kernel ? " kernel" : " user"));
            Cycles want = kernel ? m.tlb.swKernelMissCycles
                                 : m.tlb.swUserMissCycles;
            InstrStream seq = tlbRefillSeq(m, kernel);
            DecodedPhase dp = decodeStream(m, seq);
            EXPECT_TRUE(dp.steps.empty());
            EXPECT_EQ(dp.tailCycles, want);
            ExecModel exec(m);
            EXPECT_EQ(exec.runStream(seq).cycles, want);
        }
    }
}

TEST(PredecodeDeathTest, TlbRefillSeqPanicsOnHardwareTlb)
{
    MachineDesc cvax = makeMachine(MachineId::CVAX);
    ASSERT_EQ(cvax.tlb.management, TlbManagement::Hardware);
    EXPECT_DEATH(tlbRefillSeq(cvax, false), "hardware-managed");
}

// ---- whole-kernel on/off equality ---------------------------------

TEST_F(PredecodeTest, WorkloadRunIdenticalWithPredecodeOff)
{
    const MachineDesc m = makeMachine(MachineId::R3000);
    AppProfile app = workloadByName("spellcheck-1");

    auto run = [&] {
        MachSystem sys(m, OsStructure::SmallKernel);
        return sys.run(app);
    };
    Table7Row fast = run();
    setPredecodeEnabled(false);
    Table7Row slow = run();

    EXPECT_EQ(fast.elapsedSeconds, slow.elapsedSeconds);
    EXPECT_EQ(fast.systemCalls, slow.systemCalls);
    EXPECT_EQ(fast.addressSpaceSwitches, slow.addressSpaceSwitches);
    EXPECT_EQ(fast.threadSwitches, slow.threadSwitches);
    EXPECT_EQ(fast.emulatedInstructions, slow.emulatedInstructions);
    EXPECT_EQ(fast.kernelTlbMisses, slow.kernelTlbMisses);
    EXPECT_EQ(fast.otherExceptions, slow.otherExceptions);
    EXPECT_EQ(fast.percentTimeInPrimitives,
              slow.percentTimeInPrimitives);
}

// ---- the switch itself --------------------------------------------

TEST_F(PredecodeTest, RuntimeToggleSelectsThePath)
{
    setPredecodeEnabled(false);
    EXPECT_FALSE(predecodeEnabled());
    setPredecodeEnabled(true);
    EXPECT_TRUE(predecodeEnabled());
}

} // namespace
} // namespace aosd
