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
