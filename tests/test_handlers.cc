/**
 * @file
 * The headline reproduction tests: handler programs must match the
 * paper's Table 2 instruction counts *exactly*, land Table 1 times
 * within tolerance, decompose per Table 5, and exhibit the share
 * effects the prose describes (write-buffer stalls, window traffic,
 * cache-flush loops). Parameterized over (machine x primitive).
 */

#include <gtest/gtest.h>

#include <string>

#include "arch/machines.hh"
#include "cpu/exec_model.hh"
#include "cpu/handlers.hh"
#include "cpu/primitive_costs.hh"

namespace aosd
{
namespace
{

struct Case
{
    MachineId machine;
    Primitive primitive;
};

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const MachineDesc &m : allMachines())
        for (Primitive p : allPrimitives)
            cases.push_back({m.id, p});
    return cases;
}

std::string
cellName(const Case &c)
{
    MachineDesc m = makeMachine(c.machine);
    std::string p;
    switch (c.primitive) {
      case Primitive::NullSyscall: p = "Syscall"; break;
      case Primitive::Trap: p = "Trap"; break;
      case Primitive::PteChange: p = "PteChange"; break;
      case Primitive::ContextSwitch: p = "CtxSwitch"; break;
    }
    std::string name = m.name + "_" + p;
    for (char &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name;
}

class HandlerTest : public ::testing::TestWithParam<Case>
{
};

// ---- the cells the paper has data for ------------------------------

void
instructionCountMatchesTable2Exactly(const Case &c)
{
    MachineDesc m = makeMachine(c.machine);
    HandlerProgram prog = buildHandler(m, c.primitive);
    EXPECT_EQ(prog.instructionCount(),
              PaperPrimitiveData::instructionCount(c.machine,
                                                   c.primitive))
        << m.name << " / " << primitiveName(c.primitive);
}

void
simulatedTimeWithinTenPercentOfTable1(const Case &c)
{
    double paper =
        PaperPrimitiveData::microseconds(c.machine, c.primitive);
    double sim = sharedCostDb().micros(c.machine, c.primitive);
    EXPECT_NEAR(sim, paper, paper * 0.10)
        << makeMachine(c.machine).name << " / "
        << primitiveName(c.primitive);
}

/** One paper check on one cell. */
class PaperCellTest : public HandlerTest
{
  public:
    PaperCellTest(Case c, void (*check)(const Case &))
        : cell(c), check(check)
    {
    }

    void TestBody() override { check(cell); }

  private:
    Case cell;
    void (*check)(const Case &);
};

/** Register `check` as HandlerTest case `test` on every cell
 *  `has_data` selects, under the names the AllMachinesAllPrimitives
 *  instantiation below gives its cells: a comparison with the paper
 *  runs exactly where the paper has a number, instead of running on
 *  every cell and skipping the rest. */
void
registerPaperCells(const char *test, bool (*has_data)(const Case &),
                   void (*check)(const Case &))
{
    for (const Case &c : allCases()) {
        if (!has_data(c))
            continue;
        const std::string name = std::string(test) + "/" + cellName(c);
        ::testing::RegisterTest(
            "AllMachinesAllPrimitives/HandlerTest", name.c_str(),
            nullptr, ::testing::PrintToString(c).c_str(), __FILE__,
            __LINE__,
            // The factory's static type is the TEST_P fixture, so the
            // suite keeps one fixture class.
            [c, check]() -> HandlerTest * {
                return new PaperCellTest(c, check);
            });
    }
}

const bool paperCellsRegistered = [] {
    registerPaperCells(
        "InstructionCountMatchesTable2Exactly",
        [](const Case &c) {
            return PaperPrimitiveData::instructionCount(
                       c.machine, c.primitive) != 0;
        },
        instructionCountMatchesTable2Exactly);
    registerPaperCells(
        "SimulatedTimeWithinTenPercentOfTable1",
        [](const Case &c) {
            return PaperPrimitiveData::microseconds(c.machine,
                                                    c.primitive) >= 0;
        },
        simulatedTimeWithinTenPercentOfTable1);
    return true;
}();

// ---- every cell ----------------------------------------------------

TEST_P(HandlerTest, CyclesAtLeastInstructions)
{
    const Case c = GetParam();
    const PrimitiveCost &cost = sharedCostDb().cost(c.machine,
                                                    c.primitive);
    EXPECT_GE(cost.cycles, cost.instructions);
}

TEST_P(HandlerTest, DeterministicAcrossRuns)
{
    const Case c = GetParam();
    MachineDesc m = makeMachine(c.machine);
    ExecModel a(m), b(m);
    HandlerProgram prog = buildHandler(m, c.primitive);
    EXPECT_EQ(a.run(prog).cycles, b.run(prog).cycles);
}

TEST_P(HandlerTest, BreakdownSumsToTotal)
{
    const Case c = GetParam();
    const ExecResult &d =
        sharedCostDb().cost(c.machine, c.primitive).detail;
    EXPECT_EQ(d.breakdown.total(), d.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllMachinesAllPrimitives, HandlerTest,
    ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return cellName(info.param);
    });

// ---- Table 5 -------------------------------------------------------

TEST(Table5, PhaseDecompositionWithinTolerance)
{
    const PrimitiveCostDb &db = sharedCostDb();
    for (MachineId id :
         {MachineId::CVAX, MachineId::R2000, MachineId::SPARC}) {
        const MachineDesc &m = db.machine(id);
        const ExecResult &d =
            db.cost(id, Primitive::NullSyscall).detail;
        for (PhaseKind ph : {PhaseKind::KernelEntryExit,
                             PhaseKind::CallPrep,
                             PhaseKind::CCallReturn}) {
            double paper = PaperPrimitiveData::table5Micros(id, ph);
            ASSERT_GE(paper, 0.0);
            double sim = m.clock.cyclesToMicros(d.phaseCycles(ph));
            // Phases are small; allow 25% or 0.7us, whichever is
            // larger.
            double tol = std::max(paper * 0.25, 0.7);
            EXPECT_NEAR(sim, paper, tol)
                << m.name << " / " << phaseName(ph);
        }
    }
}

TEST(Table5, RiscEntryIsCheapButPrepIsDear)
{
    // The paper's structural claim: the VAX pays on entry/exit, the
    // RISCs pay in call preparation.
    const PrimitiveCostDb &db = sharedCostDb();
    auto phase_us = [&](MachineId id, PhaseKind ph) {
        return db.machine(id).clock.cyclesToMicros(
            db.cost(id, Primitive::NullSyscall)
                .detail.phaseCycles(ph));
    };
    EXPECT_GT(phase_us(MachineId::CVAX, PhaseKind::KernelEntryExit),
              5 * phase_us(MachineId::R2000,
                           PhaseKind::KernelEntryExit));
    EXPECT_GT(phase_us(MachineId::R2000, PhaseKind::CallPrep),
              phase_us(MachineId::CVAX, PhaseKind::CallPrep));
    EXPECT_GT(phase_us(MachineId::SPARC, PhaseKind::CallPrep),
              phase_us(MachineId::R2000, PhaseKind::CallPrep));
}

// ---- Prose-level share effects --------------------------------------

TEST(HandlerShares, WriteBufferStallShareOnDs3100)
{
    // ~30% of interrupt overhead on the DECstation 3100 (s2.3). Our
    // writeBufferStall bucket also charges the reads that wait for
    // the buffer to drain, so the share reads slightly higher.
    const ExecResult &d =
        sharedCostDb().cost(MachineId::R2000, Primitive::Trap).detail;
    double share = static_cast<double>(d.breakdown.writeBufferStall) /
                   static_cast<double>(d.cycles);
    EXPECT_GT(share, 0.20);
    EXPECT_LT(share, 0.55);
}

TEST(HandlerShares, Ds5000HasAlmostNoWriteStall)
{
    const ExecResult &d =
        sharedCostDb().cost(MachineId::R3000, Primitive::Trap).detail;
    double share = static_cast<double>(d.breakdown.writeBufferStall) /
                   static_cast<double>(d.cycles);
    EXPECT_LT(share, 0.05);
}

TEST(HandlerShares, SparcWindowShareOfSyscall)
{
    // ~30% of the SPARC null syscall is window processing (s2.3).
    const MachineDesc &sparc = sharedCostDb().machine(MachineId::SPARC);
    ExecModel exec(sparc);
    Cycles window = exec.runStream(sparcWindowSaveSeq(sparc)).cycles;
    Cycles total =
        sharedCostDb().cycles(MachineId::SPARC, Primitive::NullSyscall);
    double share =
        static_cast<double>(window) / static_cast<double>(total);
    EXPECT_GT(share, 0.20);
    EXPECT_LT(share, 0.40);
}

TEST(HandlerShares, SparcContextSwitchDominatedByWindows)
{
    // ~70% of the SPARC context switch is window save/restore (s4.1).
    const MachineDesc &sparc = sharedCostDb().machine(MachineId::SPARC);
    ExecModel exec(sparc);
    InstrStream windows;
    for (int i = 0; i < 3; ++i)
        windows.append(sparcWindowSaveSeq(sparc));
    for (int i = 0; i < 3; ++i)
        windows.append(sparcWindowRestoreSeq(sparc));
    Cycles w = exec.runStream(windows).cycles;
    Cycles total = sharedCostDb().cycles(MachineId::SPARC,
                                         Primitive::ContextSwitch);
    double share = static_cast<double>(w) / static_cast<double>(total);
    EXPECT_GT(share, 0.60);
    EXPECT_LT(share, 0.90);
}

TEST(HandlerShares, I860PteChangeIsMostlyCacheFlush)
{
    // 536 of 559 instructions flush the virtual cache (s3.2).
    MachineDesc m = makeMachine(MachineId::I860);
    HandlerProgram p = buildHandler(m, Primitive::PteChange);
    std::uint64_t flush_lines = 0;
    for (const auto &ph : p.phases)
        flush_lines += ph.code.countOf(OpKind::CacheFlushLine);
    EXPECT_EQ(flush_lines * 4, 536u); // 4-instruction loop body
}

TEST(HandlerShares, CvaxIsMicrocodeDominated)
{
    const ExecResult &d =
        sharedCostDb().cost(MachineId::CVAX, Primitive::ContextSwitch)
            .detail;
    double share = static_cast<double>(d.breakdown.microcode) /
                   static_cast<double>(d.cycles);
    EXPECT_GT(share, 0.80);
}

// ---- Table 1 shape claims -------------------------------------------

TEST(Table1Shape, NoPrimitiveScalesWithIntegerPerformance)
{
    // The central claim: relative speed of every primitive on every
    // RISC is well below its application-performance ratio.
    const PrimitiveCostDb &db = sharedCostDb();
    for (MachineId id : {MachineId::M88000, MachineId::R2000,
                         MachineId::R3000, MachineId::SPARC}) {
        double app = db.machine(id).appPerfVsCvax;
        for (Primitive p : allPrimitives) {
            EXPECT_LT(db.relativeToCvax(id, p), app)
                << db.machine(id).name << " / " << primitiveName(p);
        }
    }
}

TEST(Table1Shape, SparcContextSwitchSlowerThanCvax)
{
    // The SPARC's relative speed for context switch is ~0.5: slower
    // than the CISC it replaced.
    EXPECT_LT(sharedCostDb().relativeToCvax(MachineId::SPARC,
                                            Primitive::ContextSwitch),
              1.0);
}

TEST(Table1Shape, Ds5000IsBestRisc)
{
    const PrimitiveCostDb &db = sharedCostDb();
    for (Primitive p : allPrimitives) {
        for (MachineId other : {MachineId::M88000, MachineId::R2000,
                                MachineId::SPARC}) {
            EXPECT_GT(db.relativeToCvax(MachineId::R3000, p),
                      db.relativeToCvax(other, p))
                << primitiveName(p);
        }
    }
}

TEST(Table1Shape, R2000SyscallBeatsCvaxOnlyMarginally)
{
    // s2.3: "the MIPS R2000 requires 15% fewer cycles than the CVAX
    // for a system call" — marginal, not commensurate with 4.2x.
    double rel = sharedCostDb().relativeToCvax(
        MachineId::R2000, Primitive::NullSyscall);
    EXPECT_GT(rel, 1.2);
    EXPECT_LT(rel, 2.5);
}

} // namespace
} // namespace aosd
