/**
 * @file
 * Integration tests for the Study API and cross-module consistency:
 * each table's entry point produces complete, internally consistent
 * data matching the lower-level modules it is built on.
 */

#include <gtest/gtest.h>

#include "core/study.hh"
#include "cpu/primitive_costs.hh"
#include "sim/parallel/parallel_runner.hh"
#include "arch/machines.hh"

namespace aosd
{
namespace
{

TEST(Study, PrimitivesCoverEveryMachineAndPrimitive)
{
    auto rows = Study::primitives();
    EXPECT_EQ(rows.size(), allMachines().size() * 4u);
    for (const auto &r : rows) {
        EXPECT_GT(r.simMicros, 0.0) << r.machineName;
        EXPECT_GT(r.simInstructions, 0u) << r.machineName;
        EXPECT_GT(r.relativeToCvax, 0.0);
    }
}

TEST(Study, PrimitivesMatchCostDb)
{
    const PrimitiveCostDb &db = sharedCostDb();
    for (const auto &r : Study::primitives()) {
        EXPECT_DOUBLE_EQ(r.simMicros, db.micros(r.machine,
                                                r.primitive));
        EXPECT_EQ(r.simInstructions,
                  db.instructions(r.machine, r.primitive));
    }
}

TEST(Study, SyscallAnatomySumsToSyscallTime)
{
    const PrimitiveCostDb &db = sharedCostDb();
    ParallelRunner serial(1);
    const auto rows = Study::syscallAnatomy(serial);
    for (MachineId id :
         {MachineId::CVAX, MachineId::R2000, MachineId::SPARC}) {
        double total = 0;
        for (const auto &r : rows)
            if (r.machine == id)
                total += r.simMicros;
        EXPECT_NEAR(total, db.micros(id, Primitive::NullSyscall), 0.01)
            << static_cast<int>(id);
    }
}

TEST(Study, ThreadStateMatchesTable6)
{
    auto rows = Study::threadState();
    ASSERT_EQ(rows.size(), 6u);
    // Spot-check the SPARC row.
    bool found = false;
    for (const auto &r : rows) {
        if (r.machine != MachineId::SPARC)
            continue;
        found = true;
        EXPECT_EQ(r.registers, 136u);
        EXPECT_EQ(r.fpState, 32u);
        EXPECT_EQ(r.miscState, 6u);
    }
    EXPECT_TRUE(found);
}

TEST(Study, SrcRpcDefaultsToCvaxSmallPacket)
{
    RpcBreakdown b = Study::srcRpc();
    EXPECT_GT(b.totalUs(), 500.0);
    EXPECT_LT(b.totalUs(), 1500.0);
}

TEST(Study, LrpcDefaultsToCvax)
{
    LrpcBreakdown b = Study::lrpc();
    EXPECT_NEAR(b.totalUs(), 157.0, 30.0);
}

TEST(Study, MachStudyProducesFourteenRows)
{
    ParallelRunner serial(1);
    auto rows = Study::machStudy(MachineId::R3000, serial);
    EXPECT_EQ(rows.size(), 14u);
    int mono = 0, micro = 0;
    for (const auto &r : rows) {
        if (r.structure == OsStructure::Monolithic)
            ++mono;
        else
            ++micro;
    }
    EXPECT_EQ(mono, 7);
    EXPECT_EQ(micro, 7);
}

TEST(Study, MachRowMatchesStandaloneRun)
{
    Table7Row a = Study::machRow("latex-150", OsStructure::Monolithic);
    Table7Row b = Study::machRow("latex-150", OsStructure::Monolithic);
    EXPECT_EQ(a.systemCalls, b.systemCalls);
    EXPECT_EQ(a.kernelTlbMisses, b.kernelTlbMisses);
}

TEST(SharedCostDb, IsASingleton)
{
    EXPECT_EQ(&sharedCostDb(), &sharedCostDb());
}

TEST(SharedCostDb, MachineLookupReturnsRightDesc)
{
    EXPECT_EQ(sharedCostDb().machine(MachineId::SPARC).name, "SPARC");
    EXPECT_EQ(sharedCostDb().machine(MachineId::CVAX).id,
              MachineId::CVAX);
}

} // namespace
} // namespace aosd
