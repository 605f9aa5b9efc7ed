/**
 * @file
 * Tests for the IPC cost models: SRC RPC (Table 3), LRPC (Table 4),
 * checksum/marshal helpers.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/message.hh"
#include "os/ipc/rpc.hh"

namespace aosd
{
namespace
{

TEST(Checksum, ScalesWithBytes)
{
    MachineDesc m = makeMachine(MachineId::CVAX);
    EXPECT_GT(checksumCycles(m, 1500), 10 * checksumCycles(m, 74));
    EXPECT_EQ(checksumCycles(m, 0), 0u);
}

TEST(Checksum, UncachedIoBuffersCostMore)
{
    // s2.1: "a load (which on some RISCs will likely fetch from a
    // non-cached I/O buffer)".
    MachineDesc mips = makeMachine(MachineId::R3000);
    MachineDesc vax = makeMachine(MachineId::CVAX);
    EXPECT_TRUE(usesUncachedIoBuffers(mips));
    EXPECT_FALSE(usesUncachedIoBuffers(vax));
    // Per-word cost is higher through uncached space, even though the
    // MIPS is a much faster machine.
    EXPECT_GT(static_cast<double>(checksumCycles(mips, 1024)),
              1.2 * static_cast<double>(checksumCycles(vax, 1024)));
}

TEST(Rpc, ComponentsArePositiveAndSumToTotal)
{
    SrcRpcModel model(makeMachine(MachineId::CVAX));
    RpcBreakdown b = model.nullRpc();
    EXPECT_GT(b.clientStubUs, 0);
    EXPECT_GT(b.serverStubUs, 0);
    EXPECT_GT(b.kernelTransferUs, 0);
    EXPECT_GT(b.interruptUs, 0);
    EXPECT_GT(b.checksumUs, 0);
    EXPECT_GT(b.copyUs, 0);
    EXPECT_GT(b.wireUs, 0);
    double sum = b.clientStubUs + b.serverStubUs + b.kernelTransferUs +
                 b.interruptUs + b.checksumUs + b.copyUs +
                 b.dispatchUs + b.controllerUs + b.wireUs;
    EXPECT_NEAR(sum, b.totalUs(), 1e-9);
    EXPECT_NEAR(b.percent(b.wireUs) + b.percent(b.totalUs() - b.wireUs),
                100.0, 1e-6);
}

TEST(Rpc, SmallPacketWireShareNearPaper)
{
    // Paper: ~17% of a small-packet SRC RPC is on the wire.
    SrcRpcModel model(makeMachine(MachineId::CVAX));
    RpcBreakdown b = model.nullRpc();
    double wire = b.percent(b.wireUs);
    EXPECT_GT(wire, 12.0);
    EXPECT_LT(wire, 25.0);
}

TEST(Rpc, LargePacketWireShareNearHalf)
{
    SrcRpcModel model(makeMachine(MachineId::CVAX));
    RpcBreakdown b = model.roundTrip(74, 1500);
    double wire = b.percent(b.wireUs);
    EXPECT_GT(wire, 35.0);
    EXPECT_LT(wire, 60.0);
}

TEST(Rpc, ChecksumShareGrowsWithPacketSize)
{
    SrcRpcModel model(makeMachine(MachineId::CVAX));
    RpcBreakdown small = model.nullRpc();
    RpcBreakdown large = model.roundTrip(74, 1500);
    EXPECT_GT(large.percent(large.checksumUs),
              1.5 * small.percent(small.checksumUs));
}

TEST(Rpc, CpuScalingFallsShortOfNaiveExpectation)
{
    // Tripling the CPU cannot cut latency by the CPU-share fraction
    // because copy/checksum are memory-paced (s2.1).
    SrcRpcModel model(makeMachine(MachineId::CVAX));
    double base = model.nullRpc().totalUs();
    double scaled = model.scaledLatencyUs(74, 74, 3.0);
    double reduction = (base - scaled) / base;
    EXPECT_GT(reduction, 0.15);
    EXPECT_LT(reduction, 0.55); // below the naive ~55%
    // Monotone in the factor.
    EXPECT_LT(model.scaledLatencyUs(74, 74, 10.0), scaled);
    // Never below the wire+memory floor.
    RpcBreakdown b = model.nullRpc();
    EXPECT_GE(model.scaledLatencyUs(74, 74, 1000.0),
              b.wireUs + b.controllerUs);
}

TEST(Rpc, SpriteObservationSun3ToSparc)
{
    // s2.1: Sprite's null RPC only halved from the Sun-3/75 to a
    // SPARCstation-1 despite ~5x the integer performance.
    MachineDesc sun3 = makeMachine(MachineId::SUN3);
    MachineDesc sparc = makeMachine(MachineId::SPARC);
    double integer_gain = sparc.appPerfVsCvax / sun3.appPerfVsCvax;
    EXPECT_NEAR(integer_gain, 5.0, 2.0);
    double rpc_gain = SrcRpcModel(sun3).nullRpc().totalUs() /
                      SrcRpcModel(sparc).nullRpc().totalUs();
    EXPECT_GT(rpc_gain, 1.2);
    EXPECT_LT(rpc_gain, 3.2);
    EXPECT_LT(rpc_gain, 0.65 * integer_gain);
}

TEST(Rpc, RpcSpeedupLagsIntegerSpeedup)
{
    // The Sprite observation (s2.1): RPC gains a fraction of the
    // integer gain.
    SrcRpcModel cvax(makeMachine(MachineId::CVAX));
    double base = cvax.nullRpc().totalUs();
    for (MachineId id : {MachineId::R2000, MachineId::R3000,
                         MachineId::SPARC}) {
        MachineDesc m = makeMachine(id);
        SrcRpcModel model(m);
        double speedup = base / model.nullRpc().totalUs();
        EXPECT_LT(speedup, 0.6 * m.appPerfVsCvax) << m.name;
        EXPECT_GE(speedup, 0.9) << m.name;
    }
}

TEST(Rpc, FasterNetworkShrinksWireOnly)
{
    EthernetDesc slow, fast;
    slow.mbps = 10;
    fast.mbps = 100;
    MachineDesc m = makeMachine(MachineId::R3000);
    RpcBreakdown bs = SrcRpcModel(m, slow).roundTrip(74, 1500);
    RpcBreakdown bf = SrcRpcModel(m, fast).roundTrip(74, 1500);
    EXPECT_NEAR(bf.wireUs, bs.wireUs / 10.0, 1.0);
    EXPECT_NEAR(bf.cpuUs(), bs.cpuUs(), 1e-6);
}

// ---- LRPC ------------------------------------------------------------

TEST(Lrpc, CvaxNullCallNearPaper)
{
    LrpcModel model(makeMachine(MachineId::CVAX));
    LrpcBreakdown b = model.nullCall();
    // Paper: ~157 us total, ~109 us hardware minimum, ~25% TLB.
    EXPECT_NEAR(b.totalUs(), 157.0, 25.0);
    EXPECT_NEAR(b.tlbPercent(), 25.0, 7.0);
    EXPECT_LT(b.hardwareMinimumUs(), b.totalUs());
    EXPECT_GT(b.hardwareMinimumUs(), 0.6 * b.totalUs());
}

TEST(Lrpc, TaggedTlbMachinesLoseNothingToTlbMisses)
{
    for (MachineId id : {MachineId::R2000, MachineId::R3000,
                         MachineId::SPARC, MachineId::RS6000}) {
        LrpcModel model(makeMachine(id));
        EXPECT_EQ(model.steadyStateTlbMisses(), 0u)
            << makeMachine(id).name;
        EXPECT_DOUBLE_EQ(model.nullCall().tlbMissUs, 0.0);
    }
}

TEST(Lrpc, UntaggedTlbMachinesRefillEveryTrip)
{
    for (MachineId id :
         {MachineId::CVAX, MachineId::M88000, MachineId::I860}) {
        LrpcModel model(makeMachine(id));
        EXPECT_GT(model.steadyStateTlbMisses(), 10u)
            << makeMachine(id).name;
    }
}

TEST(Lrpc, MissesScaleWithWorkingSets)
{
    LrpcConfig small_cfg;
    small_cfg.clientWorkingSetPages = 4;
    small_cfg.serverWorkingSetPages = 4;
    LrpcConfig big_cfg;
    big_cfg.clientWorkingSetPages = 12;
    big_cfg.serverWorkingSetPages = 12;
    MachineDesc cvax = makeMachine(MachineId::CVAX);
    EXPECT_GT(LrpcModel(cvax, big_cfg).steadyStateTlbMisses(),
              LrpcModel(cvax, small_cfg).steadyStateTlbMisses());
}

TEST(Lrpc, KernelPathDominatesOnAllMachines)
{
    // Table 4's structural claim: the kernel-mediated part (entries +
    // switches + TLB) dwarfs the stubs.
    for (const MachineDesc &m : allMachines()) {
        LrpcBreakdown b = LrpcModel(m).nullCall();
        EXPECT_GT(b.hardwareMinimumUs(), b.stubUs + b.argCopyUs)
            << m.name;
    }
}

TEST(Lrpc, SparcIsSlowestRiscForLrpc)
{
    // The context-switch-heavy LRPC path hits the SPARC's weakness.
    double sparc =
        LrpcModel(makeMachine(MachineId::SPARC)).nullCall().totalUs();
    for (MachineId id : {MachineId::R2000, MachineId::R3000,
                         MachineId::RS6000}) {
        EXPECT_GT(sparc,
                  LrpcModel(makeMachine(id)).nullCall().totalUs());
    }
}

} // namespace
} // namespace aosd
