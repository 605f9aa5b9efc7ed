/**
 * @file
 * Ablation A6 (§2.1): how RPC latency scales with CPU speed and
 * network bandwidth.
 *
 * The paper predicts that with 10-100x network improvements coming,
 * the floor under RPC latency will be the operating system primitives
 * (interrupts, thread management, byte copying/checksums), not the
 * wire. This bench sweeps both axes on the component model.
 */

#include <cstdio>

#include "core/aosd.hh"

using namespace aosd;

int
main()
{
    std::printf("Ablation: RPC scaling\n\n");

    const MachineDesc cvax = sharedCostDb().machine(MachineId::CVAX);

    std::printf("(1) CPU speed sweep (74-byte null RPC, CVAX "
                "components, 10 Mbit Ethernet):\n");
    TextTable t;
    t.header({"CPU factor", "latency us", "reduction %"});
    SrcRpcModel model(cvax);
    double base = model.nullRpc().totalUs();
    for (double f : {1.0, 2.0, 3.0, 5.0, 10.0}) {
        double us = model.scaledLatencyUs(74, 74, f);
        t.row({TextTable::num(f, 0) + "x", TextTable::num(us, 0),
               TextTable::num(100.0 * (base - us) / base, 0)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("(Schroeder-Burrows expected ~50%% from 3x; the "
                "non-scaling components cap it)\n\n");

    std::printf("(2) Network bandwidth sweep (1500-byte result, R3000 "
                "endpoints):\n");
    TextTable n;
    n.header({"link Mbit/s", "total us", "wire us", "wire %",
              "CPU-bound floor us"});
    for (double mbps : {10.0, 100.0, 1000.0}) {
        EthernetDesc link;
        link.mbps = mbps;
        SrcRpcModel mm(sharedCostDb().machine(MachineId::R3000), link);
        RpcBreakdown b = mm.roundTrip(74, 1500);
        n.row({TextTable::num(mbps, 0), TextTable::num(b.totalUs(), 0),
               TextTable::num(b.wireUs, 0),
               TextTable::num(b.percent(b.wireUs), 0),
               TextTable::num(b.cpuUs(), 0)});
    }
    std::printf("%s", n.render().c_str());
    std::printf("(s2.1: with 10-100x faster networks, the lower bound "
                "on RPC is the cost of\nOS primitives - interrupts, "
                "thread management, copies and checksums)\n\n");

    std::printf("(3) Where the floor is, per machine (100 Mbit "
                "link, null RPC):\n");
    TextTable f;
    f.header({"machine", "total us", "kernel+interrupt us",
              "copy+checksum us", "wire us"});
    for (const MachineDesc &m : allMachines()) {
        EthernetDesc link;
        link.mbps = 100.0;
        SrcRpcModel mm(m, link);
        RpcBreakdown b = mm.nullRpc();
        f.row({m.name, TextTable::num(b.totalUs(), 0),
               TextTable::num(b.kernelTransferUs + b.interruptUs +
                                  b.dispatchUs,
                              0),
               TextTable::num(b.checksumUs + b.copyUs, 0),
               TextTable::num(b.wireUs, 0)});
    }
    std::printf("%s", f.render().c_str());
    return 0;
}
