/**
 * @file
 * Reproduces Table 5: where the null system call spends its time —
 * kernel entry/exit, call preparation, and the C call/return — on the
 * CVAX, R2000 and SPARC.
 *
 * The paper's points: the VAX pays in hardware (CHMK/REI microcode)
 * but is cheap once inside; the RISCs enter in under a microsecond but
 * burn the savings in software call preparation — the SPARC spends
 * ~30% of the whole call managing register windows.
 */

#include <cstdio>
#include <map>

#include "core/aosd.hh"
#include "sim/parallel/parallel_runner.hh"

using namespace aosd;

int
main()
{
    std::printf("Table 5: Time in Null System Call (microseconds)\n\n");

    const MachineId order[] = {MachineId::CVAX, MachineId::R2000,
                               MachineId::SPARC};
    const PhaseKind phases[] = {PhaseKind::KernelEntryExit,
                                PhaseKind::CallPrep,
                                PhaseKind::CCallReturn};

    ParallelRunner serial(1);
    auto rows = Study::syscallAnatomy(serial);
    auto find = [&](MachineId m, PhaseKind ph) {
        for (const auto &r : rows)
            if (r.machine == m && r.phase == ph)
                return r;
        return SyscallPhaseResult{};
    };

    TextTable t;
    t.header({"Function", "CVAX", "R2000", "SPARC"});
    double sim_total[3] = {0, 0, 0};
    for (PhaseKind ph : phases) {
        std::vector<std::string> sim{phaseName(ph)};
        std::vector<std::string> pap{"  (paper)"};
        int i = 0;
        for (MachineId m : order) {
            auto r = find(m, ph);
            sim_total[i++] += r.simMicros;
            sim.push_back(TextTable::num(r.simMicros, 1));
            pap.push_back(r.paperMicros < 0
                              ? "-"
                              : TextTable::num(r.paperMicros, 1));
        }
        t.row(sim);
        t.row(pap);
        t.separator();
    }
    t.row({"Total", TextTable::num(sim_total[0], 1),
           TextTable::num(sim_total[1], 1),
           TextTable::num(sim_total[2], 1)});
    t.row({"  (paper)", "15.8", "9.0", "15.2"});
    std::printf("%s\n", t.render().c_str());

    // The SPARC window-processing share called out in s2.3.
    const MachineDesc &sparc = sharedCostDb().machine(MachineId::SPARC);
    ExecModel exec(sparc);
    Cycles window = exec.runStream(sparcWindowSaveSeq(sparc)).cycles;
    Cycles total =
        sharedCostDb().cycles(MachineId::SPARC, Primitive::NullSyscall);
    std::printf("SPARC register-window processing: %.0f%% of the null "
                "system call (paper: ~30%%)\n",
                100.0 * static_cast<double>(window) /
                    static_cast<double>(total));
    return 0;
}
