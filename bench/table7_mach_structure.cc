/**
 * @file
 * Reproduces Table 7: application reliance on operating system
 * primitives under a monolithic (Mach 2.5) vs a decomposed (Mach 3.0)
 * OS on the DECstation 5000/200 model.
 *
 * Every count is produced by the instrumented simulated kernel while
 * the same application profile executes against the two structure
 * models; paper values are printed alongside.
 */

#include <cstdio>

#include "core/aosd.hh"
#include "sim/parallel/parallel_runner.hh"

using namespace aosd;

namespace
{

void
printHalf(OsStructure s, const std::vector<Table7Row> &rows)
{
    std::printf("%s\n", osStructureName(s));
    TextTable t;
    t.header({"Application", "Time(s)", "AS switch", "Thr switch",
              "Syscalls", "Emul.instr", "K-TLB miss", "Other exc",
              "%OS prim"});
    for (const Table7Row &r : rows) {
        if (r.structure != s)
            continue;
        Table7Row paper = paperTable7Row(r.app, s);
        t.row({r.app, TextTable::num(r.elapsedSeconds, 1),
               TextTable::grouped(r.addressSpaceSwitches),
               TextTable::grouped(r.threadSwitches),
               TextTable::grouped(r.systemCalls),
               TextTable::grouped(r.emulatedInstructions),
               TextTable::grouped(r.kernelTlbMisses),
               TextTable::grouped(r.otherExceptions),
               s == OsStructure::SmallKernel
                   ? TextTable::num(r.percentTimeInPrimitives, 0) + "%"
                   : "-"});
        t.row({"  (paper)", TextTable::num(paper.elapsedSeconds, 1),
               TextTable::grouped(paper.addressSpaceSwitches),
               TextTable::grouped(paper.threadSwitches),
               TextTable::grouped(paper.systemCalls),
               TextTable::grouped(paper.emulatedInstructions),
               TextTable::grouped(paper.kernelTlbMisses),
               TextTable::grouped(paper.otherExceptions),
               s == OsStructure::SmallKernel && paper.elapsedSeconds > 0
                   ? TextTable::num(paper.percentTimeInPrimitives, 0) +
                         "%"
                   : "-"});
        t.separator();
    }
    std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main()
{
    std::printf("Table 7: Application Reliance on Operating System "
                "Primitives\n");
    std::printf("(simulated MIPS R3000 DECstation 5000/200; each row "
                "followed by the paper's)\n\n");

    ParallelRunner serial(1);
    auto rows = Study::machStudy(MachineId::R3000, serial);
    printHalf(OsStructure::Monolithic, rows);
    printHalf(OsStructure::SmallKernel, rows);

    // Headline structural ratios the paper calls out.
    double sw25 = 0, sw30 = 0;
    for (const Table7Row &r : rows) {
        if (r.app != "andrew-remote")
            continue;
        if (r.structure == OsStructure::Monolithic)
            sw25 = static_cast<double>(r.addressSpaceSwitches);
        else
            sw30 = static_cast<double>(r.addressSpaceSwitches);
    }
    std::printf("andrew-remote context-switch inflation (3.0/2.5): "
                "%.0fx (paper: ~33x)\n",
                sw30 / sw25);

    // s5: "the combination of Tables 1 and 7 indicates that a SPARC
    // would spend 9.4 seconds just in the overhead for system calls
    // and context switches in executing the remote Andrew script on
    // Mach 3.0."
    for (const Table7Row &r : rows) {
        if (r.app != "andrew-remote" ||
            r.structure != OsStructure::SmallKernel)
            continue;
        const PrimitiveCostDb &db = sharedCostDb();
        double sparc_s =
            (static_cast<double>(r.systemCalls) *
                 db.micros(MachineId::SPARC, Primitive::NullSyscall) +
             static_cast<double>(r.addressSpaceSwitches) *
                 db.micros(MachineId::SPARC,
                           Primitive::ContextSwitch)) /
            1e6;
        std::printf("SPARC syscall+switch overhead for andrew-remote "
                    "on Mach 3.0: %.1f s (paper: 9.4 s)\n",
                    sparc_s);
    }
    return 0;
}
