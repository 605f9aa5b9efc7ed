#include "core/study.hh"

#include "arch/machines.hh"
#include "cpu/primitive_costs.hh"
#include "cpu/profiled_primitives.hh"
#include "os/threads/thread.hh"
#include "sim/parallel/parallel_runner.hh"
#include "workload/app_profile.hh"

namespace aosd
{

std::vector<PrimitiveResult>
Study::primitives()
{
    const PrimitiveCostDb &db = sharedCostDb();
    std::vector<PrimitiveResult> out;
    for (const MachineDesc &m : allMachines()) {
        for (Primitive p : allPrimitives) {
            PrimitiveResult r;
            r.machine = m.id;
            r.machineName = m.name;
            r.primitive = p;
            r.simMicros = db.micros(m.id, p);
            r.paperMicros = PaperPrimitiveData::microseconds(m.id, p);
            r.simInstructions = db.instructions(m.id, p);
            r.paperInstructions =
                PaperPrimitiveData::instructionCount(m.id, p);
            r.relativeToCvax = db.relativeToCvax(m.id, p);
            out.push_back(r);
        }
    }
    return out;
}

RpcBreakdown
Study::srcRpc(MachineId m, std::uint32_t arg_bytes,
              std::uint32_t result_bytes)
{
    SrcRpcModel model(sharedCostDb().machine(m));
    return model.roundTrip(arg_bytes, result_bytes);
}

LrpcBreakdown
Study::lrpc(MachineId m)
{
    LrpcModel model(sharedCostDb().machine(m));
    return model.nullCall();
}

std::vector<SyscallPhaseResult>
Study::syscallAnatomy(ParallelRunner &runner)
{
    // The anatomy is read off the cycle-attribution profiler rather
    // than assembled by hand: each phase row is the inclusive total of
    // the corresponding top-level node in the null-syscall attribution
    // tree, so Table 5 and profile.json can never disagree. One
    // profiled run per machine, fanned across the runner; rows are
    // assembled in machine order, so the output matches the serial
    // loop exactly.
    const PhaseKind phases[] = {PhaseKind::KernelEntryExit,
                                PhaseKind::CallPrep,
                                PhaseKind::CCallReturn};
    const std::vector<MachineDesc> &machines = allMachines();
    std::vector<std::function<ProfiledPrimitiveRun()>> tasks;
    tasks.reserve(machines.size());
    for (const MachineDesc &m : machines)
        tasks.push_back([&m] {
            return profilePrimitive(m, Primitive::NullSyscall);
        });
    std::vector<ProfiledPrimitiveRun> runs =
        runner.map<ProfiledPrimitiveRun>(tasks);

    std::vector<SyscallPhaseResult> out;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const MachineDesc &m = machines[i];
        for (PhaseKind ph : phases) {
            SyscallPhaseResult r;
            r.machine = m.id;
            r.machineName = m.name;
            r.phase = ph;
            r.simMicros =
                m.clock.cyclesToMicros(runs[i].phaseCycles(ph));
            r.paperMicros = PaperPrimitiveData::table5Micros(m.id, ph);
            out.push_back(r);
        }
    }
    return out;
}

std::vector<ThreadStateResult>
Study::threadState()
{
    std::vector<ThreadStateResult> out;
    for (const MachineDesc &m : table6Machines()) {
        ThreadStateResult r;
        r.machine = m.id;
        r.machineName = m.name;
        r.registers = m.intRegs;
        r.fpState = m.fpStateWords;
        r.miscState = m.miscStateWords;
        out.push_back(r);
    }
    return out;
}

std::vector<Table7Row>
Study::machStudy(MachineId m, ParallelRunner &runner)
{
    return runMachGrid(makeMachine(m), runner);
}

Table7Row
Study::machRow(const std::string &workload, OsStructure structure,
               MachineId m)
{
    MachSystem system(sharedCostDb().machine(m), structure);
    return system.run(workloadByName(workload));
}

} // namespace aosd
