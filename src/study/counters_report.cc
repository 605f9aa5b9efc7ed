#include "study/counters_report.hh"

#include <functional>

#include "arch/machines.hh"
#include "sim/parallel/parallel_runner.hh"
#include "workload/os_model.hh"

namespace aosd
{

std::vector<CountedPrimitiveRun>
countAllPrimitives(const std::vector<MachineDesc> &machines,
                   unsigned reps, ParallelRunner &runner)
{
    std::vector<std::function<CountedPrimitiveRun()>> tasks;
    tasks.reserve(machines.size() * std::size(allPrimitives));
    for (const MachineDesc &m : machines)
        for (Primitive p : allPrimitives)
            tasks.push_back(
                [&m, p, reps] { return countPrimitive(m, p, reps); });
    return runner.map<CountedPrimitiveRun>(tasks);
}

Json
buildCountersDoc(const std::vector<CountedPrimitiveRun> &runs,
                 unsigned reps)
{
    Json doc = Json::object();
    doc.set("schema_version", 1);
    doc.set("generator", "aosd_counters");
    doc.set("repetitions", static_cast<std::uint64_t>(reps));

    Json machines_json = Json::object();
    const char *current = nullptr;
    Json machine_json;
    auto flush = [&]() {
        if (current)
            machines_json.set(current, std::move(machine_json));
    };
    for (const CountedPrimitiveRun &run : runs) {
        const char *slug = machineSlug(run.machine);
        if (!current || std::string(current) != slug) {
            flush();
            current = slug;
            machine_json = Json::object();
        }
        Json prim = run.toJson();
        // machine/primitive are the object path; drop the redundancy.
        Json cell = Json::object();
        cell.set("cycles", prim.at("cycles"));
        cell.set("cycles_per_call",
                 static_cast<double>(run.totalCycles) /
                     static_cast<double>(
                         run.repetitions ? run.repetitions : 1));
        cell.set("counters", prim.at("counters"));
        cell.set("reconciliation", prim.at("reconciliation"));
        machine_json.set(primitiveSlug(run.primitive),
                         std::move(cell));
    }
    flush();
    doc.set("machines", std::move(machines_json));
    return doc;
}

Json
buildKernelWindowsDoc(const MachineDesc &machine,
                      ParallelRunner &runner)
{
    OsModelConfig config;
    config.measureKernelWindow = true;
    std::vector<Table7Row> rows = runMachGrid(machine, runner, config);

    Json doc = Json::object();
    doc.set("schema_version", 1);
    doc.set("generator", "aosd_counters --kernel-windows");
    doc.set("machine", machineSlug(machine.id));
    Json cells = Json::object();
    for (const Table7Row &row : rows) {
        const char *os = row.structure == OsStructure::Monolithic
                             ? "mach25"
                             : "mach30";
        Json cell = Json::object();
        cell.set("elapsed_seconds", row.elapsedSeconds);
        cell.set("reconciliation", row.kernelWindow.toJson());
        cells.set(appSlug(row.app) + "." + os, std::move(cell));
    }
    doc.set("cells", std::move(cells));
    return doc;
}

} // namespace aosd
