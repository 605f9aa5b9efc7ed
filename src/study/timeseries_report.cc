#include "study/timeseries_report.hh"

#include <functional>
#include <utility>
#include <vector>

#include "arch/machines.hh"
#include "sim/parallel/parallel_runner.hh"
#include "workload/os_model.hh"
#include "workload/ref_trace.hh"
#include "workload/synapse.hh"

namespace aosd
{

namespace
{

Json
table7Section(std::vector<Table7Row> rows, const TimeseriesOptions &opts)
{
    Json cells = Json::object();
    for (const Table7Row &row : rows) {
        const char *os = row.structure == OsStructure::Monolithic
                             ? "mach25"
                             : "mach30";
        Json cell = Json::object();
        cell.set("elapsed_seconds", Json(row.elapsedSeconds));
        cell.set("os_primitive_share_pct",
                 Json(row.percentTimeInPrimitives));
        if (row.hasKernelWindow)
            cell.set("kernel_window", row.kernelWindow.toJson());
        cell.set("timeseries", row.timeseries.toJson());
        cells.set(appSlug(row.app) + "." + os, std::move(cell));
    }

    Json section = Json::object();
    section.set("machine", Json(machineSlug(opts.table7Machine)));
    section.set("interval_cycles", Json(opts.table7IntervalCycles));
    section.set("cells", std::move(cells));
    return section;
}

Json
refTraceSection(ParallelRunner &runner, const TimeseriesOptions &opts)
{
    const std::vector<MachineDesc> &machines = table1Machines();

    RefTraceConfig config;
    config.references = opts.refTraceReferences;
    config.samplingIntervalCycles = opts.refTraceIntervalCycles;

    std::vector<std::function<Json()>> tasks;
    tasks.reserve(machines.size());
    for (const MachineDesc &m : machines)
        tasks.push_back([&m, config] {
            RefTraceResult r = runRefTrace(m, config);
            Json cell = Json::object();
            cell.set("cycles", Json(r.cycles));
            cell.set("system_ref_share", Json(r.systemRefShare()));
            cell.set("system_miss_share",
                     Json(r.systemMissShare()));
            cell.set("timeseries", r.timeseries.toJson());
            return cell;
        });
    std::vector<Json> cells = runner.map<Json>(tasks);

    Json machines_json = Json::object();
    for (std::size_t i = 0; i < machines.size(); ++i)
        machines_json.set(machineSlug(machines[i].id),
                          std::move(cells[i]));

    Json section = Json::object();
    section.set("references", Json(opts.refTraceReferences));
    section.set("interval_cycles", Json(opts.refTraceIntervalCycles));
    section.set("machines", std::move(machines_json));
    return section;
}

Json
synapseSection(ParallelRunner &runner, const TimeseriesOptions &opts)
{
    MachineDesc machine = makeMachine(opts.synapseMachine);
    std::vector<SynapseRun> runs = synapseExperiments();

    std::vector<std::function<Json()>> tasks;
    tasks.reserve(runs.size());
    for (const SynapseRun &run : runs)
        tasks.push_back([&machine, run, &opts] {
            SynapseSimResult r = simulateSynapseRun(
                machine, run, opts.synapseSamples);
            Json cell = Json::object();
            cell.set("ratio", Json(r.priced.ratio));
            cell.set("call_cycles", Json(r.callCycles));
            cell.set("switch_cycles", Json(r.switchCycles));
            cell.set("total_cycles", Json(r.totalCycles));
            cell.set("switches_dominate",
                     Json(r.priced.switchesDominate()));
            cell.set("timeseries", r.timeseries.toJson());
            return cell;
        });
    std::vector<Json> cells = runner.map<Json>(tasks);

    Json runs_json = Json::object();
    for (std::size_t i = 0; i < runs.size(); ++i)
        runs_json.set(appSlug(runs[i].name), std::move(cells[i]));

    Json section = Json::object();
    section.set("machine", Json(machineSlug(opts.synapseMachine)));
    section.set("target_samples",
                Json(static_cast<std::uint64_t>(opts.synapseSamples)));
    section.set("runs", std::move(runs_json));
    return section;
}

} // namespace

Json
buildTimeseriesDoc(ParallelRunner &runner,
                   const TimeseriesOptions &opts)
{
    OsModelConfig config;
    config.samplingIntervalCycles = opts.table7IntervalCycles;
    config.measureKernelWindow = true;
    return buildTimeseriesDoc(
        runner,
        runMachGrid(makeMachine(opts.table7Machine), runner, config),
        opts);
}

Json
buildTimeseriesDoc(ParallelRunner &runner,
                   std::vector<Table7Row> table7Rows,
                   const TimeseriesOptions &opts)
{
    Json doc = Json::object();
    doc.set("schema_version", Json(timeseriesSchemaVersion));
    doc.set("generator", Json("aosd_report --timeseries"));
    doc.set("table7", table7Section(std::move(table7Rows), opts));
    doc.set("ref_trace", refTraceSection(runner, opts));
    doc.set("synapse", synapseSection(runner, opts));
    return doc;
}

} // namespace aosd
