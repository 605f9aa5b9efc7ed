/**
 * @file
 * aosd_report: run every table/ablation computation and emit one
 * machine-readable report.
 *
 *   aosd_report                      # text summary to stdout
 *   aosd_report --json               # report.json to stdout
 *   aosd_report --json report.json   # ... to a file
 *   aosd_report --trace trace.json   # also write a chrome://tracing
 *                                    # timeline of the whole run
 *   aosd_report --stats stats.json   # also snapshot every StatGroup
 *   aosd_report --jobs 8             # fan the figure grid over 8
 *                                    # worker threads
 *   aosd_report --timeseries timeseries.json
 *                                    # also sample the long-running
 *                                    # workloads into per-interval
 *                                    # event-rate series
 *   aosd_report --spans spans.json   # also span-trace the request
 *                                    # study (latency percentiles +
 *                                    # tail attribution)
 *
 * The report covers Tables 1-7 plus the paper's headline prose
 * figures; every entry carries the simulated value, the paper's value
 * where the paper gives one, and the relative error. CI regenerates
 * the report on every commit and fails if any figure drifts from the
 * checked-in snapshot (tests/test_report_regression.cc).
 *
 * report.json is byte-identical at any --jobs value (CI diffs
 * --jobs 1 against --jobs 8); --trace forces --jobs 1 because the
 * timeline of one run interleaved across workers is not a timeline.
 */

#include <cstdio>
#include <string>
#include <utility>

#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/trace.hh"
#include "study/figures.hh"
#include "study/report.hh"
#include "study/span_report.hh"
#include "study/timeseries_report.hh"

using namespace aosd;

namespace
{

void
printTextSummary(const Json &report)
{
    std::printf("aosd_report: simulated figures vs the paper\n\n");
    for (const auto &tkv : report.at("tables").items()) {
        const Json &figs = tkv.second.at("figures");
        TextTable t;
        t.header({"figure", "unit", "sim", "paper", "rel err"});
        for (std::size_t i = 0; i < figs.size(); ++i) {
            const Json &f = figs.at(i);
            const Json *paper = f.find("paper");
            const Json *err = f.find("rel_error");
            t.row({f.at("id").asString(), f.at("unit").asString(),
                   TextTable::num(f.at("sim").asNumber(), 3),
                   paper ? TextTable::num(paper->asNumber(), 3) : "-",
                   err ? TextTable::num(100.0 * err->asNumber(), 1) +
                             "%"
                       : "-"});
        }
        std::printf("%s\n%s\n", tkv.first.c_str(),
                    t.render().c_str());
    }
    const Json &s = report.at("summary");
    std::printf("figures: %llu  with paper value: %llu\n",
                static_cast<unsigned long long>(
                    s.at("figures").asUint()),
                static_cast<unsigned long long>(
                    s.at("with_paper").asUint()));
    if (s.has("mean_abs_rel_error"))
        std::printf("mean |rel err|: %.1f%%   max |rel err|: %.1f%% "
                    "(%s)\n",
                    100.0 * s.at("mean_abs_rel_error").asNumber(),
                    100.0 * s.at("max_abs_rel_error").asNumber(),
                    s.at("worst_figure").asString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool json_out = false;
    std::string json_path, trace_path, stats_path, timeseries_path,
        spans_path;
    unsigned jobs = 0;

    Cli cli("aosd_report");
    cli.optionalValue("--json", "path", json_out, json_path,
                      "write report.json (stdout when no path)");
    cli.option("--trace", "path", trace_path,
               "write a chrome://tracing timeline (forces --jobs 1)");
    cli.option("--stats", "path", stats_path,
               "write a StatRegistry snapshot");
    cli.option("--timeseries", "path", timeseries_path,
               "sample the workloads and write timeseries.json\n"
               "(per-interval event rates)");
    cli.option("--spans", "path", spans_path,
               "span-trace the request study and write spans.json\n"
               "(latency percentiles, slowest-request exemplars,\n"
               "tail attribution)");
    cli.jobs(jobs);
    cli.parseOrExit(argc, argv);

    if (!trace_path.empty() && jobs != 1) {
        std::fprintf(stderr,
                     "--trace forces --jobs 1 (a timeline interleaved "
                     "across workers is not a timeline)\n");
        jobs = 1;
    }

    if (!trace_path.empty())
        Tracer::instance().enable(1 << 16);
    if (!stats_path.empty())
        StatRegistry::instance().setRetainRetired(true);

    ParallelRunner runner(jobs);
    if (!stats_path.empty())
        runner.setCollectStats(true);
    // One run of the Table 7 grid feeds the report and, with
    // --timeseries, the sampled table7 section too: arming the
    // sampler changes no figure.
    static_assert(timeseriesTable7Machine == MachineId::R3000,
                  "the timeseries table7 section reads the report grid");
    ReportFigures run = reportFigures(
        runner, timeseries_path.empty() ? 0
                                        : timeseriesTable7IntervalCycles);
    Json report = buildReport(run.figures);

    if (!timeseries_path.empty() &&
        !writeOutput(timeseries_path,
                     buildTimeseriesDoc(runner, std::move(run.grid))
                         .dump(1),
                     "timeseries"))
        return exitError;

    if (!spans_path.empty() &&
        !writeOutput(spans_path, buildSpansDoc(runner).dump(1),
                     "spans"))
        return exitError;

    if (!trace_path.empty()) {
        Tracer::instance().disable();
        if (!writeFile(trace_path,
                       Tracer::instance().exportChromeTracing()))
            return exitError;
        std::fprintf(stderr, "trace: %zu records (%llu dropped) -> %s\n",
                     Tracer::instance().size(),
                     static_cast<unsigned long long>(
                         Tracer::instance().dropped()),
                     trace_path.c_str());
    }

    if (!stats_path.empty() &&
        !writeFile(stats_path, StatRegistry::instance().toJson().dump(1)))
        return exitError;

    if (!json_out)
        printTextSummary(report);
    else if (!writeOutput(json_path, report.dump(1), "report"))
        return exitError;
    return 0;
}
