/**
 * @file
 * aosd_spans: run the span-traced request study and report latency
 * percentiles, slowest-request exemplars and tail attribution.
 *
 *   aosd_spans                       # text summary to stdout
 *   aosd_spans --json                # spans.json to stdout
 *   aosd_spans --json spans.json     # ... to a file
 *   aosd_spans --perfetto trace.json # chrome://tracing export of the
 *                                    # exemplar span trees
 *   aosd_spans --jobs 8              # fan the cell grid over 8
 *                                    # worker threads
 *   aosd_spans --requests 200        # requests per (machine,
 *                                    # primitive) cell
 *   aosd_spans --top 5               # exemplars kept per cell
 *
 * spans.json is byte-identical at any --jobs value (CI cmp-gates
 * --jobs 1 against --jobs 8).
 */

#include <cstdio>
#include <string>

#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/span_report.hh"

using namespace aosd;

int
main(int argc, char **argv)
{
    bool json_out = false;
    std::string json_path;
    std::string perfetto_path;
    unsigned jobs = 0;
    SpanOptions opts;

    Cli cli("aosd_spans");
    cli.optionalValue("--json", "path", json_out, json_path,
                      "write spans.json (stdout when no path)");
    cli.option("--perfetto", "path", perfetto_path,
               "write a chrome://tracing export of the exemplar span\n"
               "trees");
    cli.jobs(jobs);
    cli.option("--requests", "N", opts.requestsPerPair,
               "span-traced requests per (machine, primitive) cell\n"
               "(default 1000)",
               1, 1000000);
    cli.option("--top", "K", opts.topK,
               "slowest-request exemplars per cell (default 3)");
    cli.option("--machines", "CSV", opts.machines,
               "machine slugs (default: the five Table 1 machines)");
    cli.parseOrExit(argc, argv);

    ParallelRunner runner(jobs);
    Json doc = buildSpansDoc(runner, opts);

    if (!perfetto_path.empty() &&
        !writeOutput(perfetto_path, spansPerfettoJson(doc), "perfetto"))
        return exitError;

    if (!json_out)
        std::fputs(spansTextSummary(doc).c_str(), stdout);
    else if (!writeOutput(json_path, doc.dump(1), "spans"))
        return exitError;
    return 0;
}
