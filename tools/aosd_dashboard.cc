/**
 * @file
 * aosd_dashboard: render the unified observability site from the
 * measurement documents of one run.
 *
 *   aosd_dashboard --out site \
 *     --report report.json --counters counters.json \
 *     --kernel-windows kernel_windows.json --profile profile.json \
 *     --spans spans.json --traffic open.json --traffic closed.json \
 *     --db perfdb.jsonl
 *
 * Every input is optional: missing documents render as "not
 * provided", so a partial run still gets a complete site. The output
 * is a self-contained multi-page static site (inline SVG/CSS, no
 * scripts, no external assets) plus manifest.json, byte-identical at
 * any --jobs value — CI cmp-gates --jobs 1 against --jobs 8 and the
 * no-batch/no-predecode input paths.
 *
 * The internal-link check always runs: a site with a dangling href or
 * anchor is refused (exit 1), not written.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/dashboard/dashboard.hh"

using namespace aosd;

int
main(int argc, char **argv)
{
    std::string out_dir;
    std::string report_path, counters_path, kw_path, profile_path,
        spans_path, db_path;
    std::vector<std::string> traffic_paths;
    unsigned jobs = 0;
    DashboardOptions opts;

    Cli cli("aosd_dashboard", "--out DIR [inputs] [options]",
            "every input is optional; a missing one renders as "
            "absent\n");
    cli.option("--out", "DIR", out_dir, "output directory (required)");
    cli.option("--report", "path", report_path,
               "report.json (aosd_report --json)");
    cli.option("--counters", "path", counters_path,
               "counters.json (aosd_counters --json)");
    cli.option("--kernel-windows", "path", kw_path,
               "kernel_windows.json (aosd_counters --kernel-windows)");
    cli.option("--profile", "path", profile_path,
               "profile.json (aosd_profile --json)");
    cli.option("--spans", "path", spans_path,
               "spans.json (aosd_spans --json)");
    cli.option("--traffic", "path", traffic_paths,
               "traffic.json (aosd_traffic --json); repeatable, one\n"
               "per sweep");
    cli.option("--db", "path", db_path, "perfdb.jsonl (aosd_trend ingest)");
    cli.jobs(jobs);
    cli.tolerance("--tol", opts.relTol,
                  "history rolling-band relative tolerance, 0.05 or\n"
                  "5% (default 0.05)");
    cli.option("--baseline", "N", opts.baselineWindow,
               "history rolling-band window (default 20)", 1);
    cli.option("--last", "N", opts.historyLast,
               "sparkline points per metric (default 50; 0 = all)");
    cli.option("--metrics-cap", "N", opts.historyCap,
               "per-metric rows on the history page (default 400;\n"
               "0 = unlimited)");
    cli.option("--filter", "list", opts.historyFilter,
               "comma-separated substring filter for history metrics");
    cli.option("--skip", "list", opts.historySkip,
               "comma-separated substring skip list");
    cli.parseOrExit(argc, argv);
    if (out_dir.empty())
        cli.fail("--out is required");

    // A truncated artifact must fail loudly, never render as a
    // half-empty site.
    Json report, counters, kernel_windows, profile, spans;
    std::vector<Json> traffic(traffic_paths.size());
    DashboardInputs in;
    if (!loadOptionalJson(report_path, report, in.report) ||
        !loadOptionalJson(counters_path, counters, in.counters) ||
        !loadOptionalJson(kw_path, kernel_windows, in.kernelWindows) ||
        !loadOptionalJson(profile_path, profile, in.profile) ||
        !loadOptionalJson(spans_path, spans, in.spans))
        return exitError;
    for (std::size_t i = 0; i < traffic_paths.size(); ++i) {
        if (!loadJsonFile(traffic_paths[i], traffic[i]))
            return exitError;
        in.traffic.push_back(&traffic[i]);
    }

    PerfDb db;
    if (!db_path.empty()) {
        std::string error;
        if (!db.load(db_path, &error)) {
            std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                         error.c_str());
            return exitError;
        }
        in.db = &db;
    }

    ParallelRunner runner(jobs);
    DashboardSite site = buildDashboardSite(in, opts, runner);

    std::vector<std::string> problems = validateDashboardLinks(site);
    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::fprintf(stderr, "link check: %s\n", p.c_str());
        std::fprintf(stderr,
                     "%zu dangling link(s); site not written\n",
                     problems.size());
        return 1;
    }

    std::string error;
    if (!writeDashboardSite(site, out_dir, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return exitError;
    }
    std::fprintf(stderr, "site -> %s (%zu pages + manifest.json)\n",
                 out_dir.c_str(), site.pages.size());
    return 0;
}
