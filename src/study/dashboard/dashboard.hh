/**
 * @file
 * The unified observability site: one deterministic static HTML site
 * fusing every measurement document the repo produces.
 *
 * The measurement substrate emits seven JSON documents (report,
 * counters, kernel windows, profile, timeseries, spans, traffic) plus
 * a rolling perf database, each with its own CLI front-end. This
 * module is the human-facing layer over all of them: a multi-page
 * static site — inline SVG and CSS only, no scripts, no external
 * assets — that a CI artifact store or GitHub Pages can serve as-is.
 *
 * Pages:
 *
 *   index.html    Overview: input inventory, headline figures vs the
 *                 paper, and the status of every reconciliation gate.
 *   tables.html   Tables 1/5/7 with per-cell drill-down into the
 *                 counters reconciliation terms and the profiler's
 *                 cycle-attribution anatomy.
 *   latency.html  Latency-vs-load curves per machine × arrival
 *                 pattern from traffic.json: p50/p90/p99/p999 on a
 *                 sqrt scale, queue-depth overlay, per-request-class
 *                 small multiples.
 *   spans.html    Tail attribution: per-cell percentiles, the
 *                 median-vs-p99 priced gap, and the slowest-request
 *                 exemplar span trees as flame-style nested bars.
 *   history.html  The perfdb trajectory: record inventory, rolling-
 *                 band flags with bisect annotations (the flagged
 *                 pair's ranked event-class explanation), and
 *                 per-metric sparklines.
 *
 * Determinism contract: the site is a pure function of its inputs.
 * Identical documents render byte-identical pages at any --jobs
 * value (pages are built as independent tasks and merged in task
 * order), and since every input document is itself byte-identical
 * across batch/no-batch/no-predecode, so is the site. CI cmp-gates
 * both properties. All floating-point rendering uses printf and
 * IEEE-exact sqrt only — no libm transcendentals — so the bytes are
 * also machine-independent.
 */

#ifndef AOSD_STUDY_DASHBOARD_DASHBOARD_HH
#define AOSD_STUDY_DASHBOARD_DASHBOARD_HH

#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"

namespace aosd
{

inline constexpr int dashboardSchemaVersion = 1;

/** Input documents; every pointer may be null (its sections render
 *  as "not provided" so the page inventory is always complete). */
struct DashboardInputs
{
    const Json *report = nullptr;
    const Json *counters = nullptr;
    const Json *kernelWindows = nullptr;
    const Json *profile = nullptr;
    const Json *spans = nullptr;
    /** One traffic.json per sweep — typically one per arrival
     *  pattern; each is labelled from its own config block. */
    std::vector<const Json *> traffic;
    /** The rolling perf database (history page); may be null. */
    const PerfDb *db = nullptr;
};

struct DashboardOptions
{
    /** Rolling-band parameters for the history page (the same
     *  semantics as aosd_trend check). */
    double relTol = 0.05;
    std::size_t baselineWindow = 20;
    /** Sparkline points kept per metric, newest last. */
    std::size_t historyLast = 50;
    /** Per-metric sparkline rows on the history page.
     *  0 = unlimited. */
    std::size_t historyCap = 400;
    /** Substring filter/skip lists for history metrics (comma-
     *  separated, same semantics as aosd_trend). */
    std::string historyFilter;
    std::string historySkip;
};

/** One generated page. */
struct DashboardPage
{
    std::string file;  ///< "index.html"
    std::string title; ///< "Overview"
    std::string html;
};

/** The generated site: pages plus the machine-readable manifest that
 *  tests golden-gate (structure counts, not figure values). */
struct DashboardSite
{
    std::vector<DashboardPage> pages;
    Json manifest;
};

/** Build every page. Byte-identical output at any runner job count:
 *  pages are independent tasks merged in task-index order. */
DashboardSite buildDashboardSite(const DashboardInputs &in,
                                 const DashboardOptions &opts,
                                 ParallelRunner &runner);

/**
 * Internal-link/anchor check: every href that names a site page (or
 * a `#fragment` within one) must resolve to a generated file and an
 * existing `id`. Returns one message per dangling reference; empty
 * means the site is self-consistent. aosd_dashboard refuses to write
 * a site that fails this.
 */
std::vector<std::string>
validateDashboardLinks(const DashboardSite &site);

/** Write pages + manifest.json under `dir` (created if needed). */
bool writeDashboardSite(const DashboardSite &site,
                        const std::string &dir,
                        std::string *error = nullptr);

} // namespace aosd

#endif // AOSD_STUDY_DASHBOARD_DASHBOARD_HH
