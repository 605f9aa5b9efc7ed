/**
 * @file
 * The trend layer over the perf database: record building, metric
 * extraction, rolling statistics and the regression band (the
 * dashboard's history page renders them).
 *
 * sim/perfdb stores runs; this module makes them comparable. Every
 * stored document is flattened to stable dotted metric paths (the same
 * machinery as study/perfdiff, with friendlier names where the raw
 * layout is index-based):
 *
 *   report.table1.context_switch_us.SPARC     (figure id, not index)
 *   report.summary.mean_abs_rel_error
 *   counters.SPARC.context_switch.cycles_per_call
 *   kernel_windows.spellcheck_1.mach25.reconciliation.actual_cycles
 *   profile.machines.R3000.null_syscall.cycles_per_call
 *   timeseries.table7.cells.spellcheck_1.mach25.timeseries.cycles.mean
 *   spans.machines.R3000.null_syscall.cycles.p99
 *   bench.simperf.BM_ReportFull/real_time.real_time
 *
 * A metric's series is its value in every record that carries it,
 * oldest first. The regression band compares the newest value against
 * the rolling median of up to N prior values: flagged when
 *
 *   |latest - median| > max(rel_tol * |median|, 3 * MAD)
 *
 * i.e. a relative tolerance widened by the series' own observed noise
 * (median absolute deviation), so deterministic sim figures get the
 * tight band and wall-clock bench figures earn themselves slack.
 * Every flag names the offending record pair so aosd_bisect
 * --db/--from/--to can attribute the move to priced event classes.
 */

#ifndef AOSD_STUDY_TREND_REPORT_HH
#define AOSD_STUDY_TREND_REPORT_HH

#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/perfdiff.hh"

namespace aosd
{

/** Sources for one perfdb record; every pointer may be null. */
struct PerfDbRecordInputs
{
    const Json *report = nullptr;
    const Json *counters = nullptr;
    const Json *kernelWindows = nullptr;
    const Json *profile = nullptr;
    /** Raw timeseries.json; stored as a per-series digest. */
    const Json *timeseries = nullptr;
    /** Raw spans.json; stored with the exemplar span trees stripped
     *  so the record keeps the percentile and attribution figures. */
    const Json *spans = nullptr;
    /** Raw traffic.json; stored with the per-cell slowest-request
     *  exemplar arrays stripped, keeping the latency percentiles,
     *  throughput and reconciliation figures. */
    const Json *traffic = nullptr;
    /** (suite name, google-benchmark document) pairs. */
    std::vector<std::pair<std::string, const Json *>> bench;
};

/**
 * Build one schema-v1 record. Bench documents are normalized to
 * {benchmarks: {<name>: {real_time, cpu_time, time_unit}}} — the
 * run-local context block (date, load average) would make otherwise
 * identical runs differ byte-wise.
 */
Json buildPerfDbRecord(const std::string &commit,
                       const std::string &timestamp,
                       const std::string &host,
                       const std::string &buildFlags,
                       const PerfDbRecordInputs &in);

/** Every metric of one record as stable dotted paths (record order
 *  within each document, documents in stored order). */
std::vector<PerfLeaf> recordMetrics(const PerfDbRecord &rec);

/**
 * spans.json minus the per-request span trees: exemplars (and the
 * `spans` trees inside the ipc section) are shapes to look at, not
 * figures to band, and they would bloat every record. Percentiles,
 * drop counts and the tail-attribution numbers stay. Applied at
 * perfdb ingest.
 */
Json spansDigest(const Json &doc);

/**
 * traffic.json minus the per-cell slowest-request exemplar arrays:
 * like span exemplars, individual requests are shapes to look at, not
 * figures to band, and a record per commit must stay small. Applied
 * at perfdb ingest.
 */
Json trafficDigest(const Json &doc);

/** Machine-readable database inventory (aosd_trend list --json):
 *  {"records":[{"id","commit","timestamp","host","build_flags",
 *  "docs":[...]}, ...]} — what scripts and the dashboard's history
 *  page enumerate before exporting documents. */
Json buildTrendListDoc(const PerfDb &db);

/** One record's value of one metric. */
struct MetricPoint
{
    std::size_t recordIndex = 0; ///< position in the database
    std::string recordId;
    std::string commit;
    double value = 0;
};

/** A metric across the database, oldest record first. */
struct MetricSeries
{
    std::string metric;
    std::vector<MetricPoint> points;
};

/** The series of `metric`; `last` > 0 keeps only the newest N
 *  points. Metrics absent from a record simply skip that record. */
MetricSeries metricSeries(const PerfDb &db, const std::string &metric,
                          std::size_t last = 0);

/** Every metric path present anywhere in the database, sorted. */
std::vector<std::string> allMetrics(const PerfDb &db);

/** Rolling statistics of a series' values (oldest first): the newest
 *  value vs the median/MAD of up to `baselineWindow` prior values. */
struct RollingStats
{
    std::size_t baselinePoints = 0; ///< prior values actually used
    double latest = 0;
    double median = 0; ///< of the baseline window
    double mad = 0;    ///< median absolute deviation of the window
    double pctChange = 0; ///< 100 * (latest - median) / |median|
};

RollingStats rollingStats(const std::vector<double> &values,
                          std::size_t baselineWindow);

/** Series + rolling stats + per-point deltas as one JSON document
 *  (aosd_trend query --json). */
Json buildTrendQueryDoc(const PerfDb &db, const std::string &metric,
                        std::size_t last, std::size_t baselineWindow);

/** One metric outside its rolling band. */
struct TrendFlag
{
    std::string metric;
    double latest = 0;
    double median = 0;
    double mad = 0;
    double bandHalfWidth = 0; ///< max(rel_tol*|median|, 3*MAD)
    double pctChange = 0;
    /** The offending pair: newest in-band baseline record -> the
     *  flagged record. Feed straight to aosd_bisect --from/--to. */
    std::string fromId;
    std::string toId;
};

/** Result of checking every (filtered) metric. */
struct TrendCheckResult
{
    std::size_t metricsChecked = 0;
    /** Metrics with fewer than 2 baseline points (no band yet). */
    std::size_t metricsSkipped = 0;
    std::vector<TrendFlag> flags; ///< largest |pctChange| first

    bool ok() const { return flags.empty(); }
    Json toJson() const;
};

/**
 * Check the newest value of every metric against its rolling band.
 * `filter`/`skip` are comma-separated substring lists: a metric is
 * checked when it matches any `filter` entry (empty = all) and no
 * `skip` entry. Metrics missing from the newest record that carries
 * them are judged at their own newest point — a metric that stopped
 * being recorded is not an error, just stale.
 */
TrendCheckResult checkTrends(const PerfDb &db, double relTol,
                             std::size_t baselineWindow,
                             const std::string &filter = "",
                             const std::string &skip = "");

} // namespace aosd

#endif // AOSD_STUDY_TREND_REPORT_HH
