/**
 * @file
 * The trend layer over the perf database: stable metric paths,
 * rolling-band regression detection (a synthetic 3%-per-run drift
 * must flag against a 5% band once it leaves the rolling median),
 * ingest determinism across --jobs, agreement between aosd_trend
 * check and aosd_bisect on an injected regression, the committed
 * bench/baselines records, and the HTML dashboard.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/bisect.hh"
#include "study/counters_report.hh"
#include "study/trend_report.hh"

using namespace aosd;

namespace
{

/** A report doc with one figure "m.M" so records carry the metric
 *  "report.t.m.M" at `value`. */
Json
reportDocWith(double value)
{
    Json fig = Json::object();
    fig.set("id", Json("m.M"));
    fig.set("unit", Json("us"));
    fig.set("sim", Json(value));
    Json figs = Json::array();
    figs.push(std::move(fig));
    Json table = Json::object();
    table.set("figures", std::move(figs));
    Json tables = Json::object();
    tables.set("t", std::move(table));
    Json doc = Json::object();
    doc.set("tables", std::move(tables));
    return doc;
}

/** A db whose single metric walks through `values`, one per run. */
PerfDb
dbWithSeries(const std::vector<double> &values)
{
    PerfDb db;
    for (std::size_t i = 0; i < values.size(); ++i) {
        Json report = reportDocWith(values[i]);
        PerfDbRecordInputs in;
        in.report = &report;
        EXPECT_TRUE(db.append(buildPerfDbRecord(
            "c" + std::to_string(i), "t" + std::to_string(i), "h",
            "f", in)));
    }
    return db;
}

class TrendTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }

    Json
    countersDocFor(const MachineDesc &machine, unsigned reps = 4)
    {
        ParallelRunner serial(1);
        std::vector<CountedPrimitiveRun> runs =
            countAllPrimitives({machine}, reps, serial);
        return buildCountersDoc(runs, reps);
    }
};

TEST_F(TrendTest, RecordMetricsUseStableFigureAndMachinePaths)
{
    Json report = reportDocWith(3.5);
    Json counters = countersDocFor(makeMachine(MachineId::R3000));
    PerfDbRecordInputs in;
    in.report = &report;
    in.counters = &counters;
    PerfDbRecord rec(buildPerfDbRecord("c", "t", "h", "f", in));

    bool saw_figure = false, saw_counter = false;
    for (const PerfLeaf &leaf : recordMetrics(rec)) {
        // Figures are addressed by id, never by array index.
        EXPECT_EQ(leaf.path.find("figures"), std::string::npos)
            << leaf.path;
        if (leaf.path == "report.t.m.M") {
            saw_figure = true;
            EXPECT_DOUBLE_EQ(leaf.value, 3.5);
        }
        if (leaf.path == "counters.R3000.null_syscall.cycles_per_call")
            saw_counter = true;
        // Document metadata is not a metric.
        EXPECT_EQ(leaf.path.find("schema_version"),
                  std::string::npos)
            << leaf.path;
    }
    EXPECT_TRUE(saw_figure);
    EXPECT_TRUE(saw_counter);
}

TEST_F(TrendTest, IngestIsByteIdenticalAcrossJobs)
{
    std::vector<MachineDesc> machines = {
        makeMachine(MachineId::R3000), makeMachine(MachineId::SPARC)};

    ParallelRunner serial(1);
    std::vector<CountedPrimitiveRun> runs1 =
        countAllPrimitives(machines, 4, serial);
    Json doc1 = buildCountersDoc(runs1, 4);

    ParallelRunner fanned(8);
    std::vector<CountedPrimitiveRun> runs8 =
        countAllPrimitives(machines, 4, fanned);
    Json doc8 = buildCountersDoc(runs8, 4);

    PerfDbRecordInputs in1, in8;
    in1.counters = &doc1;
    in8.counters = &doc8;
    Json rec1 = buildPerfDbRecord("c", "t", "h", "f", in1);
    Json rec8 = buildPerfDbRecord("c", "t", "h", "f", in8);
    EXPECT_EQ(rec1.dump(), rec8.dump());
}

TEST_F(TrendTest, RollingStatsMedianMadAndPctChange)
{
    RollingStats s = rollingStats({10, 12, 11, 14, 20}, 10);
    EXPECT_EQ(s.baselinePoints, 4u);
    EXPECT_DOUBLE_EQ(s.latest, 20.0);
    EXPECT_DOUBLE_EQ(s.median, 11.5);   // of {10, 12, 11, 14}
    EXPECT_DOUBLE_EQ(s.mad, 1.0);       // |dev| = {1.5, .5, .5, 2.5}
    EXPECT_NEAR(s.pctChange, 100.0 * 8.5 / 11.5, 1e-9);

    // The window is rolling: only the newest `baselineWindow` priors.
    RollingStats windowed = rollingStats({100, 1, 1, 1, 1}, 3);
    EXPECT_EQ(windowed.baselinePoints, 3u);
    EXPECT_DOUBLE_EQ(windowed.median, 1.0);
}

TEST_F(TrendTest, RollingBandFlagsASyntheticDriftSeries)
{
    // 3% compound drift: each step is under the 5% band, but the
    // newest value leaves the *rolling median* behind — exactly what
    // a per-pair diff gate misses and the trend check exists to
    // catch.
    std::vector<double> drift;
    double v = 100;
    for (int i = 0; i < 6; ++i) {
        drift.push_back(v);
        v *= 1.03;
    }
    PerfDb db = dbWithSeries(drift);
    TrendCheckResult r = checkTrends(db, 0.05, 20);
    ASSERT_EQ(r.flags.size(), 1u);
    EXPECT_EQ(r.flags[0].metric, "report.t.m.M");
    EXPECT_GT(r.flags[0].pctChange, 5.0);
    EXPECT_EQ(r.flags[0].toId, "c5@t5");

    // A flat series never flags...
    PerfDb flat = dbWithSeries({100, 100, 100, 100});
    EXPECT_TRUE(checkTrends(flat, 0.05, 20).ok());
    // ... and a wide band swallows the drift.
    EXPECT_TRUE(checkTrends(db, 0.5, 20).ok());
}

TEST_F(TrendTest, NoisySeriesEarnMadSlack)
{
    // The same +8 move: flagged against a quiet history, tolerated
    // against one whose MAD says +-8 is normal.
    PerfDb quiet = dbWithSeries({100, 100, 100, 100, 108});
    EXPECT_EQ(checkTrends(quiet, 0.05, 20).flags.size(), 1u);

    PerfDb noisy = dbWithSeries({100, 92, 108, 90, 110, 95, 108});
    EXPECT_TRUE(checkTrends(noisy, 0.05, 20).ok());
}

TEST_F(TrendTest, FewerThanTwoBaselinePointsAreSkipped)
{
    PerfDb db = dbWithSeries({100, 200});
    TrendCheckResult r = checkTrends(db, 0.05, 20);
    EXPECT_EQ(r.metricsChecked, 0u);
    EXPECT_EQ(r.metricsSkipped, 1u);
    EXPECT_TRUE(r.ok());
}

TEST_F(TrendTest, FilterAndSkipSelectMetrics)
{
    PerfDb db = dbWithSeries({100, 100, 100, 150});
    EXPECT_EQ(checkTrends(db, 0.05, 20, "report.").flags.size(), 1u);
    EXPECT_TRUE(checkTrends(db, 0.05, 20, "counters.").ok());
    EXPECT_TRUE(checkTrends(db, 0.05, 20, "", "report.").ok());
}

TEST_F(TrendTest, CheckAndBisectNameTheSameCause)
{
    // The acceptance walk: a DB of healthy runs plus one regressed
    // run. aosd_trend check must flag the moved counter metrics and
    // hand back the offending record pair; aosd_bisect on that same
    // pair must attribute the move to the ablated event class.
    MachineDesc base = makeMachine(MachineId::R3000);
    MachineDesc ablated = base;
    ablated.timing.trapEnterCycles += 40; // >> 5% on null_syscall

    Json healthy = countersDocFor(base);
    Json regressed = countersDocFor(ablated);

    PerfDb db;
    for (int i = 0; i < 3; ++i) {
        PerfDbRecordInputs in;
        in.counters = &healthy;
        ASSERT_TRUE(db.append(buildPerfDbRecord(
            "good" + std::to_string(i), "t" + std::to_string(i), "h",
            "f", in)));
    }
    PerfDbRecordInputs in;
    in.counters = &regressed;
    ASSERT_TRUE(
        db.append(buildPerfDbRecord("bad", "t3", "h", "f", in)));

    TrendCheckResult r = checkTrends(db, 0.05, 20);
    ASSERT_FALSE(r.flags.empty());
    bool flagged_cycles = false;
    for (const TrendFlag &f : r.flags) {
        EXPECT_EQ(f.toId, "bad@t3");
        EXPECT_EQ(f.fromId, "good2@t2");
        if (f.metric.rfind("counters.R3000.", 0) == 0 &&
            f.metric.find("cycles_per_call") != std::string::npos)
            flagged_cycles = true;
    }
    EXPECT_TRUE(flagged_cycles);

    // The flagged pair, resolved through the database, bisects to
    // the same cause the ablation injected.
    const PerfDbRecord *from = db.resolve(r.flags[0].fromId);
    const PerfDbRecord *to = db.resolve(r.flags[0].toId);
    ASSERT_NE(from, nullptr);
    ASSERT_NE(to, nullptr);
    BisectResult b = bisectCountersDocs(*from->doc("counters"),
                                        *to->doc("counters"));
    ASSERT_FALSE(b.findings.empty());
    EXPECT_EQ(b.findings.front().eventClass, "trap_enters");
}

TEST_F(TrendTest, QueryDocCarriesSeriesDeltasAndRollingStats)
{
    PerfDb db = dbWithSeries({10, 11, 12});
    Json doc = buildTrendQueryDoc(db, "report.t.m.M", 0, 20);
    EXPECT_EQ(doc.at("metric").asString(), "report.t.m.M");
    ASSERT_EQ(doc.at("points").size(), 3u);
    const Json &second = doc.at("points").at(1);
    EXPECT_EQ(second.at("record").asString(), "c1@t1");
    EXPECT_DOUBLE_EQ(second.at("delta").asNumber(), 1.0);
    EXPECT_NEAR(second.at("delta_pct").asNumber(), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(
        doc.at("rolling").at("median").asNumber(), 10.5);

    // --last trims from the old end.
    Json trimmed = buildTrendQueryDoc(db, "report.t.m.M", 2, 20);
    ASSERT_EQ(trimmed.at("points").size(), 2u);
    EXPECT_EQ(trimmed.at("points").at(0).at("record").asString(),
              "c1@t1");
}

TEST_F(TrendTest, MetricSeriesSkipsRecordsWithoutTheMetric)
{
    PerfDb db = dbWithSeries({1, 2});
    Json counters = countersDocFor(makeMachine(MachineId::R3000));
    PerfDbRecordInputs in;
    in.counters = &counters;
    ASSERT_TRUE(
        db.append(buildPerfDbRecord("c2", "t2", "h", "f", in)));

    MetricSeries s = metricSeries(db, "report.t.m.M");
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.points[1].recordId, "c1@t1");
}

TEST_F(TrendTest, CommittedBaselinesLoadAndMatchTheSimulator)
{
    PerfDb db;
    std::string error;
    ASSERT_TRUE(db.load(std::string(AOSD_SOURCE_DIR) +
                            "/bench/baselines/perfdb.jsonl",
                        &error))
        << error;
    ASSERT_GE(db.size(), 3u); // the trend DB is non-empty on day one

    // Every committed record validates, and the bench trajectory
    // exists.
    bool has_bench = false;
    for (const PerfDbRecord &rec : db.records()) {
        EXPECT_EQ(PerfDb::validateRecord(rec.json()), "");
        if (rec.doc("bench.simperf"))
            has_bench = true;
    }
    EXPECT_TRUE(has_bench);

    // The committed counters agree with the simulator as built: the
    // baseline refresh procedure (bench/baselines/README.md) keeps
    // these in lockstep with tests/expected_counters.json.
    const Json *counters = db.at(db.size() - 1).doc("counters");
    ASSERT_NE(counters, nullptr);
    unsigned reps = static_cast<unsigned>(
        counters->at("repetitions").asNumber());
    Json current =
        countersDocFor(makeMachine(MachineId::R3000), reps);
    const Json &committed_cell =
        counters->at("machines").at("R3000").at("null_syscall");
    const Json &current_cell =
        current.at("machines").at("R3000").at("null_syscall");
    EXPECT_EQ(committed_cell.at("cycles_per_call").asNumber(),
              current_cell.at("cycles_per_call").asNumber());

    // And a freshly appended identical run raises no flags.
    PerfDbRecordInputs in;
    in.counters = &current;
    ASSERT_TRUE(
        db.append(buildPerfDbRecord("now", "t-now", "h", "f", in)));
    TrendCheckResult r =
        checkTrends(db, 0.05, 20, "counters.R3000.");
    EXPECT_TRUE(r.ok()) << (r.flags.empty()
                                ? ""
                                : r.flags[0].metric);
}

TEST_F(TrendTest, AllEqualSeriesHasZeroMadAndNeverFlags)
{
    // A perfectly deterministic metric: MAD is exactly 0, so the
    // band collapses to the relative tolerance alone. No division
    // by zero, no spurious flag.
    RollingStats s = rollingStats({250, 250, 250, 250, 250}, 20);
    EXPECT_DOUBLE_EQ(s.mad, 0.0);
    EXPECT_DOUBLE_EQ(s.median, 250.0);
    EXPECT_DOUBLE_EQ(s.pctChange, 0.0);
    EXPECT_TRUE(
        checkTrends(dbWithSeries({250, 250, 250, 250, 250}), 0.05,
                    20)
            .ok());

    // ... and a move just past the tolerance still flags, i.e. the
    // zero MAD does not widen the band.
    EXPECT_EQ(checkTrends(dbWithSeries({250, 250, 250, 265}), 0.05,
                          20)
                  .flags.size(),
              1u);

    // A single-point series has no baseline: skipped, not flagged,
    // and the stats stay finite.
    RollingStats single = rollingStats({42}, 20);
    EXPECT_EQ(single.baselinePoints, 0u);
    EXPECT_DOUBLE_EQ(single.latest, 42.0);
    TrendCheckResult r = checkTrends(dbWithSeries({42}), 0.05, 20);
    EXPECT_EQ(r.metricsChecked, 0u);
    EXPECT_EQ(r.metricsSkipped, 1u);
    EXPECT_TRUE(r.ok());

    // An all-zero series: |median| = 0 makes the relative band
    // empty, but an unchanged latest value must still pass.
    EXPECT_TRUE(
        checkTrends(dbWithSeries({0, 0, 0, 0}), 0.05, 20).ok());
}

TEST_F(TrendTest, DigestsStripExemplarsAndKeepFigures)
{
    Json spans = Json::object();
    {
        Json cell = Json::object();
        Json cycles = Json::object();
        cycles.set("p99", Json(1900));
        cell.set("cycles", std::move(cycles));
        Json ex = Json::array();
        ex.push(Json("tree"));
        cell.set("exemplars", std::move(ex));
        Json prims = Json::object();
        prims.set("null_syscall", std::move(cell));
        Json machines = Json::object();
        machines.set("R3000", std::move(prims));
        spans.set("machines", std::move(machines));
    }
    Json sd = spansDigest(spans);
    EXPECT_EQ(sd.at("machines")
                  .at("R3000")
                  .at("null_syscall")
                  .at("cycles")
                  .at("p99")
                  .asNumber(),
              1900);
    EXPECT_EQ(sd.at("machines")
                  .at("R3000")
                  .at("null_syscall")
                  .find("exemplars"),
              nullptr);

    Json traffic = Json::object();
    {
        Json level = Json::object();
        level.set("load", Json(0.9));
        Json slow = Json::array();
        slow.push(Json("req"));
        level.set("slowest_requests", std::move(slow));
        traffic.set("cell", std::move(level));
    }
    Json td = trafficDigest(traffic);
    EXPECT_DOUBLE_EQ(td.at("cell").at("load").asNumber(), 0.9);
    EXPECT_EQ(td.at("cell").find("slowest_requests"), nullptr);

    // Documents without the stripped keys pass through unchanged —
    // including empty containers.
    Json empty = Json::object();
    empty.set("machines", Json::array());
    EXPECT_EQ(trafficDigest(empty).dump(), empty.dump());
    EXPECT_EQ(spansDigest(empty).dump(), empty.dump());
}

TEST_F(TrendTest, TrendListDocInventoriesTheDatabase)
{
    PerfDb db = dbWithSeries({1, 2});
    Json doc = buildTrendListDoc(db);
    EXPECT_EQ(doc.at("schema_version").asNumber(), 1);
    ASSERT_EQ(doc.at("records").size(), 2u);
    const Json &first = doc.at("records").at(0);
    EXPECT_EQ(first.at("id").asString(), "c0@t0");
    EXPECT_EQ(first.at("commit").asString(), "c0");
    EXPECT_EQ(first.at("host").asString(), "h");
    ASSERT_EQ(first.at("docs").size(), 1u);
    EXPECT_EQ(first.at("docs").at(0).asString(), "report");

    EXPECT_EQ(buildTrendListDoc(PerfDb{}).at("records").size(), 0u);
}

} // namespace
