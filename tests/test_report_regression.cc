/**
 * @file
 * The CI regression gate: rebuild every figure of the report and diff
 * it against the checked-in snapshot tests/expected_report.json.
 *
 * Any change that moves a simulated figure — a handler-program edit, a
 * timing-model tweak, a TLB policy change — fails here until the
 * snapshot is regenerated on purpose:
 *
 *   build/tools/aosd_report --json tests/expected_report.json
 *
 * which makes every behavioural change to the simulation visible in
 * review as a report diff.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/parallel/parallel_runner.hh"
#include "study/figures.hh"
#include "study/report.hh"
#include "study/timeseries_report.hh"

using namespace aosd;

namespace
{

std::string
snapshotPath()
{
    return std::string(AOSD_SOURCE_DIR) +
           "/tests/expected_report.json";
}

Json
loadSnapshot()
{
    std::ifstream in(snapshotPath());
    EXPECT_TRUE(in.good())
        << "missing " << snapshotPath()
        << " — regenerate with: aosd_report --json "
           "tests/expected_report.json";
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    Json doc = Json::parse(ss.str(), &err);
    EXPECT_TRUE(err.empty()) << "bad snapshot JSON: " << err;
    return doc;
}

} // namespace

TEST(ReportRegression, EveryFigureMatchesSnapshot)
{
    Json expected = loadSnapshot();
    if (expected.isNull())
        GTEST_SKIP() << "snapshot unreadable (failures above)";

    ParallelRunner serial(1);
    Json actual = buildReport(serial);
    std::vector<std::string> problems = diffReports(expected, actual);
    for (const std::string &p : problems)
        ADD_FAILURE() << p;
    if (!problems.empty())
        ADD_FAILURE()
            << problems.size()
            << " figure(s) drifted. If the change is intentional, "
               "regenerate the snapshot: aosd_report --json "
               "tests/expected_report.json";
}

TEST(ReportRegression, SampledGridGivesTheSameReport)
{
    // aosd_report --timeseries builds the report from the grid it
    // samples for timeseries.json; the report must not notice.
    ParallelRunner serial(1);
    ReportFigures sampled = reportFigures(
        serial, TimeseriesOptions{}.table7IntervalCycles);
    ASSERT_FALSE(sampled.grid.empty());
    EXPECT_FALSE(sampled.grid.front().timeseries.empty());
    EXPECT_EQ(buildReport(sampled.figures).dump(1),
              buildReport(serial).dump(1));
}

TEST(ReportRegression, SnapshotCoversRequiredTables)
{
    Json expected = loadSnapshot();
    if (expected.isNull())
        GTEST_SKIP() << "snapshot unreadable (failures above)";
    const Json &tables = expected.at("tables");
    for (const char *t : {"table1", "table2", "table4", "table5",
                          "table6", "table7"}) {
        ASSERT_TRUE(tables.has(t)) << "snapshot lost " << t;
        EXPECT_GT(tables.at(t).at("figures").size(), 0u) << t;
    }
}

TEST(ReportRegression, DiffDetectsDrift)
{
    // The gate must actually fire: perturb one figure and expect a
    // report.
    ParallelRunner serial(1);
    std::vector<Figure> figs = allFigures(serial);
    Json report = buildReport(figs);
    std::string doc = report.dump();
    Json same = Json::parse(doc);
    EXPECT_TRUE(diffReports(report, same).empty());

    ASSERT_FALSE(figs.empty());
    figs.front().sim *= 1.01; // 1% drift, far beyond tolerance
    Json drifted = buildReport(figs);
    std::vector<std::string> problems = diffReports(report, drifted);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("drifted"), std::string::npos);
}

TEST(ReportRegression, DiffDetectsMissingAndNewFigures)
{
    ParallelRunner serial(1);
    std::vector<Figure> figs = allFigures(serial);
    std::vector<Figure> fewer(figs.begin(), figs.end() - 1);
    Json full = buildReport(figs);
    Json partial = buildReport(fewer);

    std::vector<std::string> lost = diffReports(full, partial);
    ASSERT_FALSE(lost.empty());
    EXPECT_NE(lost.front().find("disappeared"), std::string::npos);

    std::vector<std::string> gained = diffReports(partial, full);
    ASSERT_FALSE(gained.empty());
    EXPECT_NE(gained.front().find("not in snapshot"),
              std::string::npos);
}
