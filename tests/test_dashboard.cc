/**
 * @file
 * The unified observability site: byte-identical pages at any job
 * count, a structure manifest matching the committed golden, the
 * internal-link/anchor check (including a negative case), bisect
 * annotations on the history page for an injected regression, and
 * graceful rendering when inputs are absent.
 *
 * Inputs come from the committed goldens (report, counters, profile,
 * spans), an in-test kernel-windows and traffic build, and the
 * committed bench/baselines perf database — so the site the suite
 * gates is assembled from the same documents CI regenerates.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/counters_report.hh"
#include "study/dashboard/dashboard.hh"
#include "study/trend_report.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

std::string
sourcePath(const std::string &rel)
{
    return std::string(AOSD_SOURCE_DIR) + "/" + rel;
}

Json
loadJson(const std::string &rel)
{
    std::ifstream in(sourcePath(rel));
    EXPECT_TRUE(in) << "cannot read " << rel;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    Json doc = Json::parse(buf.str(), &error);
    EXPECT_TRUE(error.empty()) << rel << ": " << error;
    return doc;
}

/** The committed + in-test documents, built once per process: the
 *  kernel-windows and traffic builds are real simulations. */
struct SiteFixture
{
    Json report, counters, profile, spans, kernel_windows, traffic;
    PerfDb db;

    SiteFixture()
    {
        report = loadJson("tests/expected_report.json");
        counters = loadJson("tests/expected_counters.json");
        profile = loadJson("tests/expected_profile.json");
        spans = loadJson("tests/expected_spans.json");

        ParallelRunner runner(1);
        kernel_windows = buildKernelWindowsDoc(
            makeMachine(MachineId::R3000), runner);

        TrafficConfig cfg;
        cfg.requestsPerLevel = 400;
        cfg.levels = {0.5, 1.1};
        cfg.machines = {MachineId::CVAX, MachineId::R3000};
        traffic = buildTrafficDoc(cfg, runner);

        std::string error;
        EXPECT_TRUE(db.load(
            sourcePath("bench/baselines/perfdb.jsonl"), &error))
            << error;
    }

    DashboardInputs
    inputs() const
    {
        DashboardInputs in;
        in.report = &report;
        in.counters = &counters;
        in.kernelWindows = &kernel_windows;
        in.profile = &profile;
        in.spans = &spans;
        in.traffic = {&traffic};
        in.db = &db;
        return in;
    }
};

const SiteFixture &
fixture()
{
    static SiteFixture f;
    return f;
}

DashboardSite
buildSite(unsigned jobs)
{
    ParallelRunner runner(jobs);
    return buildDashboardSite(fixture().inputs(), DashboardOptions{},
                              runner);
}

class DashboardTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }
};

TEST_F(DashboardTest, SiteIsByteIdenticalAcrossJobs)
{
    DashboardSite serial = buildSite(1);
    DashboardSite fanned = buildSite(8);
    ASSERT_EQ(serial.pages.size(), fanned.pages.size());
    for (std::size_t i = 0; i < serial.pages.size(); ++i) {
        EXPECT_EQ(serial.pages[i].file, fanned.pages[i].file);
        EXPECT_EQ(serial.pages[i].html, fanned.pages[i].html)
            << serial.pages[i].file;
    }
    EXPECT_EQ(serial.manifest.dump(1), fanned.manifest.dump(1));
}

TEST_F(DashboardTest, ManifestMatchesCommittedGolden)
{
    // The golden pins the site's *structure* — page inventory,
    // anchor/link counts, input cell counts — not figure values,
    // so it survives timing retunes but trips on layout drift.
    // Refresh: run this test alone (gtest_filter on its name from
    // the build directory) and copy the printed manifest into
    // tests/expected_dashboard.json.
    DashboardSite site = buildSite(1);
    std::string want;
    {
        std::ifstream in(sourcePath("tests/expected_dashboard.json"));
        std::ostringstream buf;
        buf << in.rdbuf();
        want = buf.str();
    }
    std::string got = site.manifest.dump(1) + "\n";
    EXPECT_EQ(got, want) << "manifest drifted; if intentional, "
                            "refresh the golden:\n"
                         << got;
}

TEST_F(DashboardTest, EveryPageRendersEveryInput)
{
    DashboardSite site = buildSite(1);
    ASSERT_EQ(site.pages.size(), 5u);

    const std::string &overview = site.pages[0].html;
    // All gates green on golden inputs.
    EXPECT_EQ(overview.find("FAIL"), std::string::npos);
    EXPECT_NE(overview.find("PASS"), std::string::npos);

    const std::string &tables = site.pages[1].html;
    // Table 1 cells drill into the counters reconciliation.
    EXPECT_NE(tables.find("href=\"#ctr-R3000-null_syscall\""),
              std::string::npos);
    EXPECT_NE(tables.find("id=\"ctr-R3000-null_syscall\""),
              std::string::npos);
    // Table 7 rows drill into kernel windows (hyphenated workload
    // slugs map onto the underscore cell names).
    EXPECT_NE(tables.find("id=\"kw-spellcheck_1.mach25\""),
              std::string::npos);

    const std::string &latency = site.pages[2].html;
    // One chart per sweep machine with the queue-depth overlay.
    EXPECT_NE(latency.find("id=\"lat-open-uniform-CVAX\""),
              std::string::npos);
    EXPECT_NE(latency.find("id=\"lat-open-uniform-R3000\""),
              std::string::npos);
    EXPECT_NE(latency.find("max queue"), std::string::npos);

    const std::string &spans_page = site.pages[3].html;
    EXPECT_NE(spans_page.find("id=\"spans-R3000-null_syscall\""),
              std::string::npos);
    EXPECT_NE(spans_page.find("class=\"fn"), std::string::npos);

    const std::string &history = site.pages[4].html;
    EXPECT_NE(history.find("id=\"records\""), std::string::npos);
    // Per-metric sparkline rows render as inline SVG.
    EXPECT_NE(history.find("<svg"), std::string::npos);
}

TEST_F(DashboardTest, InternalLinksResolve)
{
    DashboardSite site = buildSite(1);
    std::vector<std::string> problems = validateDashboardLinks(site);
    EXPECT_TRUE(problems.empty())
        << problems.size() << " problem(s), first: " << problems[0];
}

TEST_F(DashboardTest, LinkCheckCatchesDanglingReferences)
{
    DashboardSite site = buildSite(1);
    site.pages[0].html +=
        "<a href=\"tables.html#no-such-anchor\">x</a>";
    site.pages[1].html += "<a href=\"missing.html\">y</a>";
    std::vector<std::string> problems = validateDashboardLinks(site);
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("no-such-anchor"), std::string::npos);
    EXPECT_NE(problems[1].find("missing.html"), std::string::npos);
}

TEST_F(DashboardTest, HistoryAnnotatesFlagsWithBisectFindings)
{
    // A database of healthy runs plus one run with an ablated trap
    // cost: the history page must flag the moved metrics and name
    // the injected event class in the bisect annotation — the same
    // walk as aosd_trend check + aosd_bisect, rendered.
    MachineDesc base = makeMachine(MachineId::R3000);
    MachineDesc ablated = base;
    ablated.timing.trapEnterCycles += 40;

    ParallelRunner serial(1);
    std::vector<CountedPrimitiveRun> healthy_runs =
        countAllPrimitives({base}, 4, serial);
    Json healthy = buildCountersDoc(healthy_runs, 4);
    std::vector<CountedPrimitiveRun> regressed_runs =
        countAllPrimitives({ablated}, 4, serial);
    Json regressed = buildCountersDoc(regressed_runs, 4);

    PerfDb db;
    for (int i = 0; i < 3; ++i) {
        PerfDbRecordInputs in;
        in.counters = &healthy;
        ASSERT_TRUE(db.append(buildPerfDbRecord(
            "good" + std::to_string(i), "t" + std::to_string(i),
            "h", "f", in)));
    }
    PerfDbRecordInputs in;
    in.counters = &regressed;
    ASSERT_TRUE(
        db.append(buildPerfDbRecord("bad", "t3", "h", "f", in)));

    DashboardInputs dash_in;
    dash_in.db = &db;
    ParallelRunner runner(1);
    DashboardSite site =
        buildDashboardSite(dash_in, DashboardOptions{}, runner);
    EXPECT_TRUE(validateDashboardLinks(site).empty());

    const std::string &history = site.pages[4].html;
    EXPECT_NE(history.find("bad@t3"), std::string::npos);
    EXPECT_NE(history.find("bisect:"), std::string::npos);
    EXPECT_NE(history.find("trap_enters"), std::string::npos);
    EXPECT_NE(history.find("FLAGGED"), std::string::npos);
    // The overview gate table reports the flags too.
    EXPECT_NE(site.pages[0].html.find("flag(s)"),
              std::string::npos);
    EXPECT_NE(site.pages[0].html.find("FAIL"), std::string::npos);
}

TEST_F(DashboardTest, AbsentInputsStillRenderACompleteSite)
{
    DashboardInputs in; // nothing provided
    ParallelRunner runner(1);
    DashboardSite site =
        buildDashboardSite(in, DashboardOptions{}, runner);
    ASSERT_EQ(site.pages.size(), 5u);
    EXPECT_TRUE(validateDashboardLinks(site).empty());
    for (const DashboardPage &p : site.pages)
        EXPECT_FALSE(p.html.empty()) << p.file;
    // The manifest records the absences.
    EXPECT_FALSE(site.manifest.at("inputs")
                     .at("report")
                     .at("present")
                     .asBool());
    EXPECT_FALSE(site.manifest.at("inputs")
                     .at("history")
                     .at("present")
                     .asBool());
    EXPECT_EQ(site.manifest.at("inputs").at("traffic").size(), 0u);
}

TEST_F(DashboardTest, WriteSiteEmitsPagesAndManifest)
{
    DashboardInputs in;
    ParallelRunner runner(1);
    DashboardSite site =
        buildDashboardSite(in, DashboardOptions{}, runner);

    std::string dir = ::testing::TempDir() + "aosd_dashboard_test";
    std::string error;
    ASSERT_TRUE(writeDashboardSite(site, dir, &error)) << error;
    for (const char *name :
         {"index.html", "tables.html", "latency.html", "spans.html",
          "history.html", "manifest.json"})
        EXPECT_TRUE(
            std::filesystem::exists(dir + "/" + name))
            << name;
    std::filesystem::remove_all(dir);
}

} // namespace
