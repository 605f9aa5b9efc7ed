/**
 * @file
 * Tests for counter-driven regression bisection: a synthetic
 * single-constant perturbation of a machine must come back named as
 * the top-ranked event class covering the bulk of the cycle delta, in
 * both counters.json and kernel-windows mode; report.json pairs fall
 * back to figure-level ranking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arch/machines.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/bisect.hh"
#include "study/counters_report.hh"

using namespace aosd;

namespace
{

class BisectTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }

    Json
    countersDocFor(const MachineDesc &machine)
    {
        ParallelRunner serial(1);
        std::vector<CountedPrimitiveRun> runs =
            countAllPrimitives({machine}, 4, serial);
        return buildCountersDoc(runs, 4);
    }
};

TEST_F(BisectTest, AblatedTrapCostIsTopRankedAndCoversTheDelta)
{
    MachineDesc base = makeMachine(MachineId::R3000);
    MachineDesc ablated = base;
    // The synthetic regression: every trap entry costs one more cycle.
    ablated.timing.trapEnterCycles += 1;

    Json old_doc = countersDocFor(base);
    Json new_doc = countersDocFor(ablated);
    BisectResult r = bisectCountersDocs(old_doc, new_doc);

    ASSERT_FALSE(r.findings.empty());
    EXPECT_GT(r.totalDelta, 0.0);
    // The perturbed event class is the #1 explanation...
    EXPECT_EQ(r.findings.front().eventClass, "trap_enters");
    // ... and dominant: summed over its cells it covers >= 80% of the
    // whole cycle delta (acceptance floor; here it is the only cause).
    double trap_share = 0;
    for (const BisectFinding &f : r.findings)
        if (f.eventClass == "trap_enters")
            trap_share += f.share;
    EXPECT_GE(trap_share, 0.8);
}

TEST_F(BisectTest, KernelWindowTlbRefillAblation)
{
    MachineDesc base = makeMachine(MachineId::R3000);
    MachineDesc ablated = base;
    // +1 cycle on the kernel-space TLB refill path (the ISSUE's
    // running example).
    ablated.tlb.swKernelMissCycles += 1;

    ParallelRunner runner(1);
    Json old_doc = buildKernelWindowsDoc(base, runner);
    Json new_doc = buildKernelWindowsDoc(ablated, runner);
    BisectResult r = bisectKernelWindowDocs(old_doc, new_doc);

    ASSERT_FALSE(r.findings.empty());
    EXPECT_GT(r.totalDelta, 0.0);
    EXPECT_EQ(r.findings.front().eventClass, "tlb_refill_cycles");
    double refill_share = 0;
    for (const BisectFinding &f : r.findings)
        if (f.eventClass == "tlb_refill_cycles")
            refill_share += f.share;
    EXPECT_GE(refill_share, 0.8);
}

TEST_F(BisectTest, ReportModeRanksFigureMoves)
{
    auto doc = [](double null_us, double ctx_us) {
        auto figure = [](const char *id, double sim) {
            Json f = Json::object();
            f.set("id", Json(id));
            f.set("unit", Json("us"));
            f.set("sim", Json(sim));
            return f;
        };
        Json figs = Json::array();
        figs.push(figure("null_syscall_us.R3000", null_us));
        figs.push(figure("context_switch_us.R3000", ctx_us));
        Json table = Json::object();
        table.set("figures", std::move(figs));
        Json tables = Json::object();
        tables.set("table1", std::move(table));
        Json d = Json::object();
        d.set("tables", std::move(tables));
        return d;
    };

    Json old_doc = doc(10.0, 100.0);
    Json new_doc = doc(10.5, 108.0);
    BisectResult r = bisectDocs(old_doc, new_doc);

    ASSERT_EQ(r.findings.size(), 2u);
    EXPECT_EQ(r.findings[0].unit, "table1.context_switch_us.R3000");
    EXPECT_EQ(r.findings[0].eventClass, "figure");
    EXPECT_DOUBLE_EQ(r.findings[0].delta, 8.0);
    EXPECT_NEAR(r.findings[0].share, 8.0 / 8.5, 1e-12);
    EXPECT_EQ(r.findings[1].unit, "table1.null_syscall_us.R3000");
}

TEST_F(BisectTest, IdenticalDocsProduceNoFindings)
{
    Json doc = countersDocFor(makeMachine(MachineId::CVAX));
    BisectResult r = bisectCountersDocs(doc, doc);
    EXPECT_TRUE(r.findings.empty());
    EXPECT_DOUBLE_EQ(r.totalDelta, 0.0);
    EXPECT_TRUE(r.notes.empty());
}

TEST_F(BisectTest, UnrecognizedDocumentsNoteAndReturnEmpty)
{
    Json empty = Json::object();
    BisectResult r = bisectDocs(empty, empty);
    EXPECT_TRUE(r.findings.empty());
    ASSERT_EQ(r.notes.size(), 1u);
}

TEST_F(BisectTest, ResultSerializes)
{
    MachineDesc base = makeMachine(MachineId::R2000);
    MachineDesc ablated = base;
    ablated.timing.trapEnterCycles += 2;
    BisectResult r = bisectCountersDocs(countersDocFor(base),
                                        countersDocFor(ablated));
    ASSERT_FALSE(r.findings.empty());

    Json j = r.toJson();
    EXPECT_EQ(j.at("generator").asString(), "aosd_bisect");
    EXPECT_DOUBLE_EQ(j.at("total_delta").asNumber(), r.totalDelta);
    ASSERT_EQ(j.at("findings").size(), r.findings.size());
    const Json &top = j.at("findings").at(0);
    EXPECT_EQ(top.at("event_class").asString(),
              r.findings.front().eventClass);
    EXPECT_DOUBLE_EQ(top.at("share").asNumber(),
                     r.findings.front().share);
}

} // namespace
