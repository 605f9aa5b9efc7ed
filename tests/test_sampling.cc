/**
 * @file
 * Tests for the periodic counter-sampling engine and its workload
 * wiring: off-by-default no-op behavior, ring-buffer drop semantics,
 * per-cell sample counts across the Table 7 grid, series JSON shape,
 * Perfetto counter tracks, byte-identical timeseries documents at any
 * job count, and the kernel-window cycles-explained cross-check.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/counters/counters.hh"
#include "sim/counters/reconcile.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/sampling/sampler.hh"
#include "sim/trace.hh"
#include "study/timeseries_report.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"
#include "workload/ref_trace.hh"
#include "workload/synapse.hh"

using namespace aosd;

namespace
{

/** Restore global sampler/counter/tracer state around each test. */
class SamplingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
    }

    void
    TearDown() override
    {
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        Tracer::instance().disable();
        Tracer::instance().clear();
    }
};

/** Every non-observer field of two rows, compared exactly. */
void
expectSameRow(const Table7Row &a, const Table7Row &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.structure, b.structure);
    EXPECT_EQ(a.elapsedSeconds, b.elapsedSeconds);
    EXPECT_EQ(a.addressSpaceSwitches, b.addressSpaceSwitches);
    EXPECT_EQ(a.threadSwitches, b.threadSwitches);
    EXPECT_EQ(a.systemCalls, b.systemCalls);
    EXPECT_EQ(a.emulatedInstructions, b.emulatedInstructions);
    EXPECT_EQ(a.kernelTlbMisses, b.kernelTlbMisses);
    EXPECT_EQ(a.otherExceptions, b.otherExceptions);
    EXPECT_EQ(a.percentTimeInPrimitives, b.percentTimeInPrimitives);
}

TEST_F(SamplingTest, OffByDefaultAndTickIsANoOp)
{
    EXPECT_FALSE(samplingEnabled());
    CounterSampler &s = CounterSampler::instance();
    // A tick with no session open must not record anything.
    s.tick(1'000'000);
    EXPECT_FALSE(s.active());

    // A default config (interval 0) opens no session either.
    CounterWindow window(true, SamplerConfig{});
    EXPECT_FALSE(s.active());
    s.tick(1'000'000);
    EXPECT_TRUE(window.finish(2'000'000).empty());
}

TEST_F(SamplingTest, SamplesAtIntervalBoundaries)
{
    CounterWindow window(true, {100, 16});
    CounterSampler &s = CounterSampler::instance();
    EXPECT_TRUE(s.active());
    for (Cycles now = 50; now <= 450; now += 50) {
        countEvent(HwCounter::TlbMisses);
        s.tick(now);
    }
    const CounterTimeSeries ts = window.finish(460);
    EXPECT_FALSE(s.active());

    // Due at 100, 200, 300, 400, plus the closing sample at 460.
    ASSERT_EQ(ts.samples.size(), 5u);
    EXPECT_EQ(ts.samples.front().cycle, 100u);
    EXPECT_EQ(ts.samples.back().cycle, 460u);
    EXPECT_EQ(ts.dropped, 0u);
    for (std::size_t i = 1; i < ts.samples.size(); ++i)
        EXPECT_LT(ts.samples[i - 1].cycle, ts.samples[i].cycle);
    // Cumulative counters: the last sample saw every event.
    EXPECT_EQ(ts.samples.back().counters.get(HwCounter::TlbMisses),
              9u);
}

TEST_F(SamplingTest, RingDropsOldestWhenFull)
{
    CounterWindow window(true, {10, 4});
    CounterSampler &s = CounterSampler::instance();
    for (Cycles now = 10; now <= 100; now += 10)
        s.tick(now);
    const CounterTimeSeries ts = window.finish(100);

    ASSERT_EQ(ts.samples.size(), 4u);
    EXPECT_EQ(ts.dropped, 6u);
    // The survivors are the newest samples, still oldest-first.
    EXPECT_EQ(ts.samples.front().cycle, 70u);
    EXPECT_EQ(ts.samples.back().cycle, 100u);
}

TEST_F(SamplingTest, OverflowSurfacesDroppedSamplesInJson)
{
    // Capacity 4 with 10 due samples: the ring must overflow.
    CounterWindow window(true, {10, 4});
    CounterSampler &s = CounterSampler::instance();
    for (Cycles now = 10; now <= 100; now += 10)
        s.tick(now);

    Json j = window.finish(100).toJson();
    ASSERT_TRUE(j.has("dropped_samples"));
    EXPECT_EQ(j.at("dropped_samples").asUint(), 6u);
    EXPECT_EQ(j.at("samples").asUint(), 4u);
}

TEST_F(SamplingTest, SeriesJsonShape)
{
    CounterWindow window(true, {100, 16});
    CounterSampler &s = CounterSampler::instance();
    for (Cycles now = 100; now <= 300; now += 100) {
        countEvent(HwCounter::TlbMisses, 5);
        countEvent(HwCounter::TlbRefillCycles, 60);
        s.tick(now, static_cast<double>(now) / 2);
    }

    Json j = window.finish(300).toJson();
    EXPECT_EQ(j.at("interval_cycles").asUint(), 100u);
    EXPECT_EQ(j.at("samples").asUint(), 3u);
    std::size_t n = j.at("cycles").size();
    EXPECT_EQ(n, 3u);
    const Json &series = j.at("series");
    ASSERT_TRUE(series.has("tlb_misses_per_kcycle"));
    ASSERT_TRUE(series.has("kernel_window_occupancy_pct"));
    for (const auto &kv : series.items())
        EXPECT_EQ(kv.second.size(), n) << kv.first;
    // 5 misses per 100 cycles = 50/kcycle; aux advances at 50%.
    EXPECT_DOUBLE_EQ(
        series.at("tlb_misses_per_kcycle").at(0).asNumber(), 50.0);
    EXPECT_DOUBLE_EQ(
        series.at("kernel_window_occupancy_pct").at(0).asNumber(),
        50.0);
}

TEST_F(SamplingTest, SamplingLeavesTable7RowUnchanged)
{
    // aosd_report runs the grid once with both observers armed and
    // feeds the rows to every figure, so each non-observer field of
    // each cell must match the plain grid exactly.
    MachineDesc machine = makeMachine(MachineId::R3000);
    ParallelRunner runner(1);
    std::vector<Table7Row> plain = runMachGrid(machine, runner);

    OsModelConfig cfg;
    cfg.samplingIntervalCycles = 1'000'000;
    cfg.measureKernelWindow = true;
    std::vector<Table7Row> armed = runMachGrid(machine, runner, cfg);

    ASSERT_EQ(plain.size(), 14u);
    ASSERT_EQ(armed.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE(plain[i].app);
        expectSameRow(plain[i], armed[i]);
        EXPECT_TRUE(plain[i].timeseries.empty());
        EXPECT_FALSE(plain[i].hasKernelWindow);
        EXPECT_GE(armed[i].timeseries.samples.size(), 10u);
        EXPECT_TRUE(armed[i].hasKernelWindow);
    }
}

TEST_F(SamplingTest, EveryTable7CellEmitsAtLeastTenSamples)
{
    OsModelConfig cfg;
    cfg.samplingIntervalCycles = 1'000'000;
    ParallelRunner runner(1);
    std::vector<Table7Row> rows =
        runMachGrid(makeMachine(MachineId::R3000), runner, cfg);
    ASSERT_FALSE(rows.empty());
    for (const Table7Row &r : rows) {
        EXPECT_GE(r.timeseries.samples.size(), 10u) << r.app;
        for (std::size_t i = 1; i < r.timeseries.samples.size(); ++i)
            EXPECT_LT(r.timeseries.samples[i - 1].cycle,
                      r.timeseries.samples[i].cycle)
                << r.app;
    }
}

TEST_F(SamplingTest, KernelWindowReconcilesAcrossTheGrid)
{
    OsModelConfig cfg;
    cfg.measureKernelWindow = true;
    ParallelRunner runner(1);
    for (MachineId m :
         {MachineId::R3000, MachineId::CVAX, MachineId::SPARC}) {
        std::vector<Table7Row> rows =
            runMachGrid(makeMachine(m), runner, cfg);
        for (const Table7Row &r : rows) {
            ASSERT_TRUE(r.hasKernelWindow) << r.app;
            EXPECT_GT(r.kernelWindow.actualCycles, 0u) << r.app;
            EXPECT_TRUE(r.kernelWindow.reconciles(5.0))
                << machineSlug(m) << "/" << r.app << ": "
                << r.kernelWindow.explainedPct() << "%";
        }
    }
}

TEST_F(SamplingTest, RefTraceSamples)
{
    RefTraceConfig cfg;
    cfg.references = 100'000;
    cfg.samplingIntervalCycles = 25'000;
    RefTraceResult r =
        runRefTrace(makeMachine(MachineId::R3000), cfg);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GE(r.timeseries.samples.size(), 10u);

    // Same replay without sampling: identical reference mix.
    RefTraceConfig plain;
    plain.references = 100'000;
    RefTraceResult b = runRefTrace(makeMachine(MachineId::R3000), plain);
    EXPECT_TRUE(b.timeseries.empty());
    EXPECT_EQ(b.cycles, r.cycles);
    EXPECT_DOUBLE_EQ(b.systemRefShare(), r.systemRefShare());
}

TEST_F(SamplingTest, SynapseRunSamples)
{
    MachineDesc machine = makeMachine(MachineId::SPARC);
    for (const SynapseRun &run : synapseExperiments()) {
        SynapseSimResult r = simulateSynapseRun(machine, run, 64);
        EXPECT_EQ(r.totalCycles, r.callCycles + r.switchCycles)
            << run.name;
        EXPECT_GE(r.timeseries.samples.size(), 10u) << run.name;
        EXPECT_LE(r.timeseries.samples.size(), 66u) << run.name;
    }
}

TEST_F(SamplingTest, PerfettoCounterTracks)
{
    Tracer::instance().enable(1 << 14);
    MachineDesc machine = makeMachine(MachineId::SPARC);
    SynapseSimResult r =
        simulateSynapseRun(machine, synapseExperiments().front(), 32);
    EXPECT_GE(r.timeseries.samples.size(), 10u);
    Tracer::instance().disable();

    Json doc =
        Json::parse(Tracer::instance().exportChromeTracing(), nullptr);
    const Json &events = doc.at("traceEvents");
    bool saw_counter_track = false;
    bool saw_occupancy = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &ev = events.at(i);
        if (!ev.has("ph") || ev.at("ph").asString() != "C")
            continue;
        const std::string &name = ev.at("name").asString();
        if (name.rfind("ts/", 0) == 0)
            saw_counter_track = true;
        if (name == "ts/kernel_occupancy_pct")
            saw_occupancy = true;
    }
    EXPECT_TRUE(saw_counter_track);
    EXPECT_TRUE(saw_occupancy);
}

TEST_F(SamplingTest, TimeseriesDocIdenticalAcrossJobCounts)
{
    TimeseriesOptions opts;
    opts.refTraceReferences = 50'000;

    ParallelRunner serial(1);
    std::string one = buildTimeseriesDoc(serial, opts).dump(1);
    ParallelRunner wide(4);
    std::string four = buildTimeseriesDoc(wide, opts).dump(1);
    EXPECT_EQ(one, four);

    Json doc = Json::parse(one, nullptr);
    EXPECT_EQ(doc.at("schema_version").asUint(),
              static_cast<std::uint64_t>(timeseriesSchemaVersion));
    EXPECT_EQ(doc.at("table7").at("cells").size(), 14u);
}

} // namespace
