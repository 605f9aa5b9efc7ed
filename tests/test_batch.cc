/**
 * @file
 * Tests for the kernel-window batch charger (sim/batch + the
 * SimKernel *Batch entry points): toggle semantics, the central
 * equivalence property — a batched run leaves *exactly* the state of
 * the per-event loop (cycles, every hardware counter, kernel stats,
 * the profiler tree, the sampler series) on every Table 1 machine,
 * under randomized event mixes, and under --no-predecode — and the
 * CounterSampler::tickRun multi-interval regression (a batch spanning
 * several sample intervals emits one sample per boundary crossed,
 * never one fat sample).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/machines.hh"
#include "cpu/decoded_program.hh"
#include "os/kernel/kernel.hh"
#include "sim/batch/batch.hh"
#include "sim/counters/counters.hh"
#include "sim/profile/profile.hh"
#include "sim/sampling/sampler.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

/** Restore every global toggle the batch layer consults. */
class BatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setBatchEnabled(true);
        setPredecodeEnabled(true);
        HwCounters::instance().disable();
        HwCounters::instance().reset();
        Profiler::instance().disable();
        Profiler::instance().clear();
    }

    void
    TearDown() override { SetUp(); }
};

/** Everything a kernel event mutates, captured for comparison. */
struct RunState
{
    Cycles elapsed = 0;
    Cycles primitive = 0;
    CounterSet counters;
    std::string stats;
    std::string profile;

    bool
    operator==(const RunState &o) const
    {
        return elapsed == o.elapsed && primitive == o.primitive &&
               counters == o.counters && stats == o.stats &&
               profile == o.profile;
    }
};

/** Replay `total_events` of the randomized mix on `mid` and capture
 *  the complete observable state. `sample_each` adds per-event
 *  sampler boundaries under a 10k-cycle session. */
RunState
runMix(MachineId mid, std::uint64_t total_events, std::uint64_t seed,
       bool sample_each = false)
{
    MachineDesc m = makeMachine(mid);
    SimKernel kernel(m);
    AddressSpace &space = kernel.createSpace("mix");
    space.mapRange(0x1000, 64, 0x50000, {});
    CounterWindow window(true, {sample_each ? 10'000u : 0u, 4096});
    Profiler::instance().enable();

    replayEventMix(kernel, &space, total_events, seed, sample_each);

    RunState out;
    out.elapsed = kernel.elapsedCycles();
    out.primitive = kernel.primitiveCycles();
    out.counters = window.events();
    out.stats = kernel.stats().toJson().dump();
    out.profile = Profiler::instance().toJson().dump();
    if (sample_each)
        out.stats +=
            window
                .finish(kernel.elapsedCycles(),
                        static_cast<double>(kernel.primitiveCycles()))
                .toJson()
                .dump();
    Profiler::instance().disable();
    Profiler::instance().clear();
    return out;
}

TEST_F(BatchTest, ToggleDefaultsOnAndRuntimeSetterWorks)
{
    EXPECT_TRUE(batchEnabled());
    setBatchEnabled(false);
    EXPECT_FALSE(batchEnabled());
    setBatchEnabled(true);
    EXPECT_TRUE(batchEnabled());
}

TEST_F(BatchTest, BatchActiveRequiresPredecodeFastPath)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    EXPECT_TRUE(kernel.batchActive());
    setPredecodeEnabled(false);
    EXPECT_FALSE(kernel.batchActive());
    setPredecodeEnabled(true);
    setBatchEnabled(false);
    EXPECT_FALSE(kernel.batchActive());
}

// The central property: over randomized homogeneous-run mixes of
// every batchable primitive, the closed-form charges leave exactly
// the per-event loop's state on every Table 1 machine — total cycles,
// primitive cycles, all hardware counters, the kernel's stat file and
// the full profiler tree (entries, self cycles, span histograms).
TEST_F(BatchTest, BatchedStateEqualsPerEventOnEveryTable1Machine)
{
    for (const MachineDesc &m : table1Machines()) {
        for (std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
            setBatchEnabled(true);
            RunState batched = runMix(m.id, 20'000, seed);
            setBatchEnabled(false);
            RunState per_event = runMix(m.id, 20'000, seed);
            EXPECT_EQ(batched, per_event)
                << machineSlug(m.id) << " seed " << seed;
        }
    }
}

// Same property with per-event sampler boundaries: a batch spanning
// several 10k-cycle intervals must emit the same intermediate samples
// (cycle, aux, reconstructed counter snapshots) the per-event ticks
// would have taken.
TEST_F(BatchTest, BatchedSamplerSeriesEqualsPerEvent)
{
    setBatchEnabled(true);
    RunState batched = runMix(MachineId::R3000, 30'000, 7, true);
    setBatchEnabled(false);
    RunState per_event = runMix(MachineId::R3000, 30'000, 7, true);
    EXPECT_EQ(batched, per_event);
}

// The reference-interpreter mode disables batching via batchActive();
// the *Batch entry points must still equal the per-event loop (both
// fall back, and the fallback must not double-charge).
TEST_F(BatchTest, EquivalenceHoldsUnderNoPredecode)
{
    setPredecodeEnabled(false);
    setBatchEnabled(true);
    RunState batched = runMix(MachineId::CVAX, 5'000, 3);
    setBatchEnabled(false);
    RunState per_event = runMix(MachineId::CVAX, 5'000, 3);
    EXPECT_EQ(batched, per_event);
}

TEST_F(BatchTest, ZeroCountBatchesAreNoOps)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    AddressSpace &space = kernel.createSpace("app");
    HwCounters::instance().enable();
    kernel.syscallBatch(0);
    kernel.trapBatch(0);
    kernel.otherExceptionBatch(0);
    kernel.threadSwitchBatch(0);
    kernel.emulateTestAndSetBatch(0);
    kernel.emulateSingleInstructionsBatch(0);
    kernel.pteChangeBatch(space, {}, {});
    EXPECT_EQ(kernel.elapsedCycles(), 0u);
    EXPECT_EQ(HwCounters::instance().snapshot().totalEvents(), 0u);
}

// ---- CounterSampler::tickRun ------------------------------------

/** Per-event reference for tickRun: bump + tick once per event. */
CounterTimeSeries
perEventSeries(Cycles interval, Cycles per_event, std::uint64_t n,
               std::uint64_t aux_per_event)
{
    CounterWindow window(true, {interval, 4096});
    CounterSampler &s = CounterSampler::instance();
    for (std::uint64_t i = 1; i <= n; ++i) {
        countEvent(HwCounter::KernelTraps);
        s.tick(per_event * i,
               static_cast<double>(aux_per_event * i));
    }
    return window.finish(per_event * n,
                         static_cast<double>(aux_per_event * n));
}

/** Batched equivalent: all counter bumps land first, then one
 *  tickRun reconstructs the intermediate snapshots. */
CounterTimeSeries
tickRunSeries(Cycles interval, Cycles per_event, std::uint64_t n,
              std::uint64_t aux_per_event)
{
    CounterWindow window(true, {interval, 4096});
    countEvent(HwCounter::KernelTraps, n);
    CounterSet per;
    per.set(HwCounter::KernelTraps, 1);
    CounterSampler::instance().tickRun(0, per_event, n, per, 0,
                                       aux_per_event);
    return window.finish(per_event * n,
                         static_cast<double>(aux_per_event * n));
}

TEST_F(BatchTest, TickRunEmitsOneSamplePerCrossedBoundary)
{
    // 10 events x 37 cycles crossing the 100-cycle boundary three
    // times: per-event ticks sample at 111, 222 and 333 (the first
    // tick at or past each boundary), then the close at 370.
    CounterTimeSeries ts = tickRunSeries(100, 37, 10, 37);
    ASSERT_EQ(ts.samples.size(), 4u);
    EXPECT_EQ(ts.samples[0].cycle, 111u);
    EXPECT_EQ(ts.samples[1].cycle, 222u);
    EXPECT_EQ(ts.samples[2].cycle, 333u);
    EXPECT_EQ(ts.samples[3].cycle, 370u);
    // Intermediate snapshots roll the counter file back: 3 events by
    // cycle 111, 6 by 222, 9 by 333, all 10 at the close.
    EXPECT_EQ(ts.samples[0].counters.get(HwCounter::KernelTraps), 3u);
    EXPECT_EQ(ts.samples[1].counters.get(HwCounter::KernelTraps), 6u);
    EXPECT_EQ(ts.samples[2].counters.get(HwCounter::KernelTraps), 9u);
    EXPECT_EQ(ts.samples[3].counters.get(HwCounter::KernelTraps), 10u);
    EXPECT_EQ(ts.samples[1].aux, 222.0);
}

TEST_F(BatchTest, TickRunMatchesPerEventLoopExactly)
{
    struct Case
    {
        Cycles interval, per_event;
        std::uint64_t n, aux;
    };
    // Spans many intervals; lands exactly on boundaries; run shorter
    // than one interval; single event; zero-cost events.
    const Case cases[] = {
        {100, 37, 10, 37},   {100, 50, 8, 13}, {1000, 37, 10, 37},
        {100, 100, 5, 100},  {100, 250, 4, 1}, {7, 3, 100, 3},
        {100, 37, 1, 37},    {100, 0, 5, 9},
    };
    for (const Case &c : cases) {
        CounterTimeSeries a =
            perEventSeries(c.interval, c.per_event, c.n, c.aux);
        CounterTimeSeries b =
            tickRunSeries(c.interval, c.per_event, c.n, c.aux);
        EXPECT_EQ(a.toJson().dump(), b.toJson().dump())
            << "interval " << c.interval << " per_event "
            << c.per_event << " n " << c.n;
    }
}

TEST_F(BatchTest, TickRunWithoutSessionIsANoOp)
{
    CounterSampler &s = CounterSampler::instance();
    CounterSet per;
    per.set(HwCounter::KernelTraps, 1);
    s.tickRun(0, 100, 50, per, 0, 100);
    EXPECT_EQ(s.size(), 0u);
}

} // namespace
