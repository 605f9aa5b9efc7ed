/**
 * @file
 * Tests for the kernel-window batch charger (sim/batch +
 * SimKernel::charge over the kernel-op table): toggle semantics, the
 * central equivalence property — a batched run leaves *exactly* the
 * state of the per-event loop (cycles, every hardware counter, kernel
 * stats, the profiler tree, the sampler series) for every KernelOp on
 * every Table 1 machine, under randomized event mixes, and with
 * predecode off — each op's per-event trace records, and the
 * CounterSampler::tickRun multi-interval regression (a batch spanning
 * several sample intervals emits one sample per boundary crossed,
 * never one fat sample).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "cpu/decoded_program.hh"
#include "os/kernel/kernel.hh"
#include "sim/batch/batch.hh"
#include "sim/counters/counters.hh"
#include "sim/profile/profile.hh"
#include "sim/sampling/sampler.hh"
#include "sim/trace.hh"
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
// charge(op, n) must still equal the per-event loop (both fall back,
// and the fallback must not double-charge).
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
    HwCounters::instance().enable();
    for (std::size_t i = 0; i < kernelOpCount; ++i)
        kernel.charge(static_cast<KernelOp>(i), 0, /*sample_each=*/true);
    EXPECT_EQ(kernel.elapsedCycles(), 0u);
    EXPECT_EQ(HwCounters::instance().snapshot().totalEvents(), 0u);
}

// ---- the kernel-op table, op by op -------------------------------

const char *
opName(KernelOp op)
{
    static const char *const names[] = {
        "Syscall",     "Trap",          "OtherException", "ThreadSwitch",
        "EmulatedTas", "EmulatedInstr", "PteChange"};
    static_assert(std::size(names) == kernelOpCount);
    return names[static_cast<std::size_t>(op)];
}

/** How runOp issues its n events. */
enum class Issue
{
    Batched,  ///< one charge(op, n), batching on
    PerEvent, ///< one charge(op, n), batching off: the per-event loop
    Names     ///< n calls of the op's per-event name
};

/** Sampler interval of the sample_each runs; the run starts one cycle
 *  short of it, so even a single 4-cycle event crosses a boundary. */
constexpr Cycles opSampleInterval = 100;

/** Issue `n` events of `op` on `mid` and capture the complete
 *  observable state. A PteChange run edits pages 0x1000.., as
 *  replayEventMix does; `sample_each` samples every event. */
RunState
runOp(MachineId mid, KernelOp op, std::uint64_t n, Issue issue,
      bool sample_each)
{
    setBatchEnabled(issue != Issue::PerEvent);
    MachineDesc m = makeMachine(mid);
    SimKernel kernel(m);
    AddressSpace &space = kernel.createSpace("op");
    space.mapRange(0x1000, 64, 0x50000, {});
    kernel.contextSwitchTo(space);
    kernel.resetAccounting();
    CounterWindow window(true,
                         {sample_each ? opSampleInterval : 0u, 4096});
    Profiler::instance().enable();
    kernel.chargeCycles(opSampleInterval - 1);

    PageProt prot;
    if (issue != Issue::Names) {
        kernel.charge(op, n, sample_each);
        if (op == KernelOp::PteChange)
            for (std::uint64_t i = 0; i < n; ++i)
                kernel.protectPage(space, 0x1000 + i % 64, prot);
    }
    for (std::uint64_t i = 0; issue == Issue::Names && i < n; ++i) {
        switch (op) {
          case KernelOp::Syscall: kernel.syscall(); break;
          case KernelOp::Trap: kernel.trap(); break;
          case KernelOp::OtherException: kernel.otherException(); break;
          case KernelOp::ThreadSwitch: kernel.threadSwitch(); break;
          case KernelOp::EmulatedTas: kernel.emulateTestAndSet(); break;
          case KernelOp::EmulatedInstr:
            kernel.emulateInstructions(1);
            break;
          case KernelOp::PteChange:
            kernel.pteChange(space, 0x1000 + i % 64, prot);
            break;
        }
        if (sample_each)
            CounterSampler::instance().tick(
                kernel.elapsedCycles(),
                static_cast<double>(kernel.primitiveCycles()));
    }

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

// Every row of the op table, on every Table 1 machine, at run lengths
// 0, 1, 2 and 257: the closed-form charge leaves exactly the state of
// the per-event loop, and (unsampled) of n calls of the op's
// per-event name. The sampled comparison stops at the loop: a
// PteChange run applies its page edits after the charge, so on a
// virtually-indexed cache the samples taken between events do not
// yet see the flushes the per-event name performs inside each event.
TEST_F(BatchTest, EveryOpBatchedEqualsPerEventOnEveryTable1Machine)
{
    for (const MachineDesc &m : table1Machines()) {
        for (std::size_t i = 0; i < kernelOpCount; ++i) {
            const auto op = static_cast<KernelOp>(i);
            for (std::uint64_t n : {0ull, 1ull, 2ull, 257ull}) {
                for (bool sample_each : {false, true}) {
                    const RunState batched =
                        runOp(m.id, op, n, Issue::Batched, sample_each);
                    EXPECT_EQ(batched, runOp(m.id, op, n,
                                             Issue::PerEvent,
                                             sample_each))
                        << machineSlug(m.id) << " " << opName(op)
                        << " n " << n << " sample_each " << sample_each;
                    if (!sample_each) {
                        EXPECT_EQ(batched,
                                  runOp(m.id, op, n, Issue::Names,
                                        false))
                            << machineSlug(m.id) << " " << opName(op)
                            << " n " << n << " per-event name";
                    }
                }
            }
        }
    }
}

/** One expected trace record: phase, event, name, arg. */
struct OpRecord
{
    TracePhase phase;
    TraceEvent event;
    const char *name;
    std::uint64_t arg;
};

// Each row's trace shape, pinned for one per-event call (the tracer
// keeps batching off): a Complete record, a Begin/End pair, an
// Instant, or nothing at all.
TEST_F(BatchTest, EveryOpEmitsItsTraceShapePerEvent)
{
    const std::vector<OpRecord> want[kernelOpCount] = {
        {{TracePhase::Complete, TraceEvent::Syscall, "syscall", 0}},
        {{TracePhase::Begin, TraceEvent::TrapEnter, "trap", 0},
         {TracePhase::End, TraceEvent::TrapExit, "trap", 0}},
        {{TracePhase::Complete, TraceEvent::TrapEnter, "exception", 0}},
        {{TracePhase::Complete, TraceEvent::ThreadSwitch,
          "thread_switch", 0}},
        {},
        {{TracePhase::Instant, TraceEvent::EmulatedInstr, "emulate", 1}},
        {},
    };
    Tracer &tr = Tracer::instance();
    for (std::size_t i = 0; i < kernelOpCount; ++i) {
        const auto op = static_cast<KernelOp>(i);
        SimKernel kernel(makeMachine(MachineId::R3000));
        tr.enable(64);
        kernel.charge(op, 1);
        const std::vector<TraceRecord> got = tr.snapshot();
        tr.disable();
        tr.clear();
        ASSERT_EQ(got.size(), want[i].size()) << opName(op);
        for (std::size_t r = 0; r < got.size(); ++r) {
            EXPECT_EQ(got[r].phase, want[i][r].phase) << opName(op);
            EXPECT_EQ(got[r].event, want[i][r].event) << opName(op);
            EXPECT_STREQ(got[r].name, want[i][r].name) << opName(op);
            EXPECT_EQ(got[r].arg, want[i][r].arg) << opName(op);
        }
        if (want[i].size() == 1 &&
            want[i][0].phase == TracePhase::Complete) {
            EXPECT_EQ(got[0].duration, kernel.elapsedCycles())
                << opName(op);
        }
    }
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
