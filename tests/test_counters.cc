/**
 * @file
 * Tests for the simulated hardware performance counters: snapshot/
 * delta/reset semantics, disabled-mode zero-recording, the
 * cycles-explained reconciliation for every Table 1 machine x
 * primitive, the component instrumentation (write buffer, cache, TLB,
 * kernel, IPC, SPARC register windows), Perfetto counter tracks, and
 * the checked-in counters.json golden.
 *
 * Regenerate the golden after an intentional behavioural change:
 *
 *   build/tools/aosd_counters --json tests/expected_counters.json
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "arch/machines.hh"
#include "cpu/counted_primitives.hh"
#include "mem/cache.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "mem/write_buffer.hh"
#include "os/ipc/lrpc.hh"
#include "os/kernel/kernel.hh"
#include "sim/counters/counters.hh"
#include "sim/counters/reconcile.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/sampling/sampler.hh"
#include "sim/trace.hh"
#include "study/counters_report.hh"
#include "study/perfdiff.hh"
#include "study/span_report.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"
#include "workload/ref_trace.hh"
#include "workload/synapse.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

/** Restore global counter/tracer state around each test. */
class CountersTest : public ::testing::Test
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

} // namespace

// ---- core semantics -----------------------------------------------

TEST_F(CountersTest, SnapshotDeltaReset)
{
    HwCounters &c = HwCounters::instance();
    c.enable();
    countEvent(HwCounter::Loads, 5);
    CounterSet start = c.snapshot();
    countEvent(HwCounter::Loads, 3);
    countEvent(HwCounter::Stores, 2);
    CounterSet end = c.snapshot();

    CounterSet d = end.delta(start);
    EXPECT_EQ(d.get(HwCounter::Loads), 3u);
    EXPECT_EQ(d.get(HwCounter::Stores), 2u);
    EXPECT_EQ(end.get(HwCounter::Loads), 8u);

    c.reset();
    EXPECT_EQ(c.value(HwCounter::Loads), 0u);
    EXPECT_EQ(c.snapshot().totalEvents(), 0u);
}

TEST_F(CountersTest, HighWaterDeltaKeepsEndValue)
{
    HwCounters &c = HwCounters::instance();
    c.enable();
    countHighWater(HwCounter::WbOccupancyHighWater, 6);
    CounterSet start = c.snapshot();
    countHighWater(HwCounter::WbOccupancyHighWater, 4); // below: no-op
    CounterSet end = c.snapshot();
    // A maximum does not difference; the delta reports the high-water
    // mark itself.
    EXPECT_EQ(end.delta(start).get(HwCounter::WbOccupancyHighWater),
              6u);
    countHighWater(HwCounter::WbOccupancyHighWater, 9);
    EXPECT_EQ(c.value(HwCounter::WbOccupancyHighWater), 9u);
}

TEST_F(CountersTest, DisabledCountersRecordNothing)
{
    HwCounters &c = HwCounters::instance();
    EXPECT_FALSE(c.enabled());
    countEvent(HwCounter::Loads, 100);
    countHighWater(HwCounter::WbOccupancyHighWater, 7);
    EXPECT_EQ(c.value(HwCounter::Loads), 0u);
    EXPECT_EQ(c.value(HwCounter::WbOccupancyHighWater), 0u);

    // A full simulated primitive run records nothing either.
    MachineDesc m = makeMachine(MachineId::R2000);
    SimKernel kernel(m);
    kernel.syscall();
    EXPECT_EQ(c.snapshot().totalEvents(), 0u);
}

TEST_F(CountersTest, DisableFreezesButKeepsValues)
{
    HwCounters &c = HwCounters::instance();
    c.enable();
    countEvent(HwCounter::Branches, 4);
    c.disable();
    countEvent(HwCounter::Branches, 4);
    EXPECT_EQ(c.value(HwCounter::Branches), 4u);
    c.resume();
    countEvent(HwCounter::Branches, 1);
    EXPECT_EQ(c.value(HwCounter::Branches), 5u);
}

TEST_F(CountersTest, SaturationFree64BitAccumulate)
{
    HwCounters &c = HwCounters::instance();
    c.enable();
    // Counters are plain 64-bit accumulators: huge increments add
    // exactly, with no clamp at any internal width.
    std::uint64_t big = std::uint64_t{1} << 62;
    countEvent(HwCounter::IpcBytesCopied, big);
    countEvent(HwCounter::IpcBytesCopied, big);
    EXPECT_EQ(c.value(HwCounter::IpcBytesCopied), big * 2);
    countEvent(HwCounter::IpcBytesCopied, 1);
    EXPECT_EQ(c.value(HwCounter::IpcBytesCopied), big * 2 + 1);
}

TEST_F(CountersTest, EveryCounterHasAUniqueName)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < numHwCounters; ++i)
        names.insert(counterName(static_cast<HwCounter>(i)));
    EXPECT_EQ(names.size(), numHwCounters);
    EXPECT_EQ(names.count("unknown"), 0u);
}

// ---- component instrumentation ------------------------------------

TEST_F(CountersTest, WriteBufferCountsStallsAndHighWater)
{
    MachineDesc m = makeMachine(MachineId::R2000); // depth-4 buffer
    HwCounters::instance().enable();
    WriteBuffer wb(m.writeBuffer);
    Cycles now = 0;
    Cycles stalls = 0;
    for (int i = 0; i < 12; ++i)
        stalls += wb.store(now, true); // back-to-back: must stall
    HwCounters &c = HwCounters::instance();
    EXPECT_EQ(c.value(HwCounter::WbStores), 12u);
    EXPECT_GT(stalls, 0u);
    EXPECT_GT(c.value(HwCounter::WbStalls), 0u);
    EXPECT_EQ(c.value(HwCounter::WbStallCycles), stalls);
    EXPECT_EQ(c.value(HwCounter::WbOccupancyHighWater),
              m.writeBuffer.depth);
}

TEST_F(CountersTest, CacheCountsHitsMissesAndFlushes)
{
    MachineDesc m = makeMachine(MachineId::SPARC); // virtual cache
    HwCounters::instance().enable();
    Cache cache(m.cache);
    cache.access(0x1000, 1, false); // miss
    cache.access(0x1000, 1, false); // hit
    cache.access(0x1000, 1, true);  // hit (write)
    HwCounters &c = HwCounters::instance();
    EXPECT_EQ(c.value(HwCounter::CacheMisses), 1u);
    EXPECT_EQ(c.value(HwCounter::CacheHits), 2u);

    cache.flushPage(0x1000, 1);
    std::uint64_t page_lines = pageBytes / m.cache.lineBytes;
    EXPECT_EQ(c.value(HwCounter::CacheFlushLines), page_lines);
    cache.flushAll();
    EXPECT_EQ(c.value(HwCounter::CacheFlushLines),
              page_lines + m.cache.sizeBytes / m.cache.lineBytes);
}

TEST_F(CountersTest, WriteThroughStoresAreCounted)
{
    MachineDesc m = makeMachine(MachineId::R2000); // write-through
    ASSERT_EQ(m.cache.policy, WritePolicy::WriteThrough);
    HwCounters::instance().enable();
    Cache cache(m.cache);
    cache.access(0x2000, 1, true); // miss, write
    cache.access(0x2000, 1, true); // hit, write
    EXPECT_EQ(
        HwCounters::instance().value(HwCounter::CacheWriteThroughs),
        2u);
}

TEST_F(CountersTest, TlbCountsMissesRefillsAndPurges)
{
    MachineDesc m = makeMachine(MachineId::R2000); // software TLB
    HwCounters::instance().enable();
    Tlb tlb(m.tlb);
    TlbLookup miss = tlb.lookup(0x10, 1, false);
    EXPECT_FALSE(miss.hit);
    tlb.insert(0x10, 1, 0x99, {});
    TlbLookup hit = tlb.lookup(0x10, 1, false);
    EXPECT_TRUE(hit.hit);

    HwCounters &c = HwCounters::instance();
    EXPECT_EQ(c.value(HwCounter::TlbMisses), 1u);
    EXPECT_EQ(c.value(HwCounter::TlbHits), 1u);
    EXPECT_EQ(c.value(HwCounter::TlbRefillCycles), miss.missCycles);

    tlb.invalidate(0x10, 1);
    tlb.invalidateAll();
    EXPECT_EQ(c.value(HwCounter::TlbPurges), 2u);
}

TEST_F(CountersTest, KernelCountsPrimitiveInvocations)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    HwCounters::instance().enable();
    SimKernel kernel(m);
    AddressSpace &other = kernel.createSpace("other");
    kernel.syscall();
    kernel.syscall();
    kernel.trap();
    kernel.contextSwitchTo(other);
    kernel.threadSwitch();
    kernel.emulateInstructions(7);

    HwCounters &c = HwCounters::instance();
    EXPECT_EQ(c.value(HwCounter::KernelSyscalls), 2u);
    EXPECT_EQ(c.value(HwCounter::KernelTraps), 1u);
    EXPECT_EQ(c.value(HwCounter::ContextSwitches), 1u);
    // The address-space switch implies a thread switch (Table 7 note).
    EXPECT_EQ(c.value(HwCounter::ThreadSwitches), 2u);
    EXPECT_EQ(c.value(HwCounter::EmulatedInstrs), 7u);
}

TEST_F(CountersTest, AsidRolloverForcesAPurgeAndIsCounted)
{
    MachineDesc m = makeMachine(MachineId::R2000);
    ASSERT_TRUE(m.tlb.processIdTags);
    ASSERT_GT(m.tlb.pidCount, 0u);
    HwCounters::instance().enable();
    SimKernel kernel(m);
    // Space 0 is the kernel; creating pidCount more spaces wraps the
    // ASID allocator.
    for (std::uint32_t i = 0; i < m.tlb.pidCount; ++i)
        kernel.createSpace("s" + std::to_string(i));
    EXPECT_GE(HwCounters::instance().value(HwCounter::AsidRollovers),
              1u);
}

TEST_F(CountersTest, SparcContextSwitchTakesWindowTraps)
{
    MachineDesc m = makeMachine(MachineId::SPARC);
    CountedPrimitiveRun run =
        countPrimitive(m, Primitive::ContextSwitch, 1);
    int pairs = static_cast<int>(
        m.regWindows.avgSaveRestorePerSwitch + 0.5);
    ASSERT_GT(pairs, 0);
    EXPECT_EQ(run.counters.get(HwCounter::WindowOverflows),
              static_cast<std::uint64_t>(pairs));
    EXPECT_EQ(run.counters.get(HwCounter::WindowUnderflows),
              static_cast<std::uint64_t>(pairs));
    EXPECT_EQ(run.counters.get(HwCounter::WindowsSpilled),
              static_cast<std::uint64_t>(pairs));
}

TEST_F(CountersTest, NonSparcMachinesTakeNoWindowTraps)
{
    for (MachineId id : {MachineId::CVAX, MachineId::R2000,
                         MachineId::R3000, MachineId::M88000}) {
        CountedPrimitiveRun run = countPrimitive(
            makeMachine(id), Primitive::ContextSwitch, 1);
        EXPECT_EQ(run.counters.get(HwCounter::WindowOverflows), 0u)
            << machineSlug(id);
        EXPECT_EQ(run.counters.get(HwCounter::WindowUnderflows), 0u)
            << machineSlug(id);
    }
}

TEST_F(CountersTest, LrpcCountsFastPathMessages)
{
    MachineDesc m = makeMachine(MachineId::CVAX);
    HwCounters::instance().enable();
    LrpcConfig cfg;
    LrpcModel lrpc(m, cfg);
    lrpc.nullCall();
    HwCounters &c = HwCounters::instance();
    EXPECT_GE(c.value(HwCounter::IpcMessages), 2u);
    EXPECT_EQ(c.value(HwCounter::IpcFastPath), 1u);
    EXPECT_EQ(c.value(HwCounter::IpcBytesCopied),
              2ull * cfg.argBytes);
}

// ---- the cycles-explained cross-check -----------------------------

TEST_F(CountersTest, EveryTable1PairReconcilesExactly)
{
    for (const MachineDesc &m : table1Machines()) {
        for (Primitive p : allPrimitives) {
            CountedPrimitiveRun run = countPrimitive(m, p, 4);
            EXPECT_GT(run.totalCycles, 0u)
                << machineSlug(m.id) << "/" << primitiveSlug(p);
            EXPECT_NEAR(run.reconciliation.explainedPct(), 100.0,
                        0.1)
                << machineSlug(m.id) << "/" << primitiveSlug(p);
            EXPECT_TRUE(run.reconciliation.reconciles(5.0));
        }
    }
}

TEST_F(CountersTest, ReconciliationDetectsUncountedCycles)
{
    // Fabricate a hole: drop a term's events and the window must no
    // longer reconcile.
    MachineDesc m = makeMachine(MachineId::R2000);
    CountedPrimitiveRun run =
        countPrimitive(m, Primitive::NullSyscall, 1);
    CounterSet crippled = run.counters;
    crippled.set(HwCounter::IssueSlots, 0);
    Reconciliation r =
        reconcileCycles(m, crippled, run.totalCycles);
    EXPECT_LT(r.explainedPct(), 95.0);
    EXPECT_FALSE(r.reconciles(5.0));

    // Over-explaining (a double count) fails the gate too.
    CounterSet inflated = run.counters;
    inflated.set(HwCounter::TrapEnters,
                 inflated.get(HwCounter::TrapEnters) + 100);
    Reconciliation over =
        reconcileCycles(m, inflated, run.totalCycles);
    EXPECT_GT(over.explainedPct(), 105.0);
    EXPECT_FALSE(over.reconciles(5.0));
}

TEST_F(CountersTest, CountedRunIsIsolated)
{
    HwCounters &c = HwCounters::instance();
    c.enable();
    countEvent(HwCounter::Loads, 123);
    CountedPrimitiveRun run = countPrimitive(
        makeMachine(MachineId::R3000), Primitive::Trap, 1);
    // The run measured only its own window...
    EXPECT_EQ(run.counters.get(HwCounter::KernelSyscalls), 0u);
    // ...and left the global file enabled (we were counting) but
    // cleared of the run's events.
    EXPECT_TRUE(c.enabled());
    EXPECT_EQ(c.value(HwCounter::InstrRetired), 0u);
}

TEST_F(CountersTest, EveryCounterWindowRestoresTheCallersState)
{
    // Every entry point that opens a counter window (and, where it
    // samples, a sampler session) must hand the counters back in the
    // caller's on/off state, with the sampler off.
    const MachineDesc m = makeMachine(MachineId::R3000);
    const AppProfile app = workloadByName("spellcheck-1");
    ParallelRunner serial(1);
    OsModelConfig kernel_window;
    kernel_window.measureKernelWindow = true;
    OsModelConfig sampled;
    sampled.samplingIntervalCycles = 1'000'000;
    RefTraceConfig ref;
    ref.references = 20'000;
    ref.samplingIntervalCycles = 5'000;
    TrafficConfig traffic;
    traffic.machines = {MachineId::R3000};
    traffic.levels = {0.5};
    traffic.requestsPerLevel = 200;
    SpanOptions spans;
    spans.machines = {MachineId::R3000};
    spans.requestsPerPair = 10;

    const std::vector<std::pair<const char *, std::function<void()>>>
        entries = {
            {"countPrimitive",
             [&] { countPrimitive(m, Primitive::NullSyscall, 2); }},
            {"MachSystem::run, kernel window",
             [&] {
                 MachSystem(m, OsStructure::SmallKernel, kernel_window)
                     .run(app);
             }},
            {"MachSystem::run, sampled",
             [&] {
                 MachSystem(m, OsStructure::SmallKernel, sampled)
                     .run(app);
             }},
            {"runRefTrace, sampled", [&] { runRefTrace(m, ref); }},
            {"simulateSynapseRun",
             [&] {
                 simulateSynapseRun(m, synapseExperiments().front(),
                                    16);
             }},
            {"traffic cell",
             [&] { buildTrafficDoc(traffic, serial); }},
            {"buildSpansDoc", [&] { buildSpansDoc(serial, spans); }},
        };
    HwCounters &c = HwCounters::instance();
    for (const auto &[name, run] : entries) {
        for (bool caller_counts : {true, false}) {
            SCOPED_TRACE(std::string(name) +
                         (caller_counts ? ", counting" : ", idle"));
            if (caller_counts)
                c.enable();
            run();
            EXPECT_EQ(c.enabled(), caller_counts);
            EXPECT_FALSE(samplingEnabled());
            c.disable();
        }
    }
}

// ---- Perfetto export ----------------------------------------------

TEST_F(CountersTest, CounterTracksExportAsCounterPhase)
{
    MachineDesc m = makeMachine(MachineId::R2000);
    Tracer &tr = Tracer::instance();
    tr.enable(1 << 12);
    HwCounters::instance().enable();
    WriteBuffer wb(m.writeBuffer);
    for (int i = 0; i < 8; ++i)
        wb.store(0, true);
    Json doc = tr.toChromeJson();

    bool saw_counter = false;
    bool saw_process_name = false;
    bool saw_counters_lane_name = false;
    for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
        const Json &ev = doc.at("traceEvents").at(i);
        const std::string &ph = ev.at("ph").asString();
        if (ph == "C" &&
            ev.at("name").asString() == "wb_occupancy") {
            saw_counter = true;
            EXPECT_TRUE(ev.at("args").has("value"));
            EXPECT_EQ(ev.at("tid").asUint(),
                      static_cast<std::uint64_t>(
                          traceEventLane(TraceEvent::Counter)));
        }
        if (ph == "M") {
            if (ev.at("name").asString() == "process_name")
                saw_process_name = true;
            if (ev.at("name").asString() == "thread_name" &&
                ev.at("args").at("name").asString() == "counters")
                saw_counters_lane_name = true;
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_process_name);
    EXPECT_TRUE(saw_counters_lane_name);
}

TEST_F(CountersTest, MetadataNamesEveryUsedLane)
{
    Tracer &tr = Tracer::instance();
    tr.enable(64);
    tr.instant(TraceEvent::TlbMiss, "tlb_miss", 10);
    tr.instant(TraceEvent::WindowOverflow, "window_overflow");
    Json doc = tr.toChromeJson();

    std::set<std::string> lane_names;
    for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
        const Json &ev = doc.at("traceEvents").at(i);
        if (ev.at("ph").asString() == "M" &&
            ev.at("name").asString() == "thread_name")
            lane_names.insert(ev.at("args").at("name").asString());
    }
    EXPECT_EQ(lane_names.count("mem/tlb"), 1u);
    EXPECT_EQ(lane_names.count("cpu/reg_windows"), 1u);
    EXPECT_EQ(lane_names.count("os/kernel"), 0u); // unused lane
}

// ---- the checked-in golden ----------------------------------------

namespace
{

std::string
goldenPath()
{
    return std::string(AOSD_SOURCE_DIR) +
           "/tests/expected_counters.json";
}

} // namespace

TEST_F(CountersTest, GoldenCountersMatchSnapshot)
{
    std::ifstream in(goldenPath());
    ASSERT_TRUE(in.good())
        << "missing " << goldenPath()
        << " — regenerate with: aosd_counters --json "
           "tests/expected_counters.json";
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    Json expected = Json::parse(ss.str(), &err);
    ASSERT_TRUE(err.empty()) << "bad golden JSON: " << err;

    unsigned reps = static_cast<unsigned>(
        expected.at("repetitions").asUint());
    ParallelRunner serial(1);
    Json actual = buildCountersDoc(
        countAllPrimitives(table1Machines(), reps, serial), reps);

    // Event counts and cycles are integers the simulation reproduces
    // exactly; only the derived ratios keep a 5% tolerance.
    auto derived = [](const std::string &path) {
        return path.ends_with(".cycles_per_call") ||
               path.ends_with(".explained_pct");
    };
    PerfDiff diff = diffPerfDocs(expected, actual, 0.0, 0.0);
    EXPECT_GT(diff.compared, 0u);
    for (const PerfDelta &d : diff.deltas) {
        if (d.kind == PerfDelta::Kind::Within ||
            (d.kind == PerfDelta::Kind::Changed && derived(d.path) &&
             d.relDelta <= 0.05))
            continue;
        ADD_FAILURE() << d.path << ": " << d.oldValue << " -> "
                      << d.newValue
                      << ". If intentional, regenerate: aosd_counters "
                         "--json tests/expected_counters.json";
    }
}
