/**
 * @file
 * P1: google-benchmark micro-benchmarks of the simulator's own hot
 * paths (handler execution, TLB lookups, workload runs), so simulator
 * performance regressions are visible.
 */

#include <benchmark/benchmark.h>

#include "core/aosd.hh"
#include "sim/batch/batch.hh"
#include "sim/counters/counters.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/spantrace/spantrace.hh"
#include "study/dashboard/dashboard.hh"
#include "study/report.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

void
BM_HandlerExecution(benchmark::State &state)
{
    MachineDesc m = makeMachine(
        static_cast<MachineId>(state.range(0)));
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
}
BENCHMARK(BM_HandlerExecution)
    ->Arg(static_cast<int>(MachineId::CVAX))
    ->Arg(static_cast<int>(MachineId::R3000))
    ->Arg(static_cast<int>(MachineId::SPARC));

void
BM_HandlerExecutionDecoded(benchmark::State &state)
{
    // The pre-decoded superblock replay of the same handler: the
    // ratio against BM_HandlerExecution is the per-execution win of
    // compiling the op walk away (only the write-buffer steps remain
    // stateful).
    MachineDesc m = makeMachine(
        static_cast<MachineId>(state.range(0)));
    const DecodedProgram &dec =
        cachedDecodedHandler(m, Primitive::Trap);
    ExecModel exec(m);
    for (auto _ : state) {
        ExecResult r = exec.runDecoded(dec);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
}
BENCHMARK(BM_HandlerExecutionDecoded)
    ->Arg(static_cast<int>(MachineId::CVAX))
    ->Arg(static_cast<int>(MachineId::R3000))
    ->Arg(static_cast<int>(MachineId::SPARC));

void
BM_HandlerExecutionProfiled(benchmark::State &state)
{
    // Same work as BM_HandlerExecution on the R3000, but with cycle
    // attribution on: the delta between the two is the profiler's
    // enabled cost, and comparing BM_HandlerExecution across builds
    // with/without -DAOSD_DISABLE_OBSERVERS bounds the disabled cost
    // of all four observers.
    MachineDesc m = makeMachine(MachineId::R3000);
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    Profiler::instance().enable();
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
    Profiler::instance().disable();
    Profiler::instance().clear();
}
BENCHMARK(BM_HandlerExecutionProfiled);

void
BM_HandlerExecutionCounted(benchmark::State &state)
{
    // Same work again with the hardware counters on: the delta from
    // BM_HandlerExecution is the counters' enabled cost (the disabled
    // cost is bounded with -DAOSD_DISABLE_OBSERVERS, as above).
    MachineDesc m = makeMachine(MachineId::R3000);
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    CounterWindow window;
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
}
BENCHMARK(BM_HandlerExecutionCounted);

void
BM_HandlerExecutionTraced(benchmark::State &state)
{
    // Same work again with the tracer on: the delta from
    // BM_HandlerExecution is the tracer's enabled cost. With it off,
    // every trace site in the exec/mem hot paths is a single
    // thread-local flag test (tracerEnabled()), so BM_HandlerExecution
    // itself is the disabled cost.
    MachineDesc m = makeMachine(MachineId::R3000);
    HandlerProgram prog = buildHandler(m, Primitive::Trap);
    ExecModel exec(m);
    Tracer::instance().enable(1 << 16);
    for (auto _ : state) {
        ExecResult r = exec.run(prog);
        benchmark::DoNotOptimize(r.cycles);
        exec.reset();
    }
    Tracer::instance().disable();
    Tracer::instance().clear();
}
BENCHMARK(BM_HandlerExecutionTraced);

void
BM_PrimitiveSpanTraced(benchmark::State &state)
{
    // A full span-traced request around one kernel primitive: the
    // begin/end bookkeeping, the RAII scope inside syscall() and the
    // per-phase leaves. With spantrace off, every hook is a single
    // thread-local flag test (spantraceEnabled()), so comparing the plain
    // kernel benchmarks across builds with/without
    // -DAOSD_DISABLE_OBSERVERS bounds the disabled cost.
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    AddressSpace &app = kernel.createSpace("app");
    kernel.contextSwitchTo(app);
    CounterWindow window;
    // Small capacity: steady state exercises the drop path too, so
    // memory stays bounded however long the benchmark runs.
    SpanTracer::instance().enable(64);
    std::uint64_t id = 0;
    for (auto _ : state) {
        SpanTracer::instance().beginRequest("null_syscall", id++,
                                            kernel.elapsedCycles());
        kernel.syscall();
        SpanTracer::instance().endRequest(kernel.elapsedCycles());
    }
    SpanTracer::instance().take();
}
BENCHMARK(BM_PrimitiveSpanTraced);

void
BM_TlbLookup(benchmark::State &state)
{
    TlbDesc desc;
    desc.entries = static_cast<std::uint32_t>(state.range(0));
    desc.processIdTags = true;
    Tlb tlb(desc);
    for (std::uint32_t i = 0; i < desc.entries; ++i)
        tlb.insert(i, 1, i, {});
    Vpn v = 0;
    for (auto _ : state) {
        TlbLookup r = tlb.lookup(v, 1);
        benchmark::DoNotOptimize(r.hit);
        v = (v + 1) % desc.entries;
    }
}
BENCHMARK(BM_TlbLookup)->Arg(64)->Arg(256);

void
BM_PageTableWalk(benchmark::State &state)
{
    auto table = state.range(0) == 0 ? makeLinearPageTable(1 << 20)
                 : state.range(0) == 1 ? makeMultiLevelPageTable()
                                       : makeHashedPageTable(1024);
    for (Vpn v = 0; v < 4096; ++v)
        table->map(v, Pte{v, {}, false, false, false});
    Vpn v = 0;
    for (auto _ : state) {
        WalkResult r = table->walk(v);
        benchmark::DoNotOptimize(r.pte);
        v = (v + 1) % 4096;
    }
}
BENCHMARK(BM_PageTableWalk)->Arg(0)->Arg(1)->Arg(2);

void
BM_LrpcSimulation(benchmark::State &state)
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::CVAX);
    for (auto _ : state) {
        LrpcModel model(m);
        LrpcBreakdown b = model.nullCall();
        benchmark::DoNotOptimize(b.totalUs());
    }
}
BENCHMARK(BM_LrpcSimulation);

void
BM_WorkloadRun(benchmark::State &state)
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    AppProfile app = workloadByName("spellcheck-1");
    for (auto _ : state) {
        MachSystem sys(m, OsStructure::SmallKernel);
        Table7Row row = sys.run(app);
        benchmark::DoNotOptimize(row.kernelTlbMisses);
    }
}
BENCHMARK(BM_WorkloadRun);

void
BM_WorkloadRunSampled(benchmark::State &state)
{
    // BM_WorkloadRun with the periodic counter sampler on: the delta
    // against BM_WorkloadRun is the enabled sampling cost, and
    // comparing BM_WorkloadRun itself across builds with/without
    // -DAOSD_DISABLE_OBSERVERS bounds the disabled-but-compiled-in
    // cost of all four observers (CI gates that below 3%).
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    AppProfile app = workloadByName("spellcheck-1");
    OsModelConfig cfg;
    cfg.samplingIntervalCycles = 1'000'000;
    for (auto _ : state) {
        MachSystem sys(m, OsStructure::SmallKernel, cfg);
        Table7Row row = sys.run(app);
        benchmark::DoNotOptimize(row.timeseries.samples.size());
    }
}
BENCHMARK(BM_WorkloadRunSampled);

/** Shared body of the kernel-window charging benchmarks: a seeded
 *  randomized stream of homogeneous event runs (the traffic driver's
 *  replayEventMix) against one R3000 kernel with counters and the
 *  profiler on — the instrumentation state a report run charges
 *  under. `batched` selects the closed-form batch charger or the
 *  per-event reference loop; the two produce byte-identical state, so
 *  the events/sec ratio is the batch win (CI gates it >= 5x). */
void
kernelWindowChargingBody(benchmark::State &state, bool batched)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    AddressSpace &space = kernel.createSpace("mix");
    space.mapRange(0x1000, 64, 0x50000, {});
    CounterWindow window;
    Profiler::instance().enable();
    const bool batch_was = batchEnabled();
    setBatchEnabled(batched);
    constexpr std::uint64_t eventsPerIter = 100'000;
    std::uint64_t seed = 1;
    std::uint64_t events = 0;
    for (auto _ : state)
        events += replayEventMix(kernel, &space, eventsPerIter, seed++);
    setBatchEnabled(batch_was);
    Profiler::instance().disable();
    Profiler::instance().clear();
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}

void
BM_KernelWindowBatched(benchmark::State &state)
{
    kernelWindowChargingBody(state, true);
}
BENCHMARK(BM_KernelWindowBatched);

void
BM_KernelWindowPerEvent(benchmark::State &state)
{
    kernelWindowChargingBody(state, false);
}
BENCHMARK(BM_KernelWindowPerEvent);

void
BM_TrafficRun(benchmark::State &state)
{
    // One serial traffic sweep — 10k requests per load level on the
    // R3000 across the default four levels — the unit of work the
    // million-request aosd_traffic sweeps scale up.
    TrafficConfig cfg;
    cfg.requestsPerLevel = 10'000;
    cfg.machines = {MachineId::R3000};
    for (auto _ : state) {
        ParallelRunner serial(1);
        Json doc = buildTrafficDoc(cfg, serial);
        benchmark::DoNotOptimize(doc.size());
    }
}
BENCHMARK(BM_TrafficRun)->Unit(benchmark::kMillisecond);

void
BM_CopyModel(benchmark::State &state)
{
    const MachineDesc &m = sharedCostDb().machine(MachineId::R3000);
    for (auto _ : state) {
        Cycles c = copyCycles(m, 4096);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CopyModel);

/** Retire the state one buildReport run leaves in the calling thread:
 *  the registry's retired stat aggregates and the profiler's tree
 *  both grow per run, so without this each iteration measures a
 *  bigger heap than the last. Called with timing paused. */
void
resetReportState()
{
    StatRegistry::instance().resetAll();
    Profiler::instance().clear();
}

void
BM_ReportFull(benchmark::State &state)
{
    // Every report figure, serial, with the R3000 Table 7 grid run
    // once and shared by the table7, headline and kernel-window
    // figures: the --jobs 1 wall-clock baseline that CI's
    // BENCH_report.json speedup column divides by. Also the
    // predecode perf gate's numerator/denominator: CI runs the binary
    // twice, the second time under AOSD_NO_PREDECODE=1 (the
    // reference path is selected by environment, as in every tool),
    // and fails if the on/off ratio falls below 3x.
    for (auto _ : state) {
        ParallelRunner serial(1);
        Json report = buildReport(serial);
        benchmark::DoNotOptimize(report.size());
        state.PauseTiming();
        resetReportState();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_ReportFull)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ReportParallel(benchmark::State &state)
{
    // The same report, its one Table 7 grid run included, fanned
    // over N workers; real time, because the point is wall-clock
    // speedup (CPU time only goes up with threads). The output is
    // byte-identical to BM_ReportFull's.
    for (auto _ : state) {
        ParallelRunner runner(
            static_cast<unsigned>(state.range(0)));
        Json report = buildReport(runner);
        benchmark::DoNotOptimize(report.size());
        state.PauseTiming();
        resetReportState();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_ReportParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_DashboardRender(benchmark::State &state)
{
    // Render-only cost of the unified observability site: the input
    // documents are built once outside the loop, so the figure
    // tracks HTML/SVG generation, not simulation.
    static const Json report = [] {
        ParallelRunner serial(1);
        Json doc = buildReport(serial);
        resetReportState();
        return doc;
    }();
    static const Json traffic = [] {
        TrafficConfig cfg;
        cfg.requestsPerLevel = 2'000;
        cfg.machines = {MachineId::R3000};
        ParallelRunner serial(1);
        return buildTrafficDoc(cfg, serial);
    }();
    DashboardInputs in;
    in.report = &report;
    in.traffic = {&traffic};
    for (auto _ : state) {
        ParallelRunner serial(1);
        DashboardSite site =
            buildDashboardSite(in, DashboardOptions{}, serial);
        benchmark::DoNotOptimize(site.pages.back().html.size());
    }
}
BENCHMARK(BM_DashboardRender)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
