/**
 * @file
 * perfbench_layers: the traced half of the benchmark.
 *
 * Calls each layer's public functions from outside the library and
 * records a span (name, start, end, parent, workload) around every
 * call. Nothing inside src/ is instrumented; the spans sit at the
 * boundaries a caller can see.
 *
 *   perfbench_layers --out DIR --perfdb PATH [--traffic-seed N]
 *
 * Sections, each one top-level span:
 *   docs_suite     the in-process equivalent of the docs_suite CLI
 *                  iteration (aosd_report, aosd_counters, kernel
 *                  windows, aosd_profile, small traffic sweep,
 *                  aosd_dashboard) at 2 jobs; its documents are
 *                  written to DIR so run.py can check them
 *                  byte-for-byte against the CLI outputs;
 *   grid_machines  buildKernelWindowsDoc for each Table 1 machine,
 *                  serial;
 *   traffic_mix    the bursty open-loop and closed-loop sweeps,
 *                  serial, seeded with --traffic-seed;
 *   layers         single-layer probes: serial Table 7 builders,
 *                  per-cell grid timing, SimKernel, Tlb, page table,
 *                  handler replay, batch charger, observer overheads
 *                  and the JSON parser.
 *
 * DIR/layers.json holds the span list (nanoseconds from process
 * start) and the probe metrics; run.py derives every per-layer
 * metric from it.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "cpu/decoded_program.hh"
#include "cpu/exec_model.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "os/kernel/kernel.hh"
#include "sim/batch/batch.hh"
#include "sim/counters/counters.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/perfdb/perfdb.hh"
#include "sim/profile/profile.hh"
#include "study/counters_report.hh"
#include "study/dashboard/dashboard.hh"
#include "study/figures.hh"
#include "study/profile_report.hh"
#include "study/report.hh"
#include "study/span_report.hh"
#include "study/timeseries_report.hh"
#include "workload/app_profile.hh"
#include "workload/os_model.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - processStart)
        .count();
}

/** In-memory span list; written once, when the run ends. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string workload;
        std::int64_t start = 0;
        std::int64_t end = -1;
        int parent = -1;
    };

    int
    open(const std::string &name, const std::string &workload)
    {
        Span s;
        s.name = name;
        s.workload = workload;
        s.parent = stack.empty() ? -1 : stack.back();
        s.start = nowNs();
        spans.push_back(s);
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        spans[id].end = nowNs();
        stack.pop_back();
    }

    double
    seconds(int id) const
    {
        return (spans[id].end - spans[id].start) / 1e9;
    }

    Json
    toJson() const
    {
        Json arr = Json::array();
        for (const Span &s : spans) {
            Json j = Json::object();
            j.set("name", s.name);
            j.set("workload", s.workload);
            j.set("start_ns", static_cast<std::int64_t>(s.start));
            j.set("end_ns", static_cast<std::int64_t>(s.end));
            j.set("parent", s.parent);
            arr.push(std::move(j));
        }
        return arr;
    }

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
};

SpanLog spanLog;
std::string currentWorkload;
Json metrics = Json::object();

/** RAII span; `seconds()` once closed. */
class Scope
{
  public:
    explicit Scope(const std::string &name)
        : id(spanLog.open(name, currentWorkload))
    {}
    ~Scope() { finish(); }

    double
    finish()
    {
        if (!closed) {
            spanLog.close(id);
            closed = true;
        }
        return spanLog.seconds(id);
    }

  private:
    int id;
    bool closed = false;
};

void
metric(const std::string &name, double value)
{
    metrics.set(name, value);
}

/** Keep the optimiser from discarding a probe's result. */
volatile std::uint64_t sink = 0;

/** Median of `rounds` timings of `body`, in ns per op. */
double
medianNsPerOp(unsigned rounds, std::uint64_t ops,
              const std::function<void()> &body)
{
    std::vector<double> v;
    for (unsigned r = 0; r < rounds; ++r) {
        std::int64_t t0 = nowNs();
        body();
        v.push_back(static_cast<double>(nowNs() - t0) / ops);
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out)
        fatal("cannot write %s", path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
dumpDoc(const Json &doc)
{
    Scope s("sim.json.dump");
    return doc.dump(1);
}

using Builder = std::vector<Figure> (*)(ParallelRunner &);

struct NamedBuilder
{
    const char *name;
    Builder fn;
};

/** allFigures() in table order, one span per builder. */
const NamedBuilder figureBuilders[] = {
    {"study.table1_figures", table1Figures},
    {"study.table2_figures", table2Figures},
    {"study.table3_figures", table3Figures},
    {"study.table4_figures", table4Figures},
    {"study.table5_figures", table5Figures},
    {"study.table6_figures", table6Figures},
    {"study.table7_figures", table7Figures},
    {"study.headline_figures", headlineFigures},
    {"study.counters_figures", countersFigures},
    {"study.kernel_window_figures", kernelWindowFigures},
    {"study.calibration_figures", calibrationFigures},
};

// ---- docs_suite -----------------------------------------------------

void
docsSuite(const std::string &dir, const std::string &perfdb_path)
{
    currentWorkload = "docs_suite";
    Scope top("docs_suite");
    ParallelRunner runner(2);
    const std::vector<MachineDesc> machines = table1Machines();

    Json report, counters, kw, profile, spans, traffic;
    {
        Scope cli("tools.aosd_report");
        {
            Scope s("study.report");
            std::vector<Figure> figs;
            for (const NamedBuilder &b : figureBuilders) {
                Scope bs(b.name);
                std::vector<Figure> part = b.fn(runner);
                figs.insert(figs.end(), part.begin(), part.end());
            }
            Scope assemble("study.report_assemble");
            report = buildReport(figs);
        }
        Json ts;
        {
            Scope s("study.timeseries");
            ts = buildTimeseriesDoc(runner);
        }
        std::string ts_text;
        {
            Scope s("sim.json.dump_timeseries");
            ts_text = ts.dump(1);
        }
        writeFile(dir + "/timeseries.json", ts_text);
        {
            Scope s("study.spans");
            spans = buildSpansDoc(runner);
        }
        writeFile(dir + "/spans.json", dumpDoc(spans));
        writeFile(dir + "/report.json", dumpDoc(report));
    }
    {
        Scope cli("tools.aosd_counters");
        {
            Scope s("study.counters");
            counters = buildCountersDoc(
                countAllPrimitives(machines, 16, runner), 16);
        }
        writeFile(dir + "/counters.json", dumpDoc(counters));
    }
    {
        Scope cli("tools.aosd_counters_kernel_windows");
        {
            Scope s("study.kernel_windows");
            kw = buildKernelWindowsDoc(makeMachine(MachineId::R3000),
                                       runner);
        }
        writeFile(dir + "/kernel_windows.json", dumpDoc(kw));
    }
    {
        Scope cli("tools.aosd_profile");
        {
            Scope s("study.profile");
            profile = buildProfileDoc(
                machines, profileAllPrimitives(machines, 16, runner),
                16);
        }
        writeFile(dir + "/profile.json", dumpDoc(profile));
    }
    {
        Scope cli("tools.aosd_traffic");
        TrafficConfig cfg;
        cfg.requestsPerLevel = 20000;
        {
            Scope s("workload.traffic");
            traffic = buildTrafficDoc(cfg, runner);
        }
        writeFile(dir + "/traffic.json", dumpDoc(traffic));
    }
    {
        Scope cli("tools.aosd_dashboard");
        PerfDb db;
        std::string err;
        {
            Scope s("sim.perfdb.load");
            if (!db.load(perfdb_path, &err))
                fatal("perfdb %s: %s", perfdb_path.c_str(),
                      err.c_str());
        }
        DashboardInputs in;
        in.report = &report;
        in.counters = &counters;
        in.kernelWindows = &kw;
        in.profile = &profile;
        in.spans = &spans;
        in.traffic = {&traffic};
        in.db = &db;
        Scope s("study.dashboard");
        DashboardSite site =
            buildDashboardSite(in, DashboardOptions{}, runner);
        if (!validateDashboardLinks(site).empty())
            fatal("dashboard link check failed");
        if (!writeDashboardSite(site, dir + "/site", &err))
            fatal("dashboard write: %s", err.c_str());
    }
}

// ---- grid_machines --------------------------------------------------

void
gridMachines(const std::string &dir)
{
    currentWorkload = "grid_machines";
    Scope top("grid_machines");
    ParallelRunner serial(1);
    for (const MachineDesc &m : table1Machines()) {
        const std::string slug = machineSlug(m.id);
        Scope cli("tools.aosd_counters_kernel_windows." + slug);
        Json doc;
        {
            Scope s("workload.grid." + slug);
            doc = buildKernelWindowsDoc(m, serial);
        }
        writeFile(dir + "/kw_" + slug + ".json", dumpDoc(doc));
    }
}

// ---- traffic_mix ----------------------------------------------------

void
trafficMix(const std::string &dir, std::uint64_t seed)
{
    currentWorkload = "traffic_mix";
    Scope top("traffic_mix");
    ParallelRunner serial(1);
    TrafficConfig open;
    open.arrival = TrafficArrival::Bursty;
    open.seed = seed;
    TrafficConfig closed;
    closed.mode = TrafficMode::Closed;
    closed.levels = {1, 4, 16, 64};
    closed.seed = seed;
    for (const auto &[label, cfg] :
         {std::pair<std::string, TrafficConfig>{"open_bursty", open},
          {"closed", closed}}) {
        Scope cli("tools.aosd_traffic." + label);
        Json doc;
        double secs;
        {
            Scope s("workload.traffic." + label);
            doc = buildTrafficDoc(cfg, serial);
            secs = s.finish();
        }
        metric("workload.traffic_requests_per_s." + label,
               doc.at("total_requests").asNumber() / secs);
        writeFile(dir + "/traffic_" + label + ".json", dumpDoc(doc));
    }
}

// ---- single-layer probes --------------------------------------------

/** Serial Table 7 builders and per-cell grid timing (study, sim). */
void
probeStudyAndParallel()
{
    ParallelRunner serial(1);
    {
        Scope s("study.serial_table7_builders");
        for (const NamedBuilder &b : figureBuilders) {
            const std::string name = b.name;
            if (name != "study.table7_figures" &&
                name != "study.headline_figures" &&
                name != "study.kernel_window_figures")
                continue;
            Scope bs(name + ".serial");
            sink = sink + b.fn(serial).size();
        }
    }
    const MachineDesc r3000 = makeMachine(MachineId::R3000);
    double serial_sum = 0, long_pole = 0;
    {
        Scope s("sim.parallel.cells_serial");
        for (OsStructure st :
             {OsStructure::Monolithic, OsStructure::SmallKernel})
            for (const AppProfile &app : table7Workloads()) {
                std::int64_t t0 = nowNs();
                MachSystem sys(r3000, st);
                sink = sink + sys.run(app).systemCalls;
                double cell = (nowNs() - t0) / 1e9;
                serial_sum += cell;
                long_pole = std::max(long_pole, cell);
            }
    }
    ParallelRunner two(2);
    double wall2;
    {
        Scope s("sim.parallel.grid_jobs2");
        sink = sink + runMachGrid(r3000, two).size();
        wall2 = s.finish();
    }
    metric("sim.parallel.efficiency", serial_sum / (2.0 * wall2));
    metric("sim.parallel.long_pole_s", long_pole);
}

/** SimKernel touchPages and context switches, per machine (os). */
void
probeKernel(const MachineDesc &m)
{
    const std::string slug = machineSlug(m.id);
    const std::uint32_t entries = m.tlb.entries;
    auto touchNs = [&](std::uint32_t pages_n) {
        SimKernel k(m);
        AddressSpace &space = k.createSpace("probe");
        space.mapRange(0x1000, pages_n, 0x80000, {});
        k.contextSwitchTo(space);
        std::vector<Vpn> pages;
        for (std::uint32_t i = 0; i < pages_n; ++i)
            pages.push_back(0x1000 + i);
        const std::uint64_t passes = 400'000 / pages_n + 1;
        k.touchPages(pages, false); // warm: the fitting set now hits
        return medianNsPerOp(5, passes * pages_n, [&] {
            for (std::uint64_t p = 0; p < passes; ++p)
                k.touchPages(pages, false);
            sink = sink + k.elapsedCycles();
        });
    };
    metric("os.kernel.touch_pages_ns." + slug, touchNs(entries * 4));
    metric("os.kernel.touch_pages_hit_ns." + slug,
           touchNs(std::max<std::uint32_t>(entries / 4, 1)));

    SimKernel k(m);
    AddressSpace &a = k.createSpace("a");
    AddressSpace &b = k.createSpace("b");
    a.mapRange(0x1000, 8, 0x80000, {});
    b.mapRange(0x1000, 8, 0x90000, {});
    a.setWorkingSet(0x1000, 8);
    b.setWorkingSet(0x1000, 8);
    constexpr std::uint64_t switches = 20'000;
    metric("os.kernel.context_switch_ns." + slug,
           medianNsPerOp(5, switches, [&] {
               for (std::uint64_t i = 0; i < switches; i += 2) {
                   k.contextSwitchTo(a);
                   k.contextSwitchTo(b);
               }
               sink = sink + k.elapsedCycles();
           }));
}

/** Tlb lookups, miss+refill and purges per geometry (mem). */
void
probeTlb(const std::string &geometry, std::uint32_t entries, bool tagged)
{
    TlbDesc d;
    d.entries = entries;
    d.processIdTags = tagged;
    d.pidCount = tagged ? 64 : 0;
    const Asid asid = 1;

    Tlb hit(d);
    const std::uint32_t resident = entries / 2;
    for (std::uint32_t i = 0; i < resident; ++i)
        hit.insert(0x100 + i, asid, 0x800 + i, {});
    constexpr std::uint64_t lookups = 1'000'000;
    metric("mem.tlb.lookup_hit_ns." + geometry,
           medianNsPerOp(5, lookups, [&] {
               std::uint64_t pfns = 0;
               for (std::uint64_t i = 0; i < lookups; ++i)
                   pfns += hit.lookup(0x100 + i % resident, asid).pfn;
               sink = sink + pfns;
           }));

    Tlb miss(d);
    const std::uint32_t cycle = entries * 4;
    constexpr std::uint64_t refills = 500'000;
    metric("mem.tlb.miss_refill_ns." + geometry,
           medianNsPerOp(5, refills, [&] {
               for (std::uint64_t i = 0; i < refills; ++i) {
                   Vpn vpn = 0x100 + i % cycle;
                   TlbLookup r = miss.lookup(vpn, asid);
                   if (!r.hit)
                       miss.refill(vpn, asid, vpn + 0x800, {},
                                   r.fillCell);
               }
               sink = sink + miss.validEntries();
           }));

    // A purge empties a full TLB; only the purge itself is timed.
    Tlb purge(d);
    constexpr unsigned purges = 20'000;
    std::vector<double> rounds;
    for (unsigned r = 0; r < 5; ++r) {
        std::int64_t spent = 0;
        for (unsigned i = 0; i < purges; ++i) {
            for (std::uint32_t e = 0; e < entries; ++e)
                purge.insert(0x100 + e, asid, 0x800 + e, {});
            std::int64_t t0 = nowNs();
            purge.invalidateAll();
            spent += nowNs() - t0;
        }
        rounds.push_back(static_cast<double>(spent) / purges);
    }
    std::sort(rounds.begin(), rounds.end());
    metric("mem.tlb.purge_ns." + geometry, rounds[rounds.size() / 2]);
}

/** Page-table walks on the R3000's table structure (mem). */
void
probePageTable()
{
    auto pt = makePageTableFor(makeMachine(MachineId::R3000));
    constexpr std::uint32_t mapped = 4096;
    for (std::uint32_t i = 0; i < mapped; ++i)
        pt->map(0x1000 + i, Pte{0x80000 + i, {}, false, false, false});
    constexpr std::uint64_t walks = 1'000'000;
    metric("mem.page_table.walk_ns", medianNsPerOp(5, walks, [&] {
               std::uint64_t refs = 0;
               std::uint64_t x = 12345;
               for (std::uint64_t i = 0; i < walks; ++i) {
                   x = x * 6364136223846793005ull + 1442695040888963407ull;
                   refs += pt->walk(0x1000 + (x >> 33) % mapped)
                               .memoryRefs;
               }
               sink = sink + refs;
           }));
}

/** Pre-decoded handler replay of the Table 1 primitives (cpu). */
void
probeReplay(const MachineDesc &m)
{
    ExecModel em(m);
    constexpr std::uint64_t reps = 20'000;
    std::vector<const DecodedProgram *> progs;
    for (Primitive p : allPrimitives)
        progs.push_back(&cachedDecodedHandler(m, p));
    metric(std::string("cpu.replay_ns.") + machineSlug(m.id),
           medianNsPerOp(5, reps * progs.size(), [&] {
               std::uint64_t cycles = 0;
               for (std::uint64_t i = 0; i < reps; ++i)
                   for (const DecodedProgram *d : progs)
                       cycles += em.runDecoded(*d).cycles;
               sink = sink + cycles;
           }));
}

/** replayEventMix with the batch charger on and off (sim/batch). */
void
probeBatch()
{
    const MachineDesc m = makeMachine(MachineId::R3000);
    HwCounters::instance().enable();
    Profiler::instance().enable();
    const bool was = batchEnabled();
    for (bool batched : {true, false}) {
        setBatchEnabled(batched);
        SimKernel kernel(m);
        AddressSpace &space = kernel.createSpace("mix");
        space.mapRange(0x1000, 64, 0x50000, {});
        const std::uint64_t per_round = batched ? 2'000'000 : 200'000;
        std::uint64_t seed = 1;
        double ns = medianNsPerOp(5, 1, [&] {
            sink = sink +
                   replayEventMix(kernel, &space, per_round, seed++);
        });
        metric(batched ? "sim.batch.events_per_s"
                       : "sim.batch.per_event_events_per_s",
               per_round / (ns / 1e9));
    }
    setBatchEnabled(was);
    Profiler::instance().disable();
    Profiler::instance().clear();
    HwCounters::instance().disable();
    HwCounters::instance().reset();
}

/** MachSystem::run with one observer armed against none; returns
 *  the median overhead in percent over rounds that alternate which
 *  side runs first. */
double
observerOverheadPct(const OsModelConfig &on)
{
    const MachineDesc m = makeMachine(MachineId::R3000);
    const AppProfile app = table7Workloads().front();
    constexpr int runs = 16;
    auto timeRuns = [&](const OsModelConfig &cfg) {
        std::int64_t t0 = nowNs();
        for (int i = 0; i < runs; ++i) {
            MachSystem sys(m, OsStructure::SmallKernel, cfg);
            sink = sink + sys.run(app).systemCalls;
        }
        return static_cast<double>(nowNs() - t0);
    };
    std::vector<double> pct;
    for (int r = 0; r < 6; ++r) {
        double off, armed;
        if (r % 2) {
            armed = timeRuns(on);
            off = timeRuns(OsModelConfig{});
        } else {
            off = timeRuns(OsModelConfig{});
            armed = timeRuns(on);
        }
        pct.push_back(100.0 * (armed - off) / off);
    }
    std::sort(pct.begin(), pct.end());
    return (pct[2] + pct[3]) / 2;
}

void
probeObservers()
{
    OsModelConfig sampled;
    sampled.samplingIntervalCycles = 1'000'000;
    metric("sim.observers.sampler_overhead_pct",
           observerOverheadPct(sampled));
    OsModelConfig windowed;
    windowed.measureKernelWindow = true;
    metric("sim.observers.kernel_window_overhead_pct",
           observerOverheadPct(windowed));
}

/** Parse of the timeseries document written by the docs section. */
void
probeJsonParse(const std::string &dir)
{
    const std::string text = readFile(dir + "/timeseries.json");
    double ns = medianNsPerOp(3, 1, [&] {
        std::string err;
        Json doc = Json::parse(text, &err);
        if (!err.empty())
            fatal("timeseries parse: %s", err.c_str());
        sink = sink + doc.size();
    });
    metric("sim.json.parse_mb_per_s", text.size() / 1e6 / (ns / 1e9));
    metric("sim.json.timeseries_mb", text.size() / 1e6);
}

void
layerProbes(const std::string &dir)
{
    currentWorkload = "layers";
    Scope top("layers");
    {
        Scope s("probe.study_parallel");
        probeStudyAndParallel();
    }
    {
        Scope s("probe.os_kernel");
        for (const MachineDesc &m : table1Machines())
            probeKernel(m);
    }
    {
        Scope s("probe.mem");
        probeTlb("u28", 28, false);
        probeTlb("u56", 56, false);
        probeTlb("t64", 64, true);
        probeTlb("t128", 128, true);
        probePageTable();
    }
    {
        Scope s("probe.cpu_replay");
        for (const MachineDesc &m : table1Machines())
            probeReplay(m);
    }
    {
        Scope s("probe.batch");
        probeBatch();
    }
    {
        Scope s("probe.observers");
        probeObservers();
    }
    {
        Scope s("probe.json_parse");
        probeJsonParse(dir);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir;
    std::string perfdb;
    std::uint64_t traffic_seed = 0x5eedf00d;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        if (arg == "--out")
            dir = argv[i + 1];
        else if (arg == "--perfdb")
            perfdb = argv[i + 1];
        else if (arg == "--traffic-seed")
            traffic_seed = std::strtoull(argv[i + 1], nullptr, 0);
        else
            fatal("unknown argument %s", arg.c_str());
    }
    if (dir.empty() || perfdb.empty() || argc % 2 == 0) {
        std::fprintf(stderr, "usage: %s --out DIR --perfdb PATH "
                             "[--traffic-seed N]\n",
                     argv[0]);
        return 2;
    }

    docsSuite(dir, perfdb);
    gridMachines(dir);
    trafficMix(dir, traffic_seed);
    layerProbes(dir);

    Json out = Json::object();
    out.set("spans", spanLog.toJson());
    out.set("metrics", metrics);
    writeFile(dir + "/layers.json", out.dump(1));
    return 0;
}
