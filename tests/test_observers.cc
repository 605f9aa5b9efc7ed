/**
 * @file
 * The one observer switch (sim/observers.hh): with all four observers
 * enabled, a syscall inside a traced request and a sampled window
 * records in every one of them in the default build, and in none of
 * them when -DAOSD_DISABLE_OBSERVERS=ON folds the hooks away. This is
 * the test the compiled-out build runs. Also the one attribution hook
 * (sim/attribution.hh): the profiler and the span tracer it feeds
 * charge every shared cause the same cycles.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "arch/machines.hh"
#include "os/ipc/lrpc.hh"
#include "os/ipc/urpc.hh"
#include "os/kernel/kernel.hh"
#include "sim/counters/counters.hh"
#include "sim/observers.hh"
#include "sim/profile/profile.hh"
#include "sim/sampling/sampler.hh"
#include "sim/spantrace/spantrace.hh"

using namespace aosd;

namespace
{

TEST(ObserversTest, CompiledOutHooksRecordNothing)
{
    MachineDesc m = makeMachine(MachineId::R3000);
    SimKernel kernel(m);
    kernel.contextSwitchTo(kernel.createSpace("app"));

    Profiler &prof = Profiler::instance();
    SpanTracer &spans = SpanTracer::instance();
    prof.enable();
    spans.enable(4);
    CounterWindow window(true, {1, 16}, kernel.elapsedCycles());

    spans.beginRequest("null_syscall", 0, kernel.elapsedCycles());
    kernel.syscall();
    spans.endRequest(kernel.elapsedCycles());
    CounterSampler::instance().tick(kernel.elapsedCycles());
    CounterTimeSeries series = window.finish(kernel.elapsedCycles());

    const bool records = observersCompiledIn;
    EXPECT_NE(prof.root().children.empty(), records);
    EXPECT_EQ(prof.attributedCycles() > 0, records);
    EXPECT_EQ(window.events().totalEvents() > 0, records);
    EXPECT_NE(series.empty(), records);
    SpanSession session = spans.take();
    EXPECT_EQ(session.requests.size(), records ? 1u : 0u);
    EXPECT_NE(session.hists.empty(), records);

    prof.disable();
    prof.clear();
}

/** Inclusive cycles per path ("syscall/kernel_entry_exit") below
 *  `node`; span nodes of one path (repeated invocations) sum. */
void
spanPaths(const SpanNode &node, const std::string &prefix,
          std::map<std::string, Cycles> &out)
{
    for (const SpanNode &c : node.children) {
        const std::string path = prefix + c.name;
        out[path] += c.cycles;
        spanPaths(c, path + "/", out);
    }
}

void
profPaths(const ProfNode &node, const std::string &prefix,
          std::map<std::string, Cycles> &out)
{
    for (const auto &c : node.children) {
        const std::string path = prefix + c->name;
        out[path] = c->totalCycles();
        profPaths(*c, path + "/", out);
    }
}

TEST(ObserversTest, ProfilerAndSpansChargeTheSameCycles)
{
    if (!observersCompiledIn)
        GTEST_SKIP() << "observer hooks compiled out";
    // i860: an untagged TLB and a virtually addressed cache, so a
    // context switch charges a TLB purge and a cache flush, and the
    // LRPC round trip refills.
    MachineDesc m = makeMachine(MachineId::I860);
    SimKernel kernel(m);
    AddressSpace &a = kernel.createSpace("a");
    AddressSpace &b = kernel.createSpace("b");
    a.setWorkingSet(0x1000, 8);
    a.mapRange(0x1000, 8, 0x9000, {});
    b.setWorkingSet(0x2000, 8);
    b.mapRange(0x2000, 8, 0xa000, {});
    kernel.contextSwitchTo(a);

    Profiler &prof = Profiler::instance();
    SpanTracer &spans = SpanTracer::instance();
    prof.enable();
    spans.enable(1);
    spans.beginRequest("req", 0, kernel.elapsedCycles());
    kernel.syscall();
    kernel.trap();
    kernel.pteChange(a, 0x1001, {});
    kernel.contextSwitchTo(b);
    kernel.threadSwitch();
    kernel.otherException();
    kernel.emulateInstructions(1);
    kernel.emulateTestAndSet();
    LrpcModel(m).nullCall();
    UrpcModel(m).nullCall();
    spans.endRequest(kernel.elapsedCycles());
    prof.disable();

    SpanSession session = spans.take();
    ASSERT_EQ(session.requests.size(), 1u);
    std::map<std::string, Cycles> span_cycles, prof_cycles;
    spanPaths(session.requests[0].root, "", span_cycles);
    profPaths(prof.root(), "", prof_cycles);
    prof.clear();

    std::set<std::string> shared;
    for (const auto &[path, cycles] : span_cycles) {
        auto it = prof_cycles.find(path);
        if (it == prof_cycles.end())
            continue;
        shared.insert(path);
        EXPECT_EQ(it->second, cycles) << path;
    }
    // The comparison covers both trees: every span is a profiler node,
    // and every profiler node is a span except the hardware-cause
    // leaves the profiler alone splits a phase or a TLB refill into.
    const std::set<std::string> profiler_only = {
        "base", "write_buffer_stall", "cache_miss_stall", "uncached",
        "ctrl_reg", "microcode", "tlb_ops", "cache_maintenance",
        "trap_hardware", "fpu_sync", "miss_user", "miss_kernel",
        "miss_page_table"};
    for (const auto &[path, cycles] : span_cycles)
        EXPECT_TRUE(shared.count(path)) << "span only: " << path;
    for (const auto &[path, cycles] : prof_cycles) {
        const std::string leaf = path.substr(path.rfind('/') + 1);
        if (!profiler_only.count(leaf)) {
            EXPECT_TRUE(shared.count(path)) << "profiler only: " << path;
        }
    }
    for (const char *path :
         {"syscall", "syscall/kernel_entry_exit", "trap", "pte_change",
          "context_switch", "context_switch/tlb_purge",
          "context_switch/cache_flush", "context_switch/tlb_refill", "thread_switch", "exception",
          "emulate_instr", "emulated_test_and_set", "lrpc",
          "lrpc/tlb_refill", "urpc", "urpc/locks"})
        EXPECT_TRUE(shared.count(path)) << "not charged: " << path;
}

} // namespace
