/**
 * @file
 * The one observer switch (sim/observers.hh): with all four observers
 * enabled, a syscall inside a traced request and a sampled window
 * records in every one of them in the default build, and in none of
 * them when -DAOSD_DISABLE_OBSERVERS=ON folds the hooks away. This is
 * the test the compiled-out build runs.
 */

#include <gtest/gtest.h>

#include "arch/machines.hh"
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
    HwCounters &ctrs = HwCounters::instance();
    SpanTracer &spans = SpanTracer::instance();
    CounterSampler &sampler = CounterSampler::instance();
    prof.enable();
    ctrs.enable();
    spans.enable(4);
    sampler.begin({1, 16}, kernel.elapsedCycles());

    spans.beginRequest("null_syscall", 0, kernel.elapsedCycles());
    kernel.syscall();
    spans.endRequest(kernel.elapsedCycles());
    sampler.tick(kernel.elapsedCycles());
    sampler.finish(kernel.elapsedCycles());

    const bool records = observersCompiledIn;
    EXPECT_NE(prof.root().children.empty(), records);
    EXPECT_EQ(prof.attributedCycles() > 0, records);
    EXPECT_EQ(ctrs.snapshot().totalEvents() > 0, records);
    EXPECT_NE(sampler.series().empty(), records);
    SpanSession session = spans.take();
    EXPECT_EQ(session.requests.size(), records ? 1u : 0u);
    EXPECT_NE(session.hists.empty(), records);

    prof.disable();
    prof.clear();
    ctrs.disable();
    ctrs.reset();
}

} // namespace
