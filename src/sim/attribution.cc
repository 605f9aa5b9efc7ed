#include "sim/attribution.hh"

namespace aosd
{

namespace obsdetail
{

thread_local constinit std::uint8_t on = 0;

namespace
{

/** A leaf's span-tracer and tracer halves. */
void
spanAndTrace(const ObsLeaf &leaf, TraceEvent event)
{
    if (spantraceEnabled())
        SpanTracer::instance().leaf(leaf.name, leaf.cycles);
    if (leaf.traceName && tracerEnabled())
        Tracer::instance().completeHere(leaf.cycles, event,
                                        leaf.traceName, leaf.traceArg);
}

} // namespace

void
leaf(const ObsLeaf &leaf, TraceEvent event)
{
    if (profilerEnabled())
        Profiler::instance().addLeafCycles(leaf.name, leaf.cycles);
    spanAndTrace(leaf, event);
}

void
group(const char *group, std::span<const ObsLeaf> leaves,
      TraceEvent event)
{
    ProfScope prof(group);
    SpanTracer &spans = SpanTracer::instance();
    const std::uint64_t gen = spans.generation();
    SpanNode *span = spans.push(group, 0, /*group=*/true);
    for (const ObsLeaf &l : leaves)
        leaf(l, event);
    if (span)
        spans.pop(span, 0, gen);
}

void
causes(const ObsLeaf &leaf, std::span<const ObsLeaf> causes,
       TraceEvent event)
{
    if (profilerEnabled()) {
        ProfScope scope(leaf.name);
        for (const ObsLeaf &c : causes)
            if (c.cycles)
                Profiler::instance().addLeafCycles(c.name, c.cycles);
    }
    spanAndTrace(leaf, event);
}

} // namespace obsdetail

void
ObsScope::enter(const char *name, const Cycles &clock, ObsTrace trace,
                TraceEvent begin, TraceEvent end)
{
    if (profilerEnabled())
        prof_.enter(name);
    if (spantraceEnabled()) {
        SpanTracer &spans = SpanTracer::instance();
        spanGen_ = spans.generation();
        span_ = spans.push(name, clock);
        clock_ = &clock;
    }
    if (trace == ObsTrace::None || !tracerEnabled())
        return;
    clock_ = &clock;
    name_ = name;
    start_ = clock;
    end_ = end;
    trace_ = trace;
    if (trace == ObsTrace::Pair)
        Tracer::instance().recordAt(start_, begin, TracePhase::Begin,
                                    name);
}

void
ObsScope::leave()
{
    if (trace_ == ObsTrace::Pair)
        Tracer::instance().recordAt(*clock_, end_, TracePhase::End,
                                    name_);
    else if (trace_ == ObsTrace::Complete)
        Tracer::instance().complete(start_, *clock_ - start_, end_,
                                    name_);
    if (span_)
        SpanTracer::instance().pop(span_, *clock_, spanGen_);
}

void
ObsRepeat::enter(const char *name, std::uint64_t n)
{
    Profiler &prof = Profiler::instance();
    entryAttributed_ = prof.attributedCycles();
    n_ = n;
    node_ = prof.pushRepeated(name, n);
}

void
ObsRepeat::leave()
{
    Profiler &prof = Profiler::instance();
    const Cycles inside = prof.attributedCycles() - entryAttributed_;
    prof.popRepeated(node_, inside / n_, n_);
}

} // namespace aosd
