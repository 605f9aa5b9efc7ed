/**
 * @file
 * The one attribution hook.
 *
 * Three observers want to know where simulated cycles went: the
 * profiler (sim/profile) sums them into a tree of causes, the span
 * tracer (sim/spantrace) keeps each request's own tree, and the
 * Perfetto tracer (sim/trace.hh) lays them on a timeline. Model code
 * reports each charge once, here, and the hook fans it out to
 * whichever of the three are on:
 *
 *  - ObsScope: a primitive that advances a cycle clock — a profiler
 *    scope, a span, optionally a Complete record or a Begin/End pair;
 *  - obsLeaf, obsGroup: one charge, or an analytic model's component
 *    table under a profiler scope and a span group (whose duration is
 *    the sum of its leaves), each leaf optionally a trace record;
 *  - obsCauses: a charge the profiler splits into hardware causes (a
 *    handler phase and its CycleBreakdown) and spans see as one leaf;
 *  - ObsRepeat, obsLeafRepeated: n back-to-back scopes or leaves in
 *    closed form, byte-identical to n single ones. Only the profiler
 *    sees these: a run is coalesced only while the span tracer and the
 *    Perfetto tracer are idle (sim/batch).
 *
 * The consumers' flags are bits of one thread-local byte
 * (sim/observers.hh), so with all three off a hook is one load and a
 * branch; the fan-out lives out of line. ObsPause (sim/observers.hh)
 * pauses them across a helper simulation. The counters and the
 * sampler share the byte but count events, not charges: they keep
 * countEvent() and CounterWindow (sim/counters/counters.hh).
 */

#ifndef AOSD_SIM_ATTRIBUTION_HH
#define AOSD_SIM_ATTRIBUTION_HH

#include <cstdint>
#include <span>

#include "sim/observers.hh"
#include "sim/profile/profile.hh"
#include "sim/spantrace/spantrace.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"

namespace aosd
{

/** One charge: `cycles` to a profiler leaf and a span leaf `name`
 *  and, when `traceName` is set, a Complete record of that name and
 *  `traceArg` at the trace clock. Names must outlive the trace ring
 *  (string literals in practice). */
struct ObsLeaf
{
    const char *name = nullptr;
    Cycles cycles = 0;
    const char *traceName = nullptr;
    std::uint64_t traceArg = 0;
};

namespace obsdetail
{
void leaf(const ObsLeaf &leaf, TraceEvent event);
void group(const char *group, std::span<const ObsLeaf> leaves,
           TraceEvent event);
void causes(const ObsLeaf &leaf, std::span<const ObsLeaf> causes,
            TraceEvent event);
} // namespace obsdetail

/** Charge `cycles` to a leaf `name` below the open scope. */
inline void
obsLeaf(const char *name, Cycles cycles)
{
    if (attributionEnabled())
        obsdetail::leaf({name, cycles}, TraceEvent::Mark);
}

/** An analytic model's components, in order, under a profiler scope
 *  and a span group named `group`; leaves with a trace name become
 *  `event` records. */
inline void
obsGroup(const char *group, std::span<const ObsLeaf> leaves,
         TraceEvent event)
{
    if (attributionEnabled())
        obsdetail::group(group, leaves, event);
}

/** `leaf` as the span tracer and the tracer see it; the profiler sees
 *  a scope `leaf.name` holding one leaf per nonzero cause. */
inline void
obsCauses(const ObsLeaf &leaf, std::span<const ObsLeaf> causes,
          TraceEvent event)
{
    if (attributionEnabled())
        obsdetail::causes(leaf, causes, event);
}

/** `n` obsLeaf(name, each) calls in one closed-form update. */
inline void
obsLeafRepeated(const char *name, Cycles each, std::uint64_t n)
{
    if (profilerEnabled())
        Profiler::instance().addLeafCyclesRepeated(name, each, n);
}

/** The trace records of an ObsScope: none, one Complete record
 *  spanning it, or a Begin/End pair. */
enum class ObsTrace : std::uint8_t
{
    None,
    Complete,
    Pair
};

/**
 * RAII primitive scope: for its lifetime, a profiler scope and a span
 * named `name` over the charges to `clock` (the owner's cycle
 * counter), optionally bracketed on the trace timeline. `name` must
 * outlive the scope (string literals in practice).
 */
class ObsScope
{
  public:
    /** `trace` adds a Complete record of `end` spanning the scope, or
     *  a Begin record of `begin` at entry and an End record of `end`
     *  at exit. */
    ObsScope(const char *name, const Cycles &clock,
             ObsTrace trace = ObsTrace::None,
             TraceEvent begin = TraceEvent::Mark,
             TraceEvent end = TraceEvent::Mark)
    {
        if (attributionEnabled())
            enter(name, clock, trace, begin, end);
    }

    ~ObsScope()
    {
        if (clock_)
            leave();
    }

    ObsScope(const ObsScope &) = delete;
    ObsScope &operator=(const ObsScope &) = delete;

  private:
    // Out of line, so a disabled scope inlines to the flag test.
    void enter(const char *name, const Cycles &clock, ObsTrace trace,
               TraceEvent begin, TraceEvent end);
    void leave();

    ProfScope prof_;
    /** Set while a span or a trace record needs the clock at exit. */
    const Cycles *clock_ = nullptr;
    const char *name_ = nullptr;
    SpanNode *span_ = nullptr;
    std::uint64_t spanGen_ = 0;
    Cycles start_ = 0;
    TraceEvent end_ = TraceEvent::Mark;
    ObsTrace trace_ = ObsTrace::None;
};

/**
 * RAII closed-form scope: `n` back-to-back scopes named `name` (entry
 * count n, n equal span samples of the cycles attributed inside / n).
 * Profiler only, like every repeated hook.
 */
class ObsRepeat
{
  public:
    ObsRepeat(const char *name, std::uint64_t n)
    {
        if (profilerEnabled() && n != 0)
            enter(name, n);
    }

    ~ObsRepeat()
    {
        if (observersCompiledIn && node_)
            leave();
    }

    ObsRepeat(const ObsRepeat &) = delete;
    ObsRepeat &operator=(const ObsRepeat &) = delete;

  private:
    void enter(const char *name, std::uint64_t n);
    void leave();

    ProfNode *node_ = nullptr;
    Cycles entryAttributed_ = 0;
    std::uint64_t n_ = 0;
};

} // namespace aosd

#endif // AOSD_SIM_ATTRIBUTION_HH
