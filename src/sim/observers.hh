/**
 * @file
 * The one compile-time switch behind the simulator's four observers,
 * and the one flag byte behind them and the Perfetto tracer.
 *
 * The profiler (sim/profile), the hardware counters (sim/counters),
 * the counter sampler (sim/sampling) and the span tracer
 * (sim/spantrace) only watch: every document is byte-identical with
 * them on or off. Each is off at run time until enabled, and its
 * predicate (profilerEnabled(), countersEnabled(), samplingEnabled(),
 * spantraceEnabled()) is `observersCompiledIn && <its bit>`, so a
 * disabled hook costs one thread-local load and a branch.
 *
 * Configuring with -DAOSD_DISABLE_OBSERVERS=ON makes the constant
 * false: every predicate folds to false at compile time and the hooks
 * vanish, with no preprocessor twin in any hook body. That build exists
 * to bound what the compiled-in-but-off hooks cost (see EXPERIMENTS.md,
 * "Observer overhead"). The Perfetto tracer (sim/trace.hh) is not an
 * observer here: turning it on selects the reference paths.
 *
 * All five keep their on/off state as bits of one thread-local byte,
 * obsdetail::on: profiler, spans, tracer, counters and sampler. A hook
 * that feeds several of them tests them together in one load and a
 * branch — the attribution hook (sim/attribution.hh) the first three,
 * a TLB miss the counters and the tracer. Counters open and close
 * through one RAII window (CounterWindow, sim/counters/counters.hh),
 * which also owns the sampler session, and ObsPause masks any of the
 * bits across a scope.
 */

#ifndef AOSD_SIM_OBSERVERS_HH
#define AOSD_SIM_OBSERVERS_HH

#include <cstdint>

namespace aosd
{

#ifdef AOSD_OBSERVERS_DISABLED
inline constexpr bool observersCompiledIn = false;
#else
inline constexpr bool observersCompiledIn = true;
#endif

namespace obsdetail
{
/** Bits of `on`. */
inline constexpr std::uint8_t profiler = 1; ///< Profiler enabled
inline constexpr std::uint8_t spans = 2;    ///< span request open
inline constexpr std::uint8_t tracer = 4;   ///< Perfetto tracer on
inline constexpr std::uint8_t counters = 8; ///< hardware counters on
inline constexpr std::uint8_t sampler = 16; ///< sampler session open

/** Every consumer's flag. Namespace-scope, constinit and thread-local
 *  so a hot-path test is one non-atomic load with no
 *  function-local-static guard, and each simulation slice observes
 *  independently. */
extern thread_local constinit std::uint8_t on;

inline void
set(std::uint8_t bit, bool enabled)
{
    on = enabled ? static_cast<std::uint8_t>(on | bit)
                 : static_cast<std::uint8_t>(on & ~bit);
}
} // namespace obsdetail

/** The bits of `mask` that are on and live, in one load: with the
 *  observers compiled out only the tracer's bit can answer. */
inline std::uint8_t
observing(std::uint8_t mask)
{
    constexpr std::uint8_t live =
        observersCompiledIn ? 0xff : obsdetail::tracer;
    return obsdetail::on & mask & live;
}

/** Is any attribution consumer on (sim/attribution.hh)? */
inline bool
attributionEnabled()
{
    return observing(obsdetail::profiler | obsdetail::spans |
                     obsdetail::tracer);
}

/**
 * RAII pause of the consumers in `mask`, restoring the ones that were
 * on at exit. The default pauses the profiler and the span tracer: a
 * helper simulation inside an analytic model (the LRPC steady-state
 * TLB warm-up, the primitive cost table) runs under one, so its
 * charges land neither in the caller's profile tree nor in its open
 * request, while the trace timeline still records what ran. The
 * kernel's interpreter reference paths pause the counters, whose
 * micro-events are already folded into the cached cost constants.
 */
class ObsPause
{
  public:
    explicit ObsPause(std::uint8_t mask = obsdetail::profiler |
                                          obsdetail::spans)
        : was_(obsdetail::on & mask)
    {
        obsdetail::set(mask, false);
    }
    ~ObsPause() { obsdetail::on |= was_; }

    ObsPause(const ObsPause &) = delete;
    ObsPause &operator=(const ObsPause &) = delete;

  private:
    std::uint8_t was_;
};

} // namespace aosd

#endif // AOSD_SIM_OBSERVERS_HH
