/**
 * @file
 * The one compile-time switch behind the simulator's four observers,
 * and the one flag byte behind the three that attribute cycles.
 *
 * The profiler (sim/profile), the hardware counters (sim/counters),
 * the counter sampler (sim/sampling) and the span tracer
 * (sim/spantrace) only watch: every document is byte-identical with
 * them on or off. Each is off at run time until enabled, and its
 * predicate (profilerEnabled(), countersEnabled(), samplingEnabled(),
 * spantraceEnabled()) is `observersCompiledIn && <its thread-local
 * flag>`, so a disabled hook costs one thread-local load and a branch.
 *
 * Configuring with -DAOSD_DISABLE_OBSERVERS=ON makes the constant
 * false: every predicate folds to false at compile time and the hooks
 * vanish, with no preprocessor twin in any hook body. That build exists
 * to bound what the compiled-in-but-off hooks cost (see EXPERIMENTS.md,
 * "Observer overhead"). The Perfetto tracer (sim/trace.hh) is not an
 * observer here: turning it on selects the reference paths.
 *
 * The profiler, the span tracer and the Perfetto tracer keep their
 * flags as bits of one thread-local byte, obsdetail::on, so the
 * attribution hook that feeds all three (sim/attribution.hh) tests
 * them together in one load and a branch.
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

/** The attribution consumers' flags. Namespace-scope, constinit and
 *  thread-local so a hot-path test is one non-atomic load with no
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

/** Is any attribution consumer on (sim/attribution.hh)? With the
 *  observers compiled out only the tracer counts. */
inline bool
attributionEnabled()
{
    constexpr std::uint8_t sinks =
        observersCompiledIn
            ? obsdetail::profiler | obsdetail::spans | obsdetail::tracer
            : obsdetail::tracer;
    return obsdetail::on & sinks;
}

} // namespace aosd

#endif // AOSD_SIM_OBSERVERS_HH
