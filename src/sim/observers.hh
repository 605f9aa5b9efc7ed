/**
 * @file
 * The one compile-time switch behind the simulator's four observers.
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
 */

#ifndef AOSD_SIM_OBSERVERS_HH
#define AOSD_SIM_OBSERVERS_HH

namespace aosd
{

#ifdef AOSD_OBSERVERS_DISABLED
inline constexpr bool observersCompiledIn = false;
#else
inline constexpr bool observersCompiledIn = true;
#endif

} // namespace aosd

#endif // AOSD_SIM_OBSERVERS_HH
