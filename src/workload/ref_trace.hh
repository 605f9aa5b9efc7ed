/**
 * @file
 * Synthetic reference traces: the §1/§3.2 measurement background.
 *
 * The paper leans on two trace studies: Agarwal et al. found >50% of
 * references in VAX Ultrix workloads were system references, and
 * Clark & Emer found VMS made one fifth of the references but two
 * thirds of the TLB misses on a VAX-11/780. This module generates
 * mixed user/system reference streams with the locality properties
 * that produce those effects — tight user working sets vs sprawling,
 * switch-interrupted system footprints — and drives them through the
 * TLB model so the asymmetry is reproduced rather than asserted.
 */

#ifndef AOSD_WORKLOAD_REF_TRACE_HH
#define AOSD_WORKLOAD_REF_TRACE_HH

#include <cstdint>

#include "arch/machine_desc.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"
#include "sim/sampling/sampler.hh"

namespace aosd
{

/** Parameters of the synthetic trace (its locality and switch
 *  constants live in ref_trace.cc). */
struct RefTraceConfig
{
    /** Total memory references to generate. */
    std::uint64_t references = 2'000'000;
    /** Fraction of references made in system mode (Clark & Emer's
     *  VMS measured ~0.20; Agarwal's Ultrix workloads >0.50). */
    double systemFraction = 0.20;
    /** Sample the counter file every this many simulated cycles into
     *  the result's time series (0 = off; off leaves the replay
     *  untouched — no counter session is opened). */
    Cycles samplingIntervalCycles = 0;
};

/** Outcome of running a trace through a TLB. */
struct RefTraceResult
{
    std::uint64_t userRefs = 0;
    std::uint64_t systemRefs = 0;
    std::uint64_t userMisses = 0;
    std::uint64_t systemMisses = 0;
    /** Simulated cycles of the replay: one per reference, plus refill
     *  costs on misses and purge costs on untagged-TLB switches. */
    Cycles cycles = 0;
    /** Per-interval event rates (empty unless the config asked). */
    CounterTimeSeries timeseries;

    double
    systemRefShare() const
    {
        auto total = userRefs + systemRefs;
        return total ? static_cast<double>(systemRefs) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    systemMissShare() const
    {
        auto total = userMisses + systemMisses;
        return total ? static_cast<double>(systemMisses) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    userMissRate() const
    {
        return userRefs ? static_cast<double>(userMisses) /
                              static_cast<double>(userRefs)
                        : 0.0;
    }

    double
    systemMissRate() const
    {
        return systemRefs ? static_cast<double>(systemMisses) /
                                static_cast<double>(systemRefs)
                          : 0.0;
    }
};

/** Generate a trace and run it through `machine`'s TLB geometry. */
RefTraceResult runRefTrace(const MachineDesc &machine,
                           const RefTraceConfig &cfg = {});

} // namespace aosd

#endif // AOSD_WORKLOAD_REF_TRACE_HH
