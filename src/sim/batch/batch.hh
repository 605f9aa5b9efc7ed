/**
 * @file
 * Kernel-window batch charging toggle.
 *
 * The Table 7 replays and the synthetic traffic driver push millions
 * of homogeneous kernel events — clock interrupts, page faults,
 * emulated test&sets, thread switches — through SimKernel, and the
 * per-event path pays full bookkeeping (scope push/pop, stat bump,
 * counter bump, histogram sample, sampler tick) for every one. When
 * the fast pre-decoded path is active, a run of n identical events is
 * fully determined by per-event decoded constants, so the whole run
 * can be charged in closed form: cycles and counters as constant × n,
 * profiler entries/self-cycles/histograms via the sampleN batch
 * updates (sim/profile), and sampler boundaries via
 * CounterSampler::tickRun (sim/sampling). SimKernel::charge(op, n)
 * is the one entry point, over the kernel's op table
 * (os/kernel/kernel.cc). Stateful operations (context switches that
 * purge TLB/cache state, software TLB refills, PTE state edits) are
 * still stepped, so every JSON document stays byte-identical to the
 * per-event path.
 *
 * The toggle mirrors the predecode pair (cpu/decoded_program.hh):
 * the AOSD_NO_BATCH environment variable, which every tool and test
 * process honours, and runtime setBatchEnabled(false).
 */

#ifndef AOSD_SIM_BATCH_BATCH_HH
#define AOSD_SIM_BATCH_BATCH_HH

#include "sim/observers.hh"

namespace aosd
{

/** Is batched charging on? (default yes; AOSD_NO_BATCH=1 or
 *  setBatchEnabled(false) select the per-event reference path). */
bool batchEnabled();

/** Flip batched charging at runtime (tests and benchmarks). */
void setBatchEnabled(bool on);

/** True when no per-event observer is watching: the event tracer
 *  emits one record per event and an open span-traced request nests
 *  one node per invocation, so a run can only be coalesced while both
 *  are idle (one test of the observers' flag byte). Callers with a
 *  reference-interpreter mode (predecode off) must check that
 *  separately. */
inline bool
batchObserversIdle()
{
    return !observing(obsdetail::tracer | obsdetail::spans);
}

} // namespace aosd

#endif // AOSD_SIM_BATCH_BATCH_HH
