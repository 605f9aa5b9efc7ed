/**
 * @file
 * The counters.json document: hardware-event counts and the
 * cycles-explained reconciliation for every machine x primitive.
 *
 * tools/aosd_counters serializes this document;
 * tests/test_counters.cc diffs it against tests/expected_counters.json
 * through the same numeric-leaf diff (study/perfdiff.hh) that gates
 * profile.json, so both the tool and the golden test see byte-for-byte
 * the same figures.
 */

#ifndef AOSD_STUDY_COUNTERS_REPORT_HH
#define AOSD_STUDY_COUNTERS_REPORT_HH

#include <vector>

#include "arch/machine_desc.hh"
#include "cpu/counted_primitives.hh"
#include "sim/json.hh"

namespace aosd
{

class ParallelRunner;

/** All counted runs for `machines` (every primitive, `reps` each),
 *  one (machine, primitive) session per runner job; runs come back
 *  machine-major (task-index merge). */
std::vector<CountedPrimitiveRun>
countAllPrimitives(const std::vector<MachineDesc> &machines,
                   unsigned reps, ParallelRunner &runner);

/**
 * counters.json (schema version 1):
 *
 *   {
 *     "schema_version": 1,
 *     "generator": "aosd_counters",
 *     "repetitions": R,
 *     "machines": {
 *       "<machine>": {
 *         "<primitive>": {
 *           "cycles": n, "cycles_per_call": c,
 *           "counters": { "<counter>": n, ... },
 *           "reconciliation": {
 *             "actual_cycles": n, "explained_cycles": x,
 *             "explained_pct": p,
 *             "terms": { "<counter>": { "count": n,
 *                        "penalty_cycles": x, "cycles": x } } }
 *         }, ...
 *       }, ...
 *     }
 *   }
 */
Json buildCountersDoc(const std::vector<CountedPrimitiveRun> &runs,
                      unsigned reps);

/**
 * Kernel-window reconciliation document
 * (aosd_counters --kernel-windows --json, schema version 1): every
 * Table 7 (app, OS structure) cell of `machine`'s grid, with counted
 * kernel events x the machine's primitive costs reconciled against
 * the cycles SimKernel charged to primitives over the whole run.
 *
 *   {
 *     "schema_version": 1,
 *     "generator": "aosd_counters --kernel-windows",
 *     "machine": "<machine>",
 *     "cells": {
 *       "<app>.<mach25|mach30>": {
 *         "elapsed_seconds": s,
 *         "reconciliation": { ... same shape as counters.json ... }
 *       }, ...
 *     }
 *   }
 */
Json buildKernelWindowsDoc(const MachineDesc &machine,
                           ParallelRunner &runner);

} // namespace aosd

#endif // AOSD_STUDY_COUNTERS_REPORT_HH
