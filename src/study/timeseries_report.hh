/**
 * @file
 * timeseries.json: per-interval event-rate series for every
 * long-running workload — the phase-resolved companion to report.json.
 *
 * Three sections, one per workload driver:
 *   - table7:    every (OS structure, app) cell of the §5 grid on one
 *                machine, sampled on a fixed simulated-cycle interval,
 *                each cell carrying its kernel-window reconciliation
 *   - ref_trace: the §1/§3.2 synthetic reference replay per Table 1
 *                machine
 *   - synapse:   the §4.1 call/switch replays, sampled ~64 times each
 *
 * Every series value is a per-interval rate (events per kilocycle,
 * percentages); the schema is documented in EXPERIMENTS.md. The
 * document is byte-identical at any --jobs value: each cell samples
 * in its own simulation slice and the runner merges by task index.
 */

#ifndef AOSD_STUDY_TIMESERIES_REPORT_HH
#define AOSD_STUDY_TIMESERIES_REPORT_HH

#include "arch/machine_desc.hh"
#include "sim/json.hh"
#include "sim/ticks.hh"

#include <cstdint>
#include <vector>

namespace aosd
{

class ParallelRunner;
struct Table7Row;

/** Knobs of the timeseries document build. */
struct TimeseriesOptions
{
    /** Machine the Table 7 grid samples on. */
    MachineId table7Machine = MachineId::R3000;
    Cycles table7IntervalCycles = 1'000'000;
    /** Reference-trace replay length and sampling interval. */
    std::uint64_t refTraceReferences = 500'000;
    Cycles refTraceIntervalCycles = 25'000;
    /** Machine the Synapse replays sample on (§4.1's SPARC). */
    MachineId synapseMachine = MachineId::SPARC;
    unsigned synapseSamples = 64;
};

/** Build the full timeseries.json document, fanning the independent
 *  cells across `runner`'s workers. */
Json buildTimeseriesDoc(ParallelRunner &runner,
                        const TimeseriesOptions &opts = {});

/** The same document from a Table 7 grid the caller already ran on
 *  opts.table7Machine with measureKernelWindow on and
 *  samplingIntervalCycles = opts.table7IntervalCycles (for the
 *  default options: reportFigures(runner,
 *  opts.table7IntervalCycles).grid). The rows are consumed; move
 *  them in rather than copy their series. */
Json buildTimeseriesDoc(ParallelRunner &runner,
                        std::vector<Table7Row> table7Rows,
                        const TimeseriesOptions &opts = {});

inline constexpr int timeseriesSchemaVersion = 1;

} // namespace aosd

#endif // AOSD_STUDY_TIMESERIES_REPORT_HH
