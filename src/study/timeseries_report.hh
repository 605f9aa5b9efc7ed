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

/** Machine and sampling interval of the table7 section. aosd_report
 *  builds that section from its own report grid, which it runs on
 *  this machine sampled at this interval. */
inline constexpr MachineId timeseriesTable7Machine = MachineId::R3000;
inline constexpr Cycles timeseriesTable7IntervalCycles = 1'000'000;

/** Knobs of the timeseries document build. */
struct TimeseriesOptions
{
    /** Reference-trace replay length. */
    std::uint64_t refTraceReferences = 500'000;
};

/** Build the full timeseries.json document, fanning the independent
 *  cells across `runner`'s workers. */
Json buildTimeseriesDoc(ParallelRunner &runner,
                        const TimeseriesOptions &opts = {});

/** The same document from a Table 7 grid the caller already ran on
 *  timeseriesTable7Machine with measureKernelWindow on and
 *  samplingIntervalCycles = timeseriesTable7IntervalCycles
 *  (reportFigures(runner, timeseriesTable7IntervalCycles).grid). The
 *  rows are consumed; move them in rather than copy their series. */
Json buildTimeseriesDoc(ParallelRunner &runner,
                        std::vector<Table7Row> table7Rows,
                        const TimeseriesOptions &opts = {});

inline constexpr int timeseriesSchemaVersion = 1;

} // namespace aosd

#endif // AOSD_STUDY_TIMESERIES_REPORT_HH
