/**
 * @file
 * report.json: one machine-readable document holding every simulated
 * figure of the reproduction next to its paper value.
 *
 * Schema (version 1):
 *
 *   {
 *     "schema_version": 1,
 *     "generator": "aosd_report",
 *     "paper": "...",
 *     "machine_count": N,
 *     "tables": {
 *       "table1": {"figures": [
 *           {"id": "null_syscall_us.CVAX", "unit": "us",
 *            "sim": 17.3, "paper": 17.0, "rel_error": 0.018},
 *           ...]},
 *       ...
 *       "headlines": {"figures": [...]}
 *     },
 *     "summary": {
 *       "figures": N, "with_paper": M,
 *       "mean_abs_rel_error": x, "max_abs_rel_error": y,
 *       "worst_figure": "table.id"
 *     }
 *   }
 *
 * "paper"/"rel_error" are omitted for cells the paper leaves blank.
 * The schema is append-only: new figures may be added, existing ids
 * keep their meaning (the regression gate depends on it).
 */

#ifndef AOSD_STUDY_REPORT_HH
#define AOSD_STUDY_REPORT_HH

#include <vector>

#include "sim/json.hh"
#include "study/figures.hh"

namespace aosd
{

/** Current report schema version. */
inline constexpr int reportSchemaVersion = 1;

/** Serialize one figure (id/unit/sim[/paper/rel_error]). */
Json figureToJson(const Figure &f);

/** Group figures by table into the full report document. */
Json buildReport(const std::vector<Figure> &figures);

class ParallelRunner;

/** buildReport(allFigures(runner)) — the same document, with the
 *  figure grid fanned across the runner's workers. Byte-identical to
 *  the serial build at any job count (see
 *  sim/parallel/parallel_runner.hh for why). */
Json buildReport(ParallelRunner &runner);

/**
 * Compare a freshly built report against an expected snapshot.
 * Returns human-readable mismatch lines (empty == pass): figures
 * whose sim value drifted by more than `rel_tolerance` relative (or
 * `abs_tolerance` absolute, for values near zero), figures missing
 * from either side, and schema mismatches.
 */
std::vector<std::string> diffReports(const Json &expected,
                                     const Json &actual,
                                     double rel_tolerance = 1e-6,
                                     double abs_tolerance = 1e-9);

} // namespace aosd

#endif // AOSD_STUDY_REPORT_HH
