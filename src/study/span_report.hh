/**
 * @file
 * spans.json — per-primitive latency percentiles, slowest-request
 * exemplars and tail-vs-median attribution from span-traced requests.
 *
 * For every Table 1 machine × primitive pair the study drives a fresh
 * SimKernel through `requestsPerPair` span-traced requests. Each
 * request performs one primitive invocation followed by a random
 * number of kernel-pool page touches (the TLB pressure that makes some
 * requests slow), so the per-request latency histogram has a real
 * tail. The report keeps:
 *
 *   - the log2 Histogram of request latencies (p50/p90/p99/p999);
 *   - the top-K slowest requests with their full span trees and
 *     counter deltas (ties break on ascending request id, so output
 *     is byte-stable at any --jobs value);
 *   - a "tail vs median" attribution pricing the counter-delta
 *     difference between the p99 exemplar and the median request with
 *     the reconcile layer's constants — the same explain-the-cycles
 *     discipline as aosd_bisect, but within one run.
 *
 * An `ipc` section traces one null call of each analytic IPC model
 * (RPC/LRPC/URPC) so their component breakdowns appear as span trees
 * too.
 *
 * Requests never run user code or charge raw microseconds, so every
 * cycle in a request is a priced primitive event and the attribution
 * explains (essentially) 100% of any request-to-request gap — the
 * acceptance gate asks for >= 80%.
 */

#ifndef AOSD_STUDY_SPAN_REPORT_HH
#define AOSD_STUDY_SPAN_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/json.hh"
#include "sim/parallel/parallel_runner.hh"

namespace aosd
{

inline constexpr int spansSchemaVersion = 1;

/** Knobs for the span study (defaults are the CI configuration). */
struct SpanOptions
{
    /** Span-traced requests per (machine, primitive) cell. */
    std::size_t requestsPerPair = 1000;
    /** Slowest-request exemplars kept per cell. */
    std::size_t topK = 3;
    /** Machines to study; empty selects the Table 1 machines (the
     *  same --machines subsetting spelling as aosd_counters and
     *  aosd_traffic). */
    std::vector<MachineId> machines;
};

/** Build spans.json v1 (deterministic at any runner job count). */
Json buildSpansDoc(ParallelRunner &runner,
                   const SpanOptions &opts = {});

/**
 * Chrome-tracing / Perfetto export of a spans document: one process
 * per machine, one track per primitive, the exemplar span trees as
 * nested "X" slices laid end to end, plus counter tracks for the
 * exemplars' nonzero counter deltas.
 */
std::string spansPerfettoJson(const Json &spansDoc);

/** Render the per-cell percentile/attribution summary as text. */
std::string spansTextSummary(const Json &spansDoc);

} // namespace aosd

#endif // AOSD_STUDY_SPAN_REPORT_HH
