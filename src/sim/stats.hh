/**
 * @file
 * Lightweight statistics: named counters and scalar histograms.
 *
 * The simulated kernel instruments itself with these the way the authors
 * instrumented Mach (Table 7): every trap, syscall, context switch and TLB
 * miss bumps a counter in a StatGroup owned by the component.
 *
 * Every live StatGroup is also tracked by its thread's StatRegistry,
 * which can snapshot the entire simulation's counters to JSON in one
 * call — the machinery tools/aosd_report and the regression gate use to
 * make runs diffable. The registry is per thread (one per simulation
 * slice, see sim/parallel/parallel_runner.hh); worker-slice stats are
 * flattened with flatten() and folded into the coordinating thread's
 * registry with absorbRetired() in task-index order.
 */

#ifndef AOSD_SIM_STATS_HH
#define AOSD_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace aosd
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { total += n; }
    void reset() { total = 0; }
    std::uint64_t value() const { return total; }

  private:
    std::uint64_t total = 0;
};

/**
 * Accumulates scalar samples; reports count/min/max/mean.
 *
 * Empty-sample semantics: every accessor is total — min/max/mean/
 * variance/stddev of zero samples are 0.0, never NaN or a division by
 * zero, so a distribution that saw no events serializes and diffs
 * cleanly. reset() returns to exactly this empty state.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        if (n == 0) {
            lo = hi = v;
        } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        sum += v;
        sumSq += v * v;
        ++n;
    }

    void
    reset()
    {
        n = 0;
        sum = sumSq = lo = hi = 0.0;
    }

    std::uint64_t count() const { return n; }
    double min() const { return lo; }
    double max() const { return hi; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    /** Unbiased sample variance; 0.0 with fewer than two samples. */
    double variance() const;
    /** sqrt(variance()); 0.0 with fewer than two samples. */
    double stddev() const;
    double total() const { return sum; }

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * A named bag of counters, addressed by string. Components own one and
 * expose it read-only; the workload runner snapshots it between phases.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string group_name);

    /** Groups register with the StatRegistry for their lifetime, so
     *  copies and moves must maintain their own registrations. */
    StatGroup(const StatGroup &o);
    StatGroup(StatGroup &&o);
    StatGroup &operator=(const StatGroup &o);
    StatGroup &operator=(StatGroup &&o);
    ~StatGroup();

    /** Bump a named counter, creating it on first use. */
    void
    inc(const std::string &counter, std::uint64_t n = 1)
    {
        counters[counter] += n;
    }

    /** Read a counter (0 if never bumped). */
    std::uint64_t
    get(const std::string &counter) const
    {
        auto it = counters.find(counter);
        return it == counters.end() ? 0 : it->second;
    }

    /**
     * Intern a counter and return a stable reference to its value, so
     * hot paths bump without a per-event string lookup. std::map nodes
     * never move, so the reference stays valid for the group's
     * lifetime (but not across copies/moves of the group; Tlb, which
     * interns its hot handles, is therefore neither copyable nor
     * movable).
     */
    std::uint64_t &
    handle(const std::string &counter)
    {
        return counters[counter];
    }

    /** Zero every counter. */
    void
    reset()
    {
        for (auto &kv : counters)
            kv.second = 0;
    }

    const std::string &groupName() const { return name; }

    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters;
    }

    /** Render "group.counter = value" lines. */
    std::string dump() const;

    /** Serialize as {"name": ..., "counters": {...}}. */
    Json toJson() const;

    /** Rebuild a group from toJson() output (fatal on bad shape). */
    static StatGroup fromJson(const Json &j);

    bool
    operator==(const StatGroup &o) const
    {
        return name == o.name && counters == o.counters;
    }

  private:
    std::string name;
    std::map<std::string, std::uint64_t> counters;
};

/** Flattened stats: group name -> counter name -> value. The order-
 *  independent value form worker slices hand back for merging. */
using FlatStats =
    std::map<std::string, std::map<std::string, std::uint64_t>>;

/**
 * Per-thread registry of every live StatGroup (one registry per
 * simulation slice; groups are confined to the thread that made them,
 * so no locking). Groups register on construction and deregister on
 * destruction. Snapshots serialize every group — including short-lived
 * ones inside models, as long as they are alive at snapshot time —
 * giving one JSON document per simulation state.
 */
class StatRegistry
{
  public:
    /** The calling thread's registry. */
    static StatRegistry &instance();

    /** Live groups, in registration order. */
    const std::vector<StatGroup *> &groups() const { return live; }

    /** First live group with this name (nullptr if none). */
    const StatGroup *findGroup(const std::string &name) const;

    /** Zero every counter in every live group and drop any retired
     *  aggregates, so a reset registry reads as a fresh run whether or
     *  not retention is on (retention itself stays enabled). */
    void resetAll();

    /**
     * When retention is on, a destroyed group's counters are folded
     * into a per-name "retired" aggregate instead of vanishing, so a
     * whole run's activity survives its transient kernels/models.
     * Turning retention off clears the aggregate.
     */
    void setRetainRetired(bool retain);
    bool retainsRetired() const { return retainRetired; }

    /** Snapshot every live group (plus, with retention, one
     *  "<name>.retired" aggregate per group name):
     *  {"stat_groups": [{"name":..., "counters":{...}}, ...]}. */
    Json toJson() const;

    /** Everything this registry knows, folded flat: live groups and
     *  retired aggregates summed per (group, counter). The value form
     *  a worker slice captures for the deterministic merge — sums are
     *  order-independent, so merging shards in task-index order equals
     *  running the tasks serially. */
    FlatStats flatten() const;

    /** Fold a worker slice's flattened stats into this registry's
     *  retired aggregates (retention is switched on as a side effect,
     *  since absorbed counters have no live group to live in). */
    void absorbRetired(const FlatStats &flat);

    /** Parse a toJson() snapshot back into value-type groups (the
     *  round-trip direction the regression tooling uses). */
    static std::vector<StatGroup> parseSnapshot(const Json &j);

  private:
    friend class StatGroup;
    void add(StatGroup *g) { live.push_back(g); }
    void remove(StatGroup *g);

    std::vector<StatGroup *> live;
    bool retainRetired = false;
    /** name -> accumulated counters of destroyed groups. */
    FlatStats retired;
};

} // namespace aosd

#endif // AOSD_SIM_STATS_HH
