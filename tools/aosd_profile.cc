/**
 * @file
 * aosd_profile: hierarchical cycle attribution for the OS primitives.
 *
 *   aosd_profile                          # text tree to stdout
 *   aosd_profile --json profile.json      # machine-readable document
 *   aosd_profile --folded profile.folded  # collapsed stacks for
 *                                         # flamegraph.pl / speedscope
 *   aosd_profile --reps 32                # repetitions per primitive
 *   aosd_profile --machines R2000,SPARC   # subset of Table 1
 *   aosd_profile --jobs 8                 # parallel profiling grid
 *
 * Every machine × primitive handler runs under the cycle-attribution
 * profiler; the tool self-checks that the attributed cycles equal the
 * charged cycles (sum-of-leaves == total) and exits non-zero naming
 * the offending pair if any cycle went unattributed.
 *
 * The document itself is built by study/profile_report.cc (schema
 * there); the output is byte-identical at any --jobs value.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "study/profile_report.hh"

using namespace aosd;

namespace
{

void
printTree(const Json &node, const std::string &name, int depth,
          double parent_total)
{
    double total = node.at("total_cycles").asNumber();
    double share = parent_total > 0 ? 100.0 * total / parent_total
                                    : 100.0;
    std::printf("  %*s%-*s %12.0f cy %5.1f%%", 2 * depth, "",
                28 - 2 * depth, name.c_str(), total, share);
    if (node.at("count").asUint() > 0)
        std::printf("  n=%llu p50=%llu p90=%llu p99=%llu",
                    static_cast<unsigned long long>(
                        node.at("count").asUint()),
                    static_cast<unsigned long long>(
                        node.at("p50_cycles").asUint()),
                    static_cast<unsigned long long>(
                        node.at("p90_cycles").asUint()),
                    static_cast<unsigned long long>(
                        node.at("p99_cycles").asUint()));
    std::printf("\n");
    // Leaves carry no "children" key.
    if (const Json *children = node.find("children"))
        for (const auto &[child_name, child] : children->items())
            printTree(child, child_name, depth + 1, total);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::string folded_path;
    unsigned reps = 16;
    unsigned jobs = 0;
    std::vector<MachineId> machine_ids;

    Cli cli("aosd_profile");
    cli.option("--json", "path", json_path, "write profile.json");
    cli.option("--folded", "path", folded_path,
               "write collapsed stacks (flamegraph input)");
    cli.option("--reps", "N", reps,
               "repetitions per primitive (default 16; 0 = 1)");
    cli.option("--machines", "CSV", machine_ids,
               "machine slugs (default: the five Table 1 machines)");
    cli.jobs(jobs);
    cli.parseOrExit(argc, argv);
    reps = std::max(reps, 1u);
    std::vector<MachineDesc> machines;
    for (MachineId id : machine_ids)
        machines.push_back(makeMachine(id));
    if (machines.empty())
        machines = table1Machines();

    ParallelRunner runner(jobs);
    std::vector<ProfiledPrimitiveRun> runs =
        profileAllPrimitives(machines, reps, runner);
    Json doc = buildProfileDoc(machines, runs, reps);

    bool text_out = json_path.empty() && folded_path.empty();
    int incomplete = 0;
    for (const ProfiledPrimitiveRun &run : runs) {
        if (!run.complete()) {
            ++incomplete;
            std::fprintf(
                stderr,
                "SELF-CHECK FAILED %s/%s: charged %llu cycles but "
                "attributed %llu\n",
                machineSlug(run.machine), primitiveSlug(run.primitive),
                static_cast<unsigned long long>(run.totalCycles),
                static_cast<unsigned long long>(run.attributedCycles));
        }
    }

    if (text_out) {
        std::size_t next = 0;
        for (const MachineDesc &m : machines) {
            for (Primitive p : allPrimitives) {
                const ProfiledPrimitiveRun &run = runs.at(next++);
                double per_call =
                    static_cast<double>(run.totalCycles) /
                    static_cast<double>(reps);
                std::printf("%s / %s: %.0f cycles/call (%.2f us), "
                            "attribution %s\n",
                            m.name.c_str(), primitiveSlug(p),
                            per_call,
                            m.clock.cyclesToMicros(
                                static_cast<Cycles>(per_call + 0.5)),
                            run.complete() ? "complete"
                                           : "INCOMPLETE");
                printTree(run.tree, "total", 0,
                          static_cast<double>(run.totalCycles));
                std::printf("\n");
            }
        }
    }

    if (!json_path.empty() &&
        !writeOutput(json_path, doc.dump(1), "profile"))
        return exitError;
    if (!folded_path.empty() &&
        !writeOutput(folded_path, foldedStacks(runs), "folded stacks"))
        return exitError;

    if (incomplete) {
        std::fprintf(stderr,
                     "%d machine/primitive pair(s) with unattributed "
                     "cycles\n",
                     incomplete);
        return 1;
    }
    return 0;
}
