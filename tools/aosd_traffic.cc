/**
 * @file
 * aosd_traffic: synthetic open/closed-loop load over the simulated
 * kernels — "how many clients until p99 collapses?"
 *
 *   aosd_traffic                         # text summary to stdout
 *   aosd_traffic --json traffic.json     # traffic.json v1 to a file
 *   aosd_traffic --mode closed --levels 1,4,16,64
 *                                        # closed loop, client sweep
 *   aosd_traffic --arrival bursty        # Markov-modulated arrivals
 *   aosd_traffic --machines r3000 --requests 250000
 *                                        # one machine, 250k requests
 *                                        # per load level (the 1M
 *                                        # sweep at 4 levels)
 *   aosd_traffic --jobs 8                # fan (machine × level) cells
 *                                        # — output byte-identical to
 *                                        # --jobs 1
 *
 * Requests are weighted mixes of the kernel's closed-form primitives,
 * queued FIFO at one simulated server per cell; latency/wait
 * percentiles come from the exact log2 histogram and every cell's
 * kernel window must reconcile (the --min-explained gate, default
 * 99.999%: the request classes use only exactly-priced primitives, so
 * anything less than 100% explained is a charging bug, not noise).
 * The kernel-window batch charger (sim/batch) is what makes
 * million-request sweeps affordable; AOSD_NO_BATCH=1 in the
 * environment runs the same sweep through the per-event loops and CI
 * cmp-gates that the JSON is byte-identical.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "sim/cli.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/table.hh"
#include "workload/traffic.hh"

using namespace aosd;

namespace
{

void
printTextSummary(const Json &doc)
{
    std::printf("aosd_traffic: %s-loop %s arrivals, %llu requests "
                "per cell\n\n",
                doc.at("config").at("mode").asString().c_str(),
                doc.at("config").at("arrival").asString().c_str(),
                static_cast<unsigned long long>(
                    doc.at("config")
                        .at("requests_per_level")
                        .asUint()));
    for (std::size_t mi = 0; mi < doc.at("machines").size(); ++mi) {
        const Json &m = doc.at("machines").at(mi);
        TextTable t;
        t.header({"load", "krps", "p50 cyc", "p90 cyc", "p99 cyc",
                  "p99.9 cyc", "max q", "explained"});
        const Json &levels = m.at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            const Json &cell = levels.at(li);
            const Json &lat = cell.at("latency_cycles").at("all");
            t.row({TextTable::num(cell.at("load").asNumber(), 2),
                   TextTable::num(
                       cell.at("throughput_rps").asNumber() / 1e3, 1),
                   TextTable::num(lat.at("p50").asNumber(), 0),
                   TextTable::num(lat.at("p90").asNumber(), 0),
                   TextTable::num(lat.at("p99").asNumber(), 0),
                   TextTable::num(lat.at("p999").asNumber(), 0),
                   TextTable::num(
                       cell.at("max_queue_depth").asNumber(), 0),
                   TextTable::num(cell.at("kernel_window")
                                      .at("explained_pct")
                                      .asNumber(),
                                  3) +
                       "%"});
        }
        std::printf("%s\n%s\n", m.at("machine").asString().c_str(),
                    t.render().c_str());
    }
}

/** Lowest explained_pct across every cell (the honesty gate). */
double
worstExplainedPct(const Json &doc)
{
    double worst = 100.0;
    for (std::size_t mi = 0; mi < doc.at("machines").size(); ++mi) {
        const Json &levels =
            doc.at("machines").at(mi).at("load_levels");
        for (std::size_t li = 0; li < levels.size(); ++li) {
            double pct = levels.at(li)
                             .at("kernel_window")
                             .at("explained_pct")
                             .asNumber();
            worst = std::min(worst, pct);
        }
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    TrafficConfig cfg;
    bool json_out = false;
    std::string json_path;
    double min_explained = 99.999;
    unsigned jobs = 0;

    Cli cli("aosd_traffic");
    cli.optionalValue("--json", "path", json_out, json_path,
                      "write traffic.json (stdout when no path)");
    cli.choice("--mode", cfg.mode,
               {{"open", TrafficMode::Open},
                {"closed", TrafficMode::Closed}},
               "open: arrivals ignore completions (load = fraction\n"
               "of kernel capacity); closed: load = client\n"
               "population with think time (default open)");
    cli.choice("--arrival", cfg.arrival,
               {{"uniform", TrafficArrival::Uniform},
                {"bursty", TrafficArrival::Bursty},
                {"diurnal", TrafficArrival::Diurnal}},
               "open-loop gap process (default uniform)");
    cli.option("--requests", "N", cfg.requestsPerLevel,
               "requests per (machine x level) cell (default 100000)",
               1, 1000000000);
    cli.option("--levels", "CSV",
               [&cfg](const std::string &v) {
                   std::vector<std::string> parts;
                   std::string why = Cli::splitList(v, parts);
                   std::vector<double> levels(parts.size());
                   for (std::size_t i = 0; why.empty() && i < parts.size();
                        ++i) {
                       why = Cli::parseReal(parts[i], 0.0, 1e6, levels[i]);
                       if (why.empty() && levels[i] == 0.0)
                           why = "a load level must be positive";
                   }
                   if (why.empty())
                       cfg.levels = std::move(levels);
                   return why;
               },
               "load levels, each in (0, 1e6] (default\n"
               "0.3,0.6,0.9,1.2)");
    cli.option("--machines", "CSV", cfg.machines,
               "machine slugs (default: the Table 1 machines)");
    cli.option("--think", "F", cfg.thinkFactor,
               "closed-loop think time as a multiple of the mean\n"
               "service time (default 5)",
               0.0, 1e6);
    cli.option("--seed", "N", cfg.seed,
               "sweep seed, decimal or 0x hex (default 0x5eedf00d)");
    cli.option("--exemplars", "K", cfg.exemplars,
               "slowest requests kept per cell (default 5)");
    cli.option("--min-explained", "PCT", min_explained,
               "fail unless every cell's kernel window explains at\n"
               "least PCT% of its primitive cycles (default 99.999)",
               0.0, 100.0);
    cli.jobs(jobs);
    cli.parseOrExit(argc, argv);

    ParallelRunner runner(jobs);
    Json doc = buildTrafficDoc(cfg, runner);

    double worst = worstExplainedPct(doc);
    if (worst < min_explained || worst > 200.0 - min_explained) {
        std::fprintf(stderr,
                     "kernel-window reconciliation failed: worst cell "
                     "explains %.3f%% (gate %.3f%%)\n",
                     worst, min_explained);
        return 1;
    }

    if (!json_out)
        printTextSummary(doc);
    else if (!writeOutput(json_path, doc.dump(1), "traffic"))
        return exitError;
    return 0;
}
