#include "study/report.hh"

#include <cmath>
#include <map>

#include "arch/machines.hh"
#include "sim/parallel/parallel_runner.hh"
#include "sim/logging.hh"

namespace aosd
{

Json
figureToJson(const Figure &f)
{
    Json out = Json::object();
    out.set("id", Json(f.id));
    out.set("unit", Json(f.unit));
    out.set("sim", Json(f.sim));
    if (f.hasPaper()) {
        out.set("paper", Json(f.paper));
        double err = f.relativeError();
        if (!std::isnan(err))
            out.set("rel_error", Json(err));
    }
    return out;
}

Json
buildReport(const std::vector<Figure> &figures)
{
    // Group by table, preserving first-seen order.
    std::vector<std::string> order;
    std::map<std::string, Json> grouped;
    for (const Figure &f : figures) {
        auto it = grouped.find(f.table);
        if (it == grouped.end()) {
            order.push_back(f.table);
            it = grouped.emplace(f.table, Json::array()).first;
        }
        it->second.push(figureToJson(f));
    }
    Json tables = Json::object();
    for (const std::string &name : order) {
        Json t = Json::object();
        t.set("figures", std::move(grouped[name]));
        tables.set(name, std::move(t));
    }

    double sum_abs = 0, max_abs = -1;
    std::size_t with_paper = 0;
    std::string worst;
    for (const Figure &f : figures) {
        double err = f.relativeError();
        if (std::isnan(err))
            continue;
        ++with_paper;
        sum_abs += std::fabs(err);
        if (std::fabs(err) > max_abs) {
            max_abs = std::fabs(err);
            worst = f.table + "." + f.id;
        }
    }

    Json summary = Json::object();
    summary.set("figures", Json(figures.size()));
    summary.set("with_paper", Json(with_paper));
    if (with_paper) {
        summary.set("mean_abs_rel_error",
                    Json(sum_abs / static_cast<double>(with_paper)));
        summary.set("max_abs_rel_error", Json(max_abs));
        summary.set("worst_figure", Json(worst));
    }

    Json doc = Json::object();
    doc.set("schema_version", Json(reportSchemaVersion));
    doc.set("generator", Json("aosd_report"));
    doc.set("paper",
            Json("Anderson, Levy, Bershad & Lazowska: The Interaction "
                 "of Architecture and Operating System Design "
                 "(ASPLOS 1991)"));
    doc.set("machine_count", Json(allMachines().size()));
    doc.set("tables", std::move(tables));
    doc.set("summary", std::move(summary));
    return doc;
}

Json
buildReport(ParallelRunner &runner)
{
    return buildReport(allFigures(runner));
}

namespace
{

/** Flatten a report's tables into id -> sim value. */
std::map<std::string, double>
simValues(const Json &report, std::vector<std::string> &problems,
          const char *which)
{
    std::map<std::string, double> out;
    const Json *tables = report.find("tables");
    if (!tables || !tables->isObject()) {
        problems.push_back(std::string(which) +
                           " report has no tables object");
        return out;
    }
    for (const auto &tkv : tables->items()) {
        const Json *figs = tkv.second.find("figures");
        if (!figs || !figs->isArray())
            continue;
        for (std::size_t i = 0; i < figs->size(); ++i) {
            const Json &f = figs->at(i);
            out[tkv.first + "." + f.at("id").asString()] =
                f.at("sim").asNumber();
        }
    }
    return out;
}

} // namespace

std::vector<std::string>
diffReports(const Json &expected, const Json &actual,
            double rel_tolerance, double abs_tolerance)
{
    std::vector<std::string> problems;

    const Json *ever = expected.find("schema_version");
    const Json *aver = actual.find("schema_version");
    if (!ever || !aver || !(*ever == *aver))
        problems.push_back("schema_version mismatch");

    auto exp = simValues(expected, problems, "expected");
    auto act = simValues(actual, problems, "actual");

    for (const auto &kv : exp) {
        auto it = act.find(kv.first);
        if (it == act.end()) {
            problems.push_back("figure disappeared: " + kv.first);
            continue;
        }
        double e = kv.second, a = it->second;
        double scale = std::max(std::fabs(e), std::fabs(a));
        double diff = std::fabs(a - e);
        if (diff > abs_tolerance && diff > rel_tolerance * scale)
            problems.push_back(csprintf(
                "figure drifted: %s expected %.9g got %.9g "
                "(rel %.3g)",
                kv.first.c_str(), e, a,
                scale > 0 ? diff / scale : 0.0));
    }
    for (const auto &kv : act)
        if (!exp.count(kv.first))
            problems.push_back("new figure not in snapshot: " +
                               kv.first +
                               " (regenerate expected_report.json)");
    return problems;
}

} // namespace aosd
