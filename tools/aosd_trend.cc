/**
 * @file
 * aosd_trend: the perf database front-end — ingest every run's
 * artifacts, query metric trends, flag regressions against the rolling
 * band. aosd_dashboard --db renders the database as a site.
 *
 *   aosd_trend ingest --db perfdb.jsonl --commit abc123 \
 *       --time 2026-08-09T12:00:00Z --host ci --flags gcc-Rel \
 *       --report report.json --counters counters.json \
 *       --kernel-windows kernel_windows.json --profile profile.json \
 *       --timeseries timeseries.json --spans spans.json \
 *       --traffic traffic.json --bench simperf=BENCH.json
 *   aosd_trend list --db perfdb.jsonl
 *   aosd_trend metrics --db perfdb.jsonl --filter counters.SPARC
 *   aosd_trend query --db perfdb.jsonl \
 *       --metric counters.SPARC.context_switch.cycles_per_call \
 *       --last 50 [--json]
 *   aosd_trend check --db perfdb.jsonl --tol 5% [--json check.json]
 *   aosd_trend export --db perfdb.jsonl --record -1 --doc counters
 *
 * The database is append-only JSONL (sim/perfdb); ingest appends one
 * line, never rewrites history (except under --replace, which re-runs
 * a recorded commit explicitly). `check` exits 1 when any metric's
 * newest value falls outside max(tol x rolling median, 3 x MAD) of up
 * to --baseline prior runs, naming the offending record pair —
 * exactly what `aosd_bisect --db --from --to` wants. Exit 2 on usage
 * or I/O errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/json.hh"
#include "sim/perfdb/perfdb.hh"
#include "study/trend_report.hh"

using namespace aosd;

namespace
{

struct Args
{
    std::string command;
    std::string db;
    std::string commit;
    std::string time;
    std::string host = "unknown";
    std::string flags = "unknown";
    std::string report, counters, kernelWindows, profile, timeseries,
        spans, traffic;
    std::vector<std::pair<std::string, std::string>> bench;
    bool replace = false;
    std::string metric;
    std::string filter, skip;
    std::string record, docName;
    std::string jsonPath;
    bool json = false;
    std::string out;
    double tol = 0.05;
    std::size_t last = 0;
    std::size_t baseline = 20;
    std::size_t top = 20;
};

const char *
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

int
cmdIngest(const Args &a)
{
    if (a.commit.empty() || a.time.empty()) {
        std::fprintf(stderr,
                     "ingest: --commit and --time are required (they "
                     "key the record; pass the commit's own "
                     "timestamp so re-ingest is reproducible)\n");
        return exitError;
    }

    Json report, counters, kw, profile, timeseries, spans, traffic;
    std::vector<Json> bench_docs(a.bench.size());
    PerfDbRecordInputs in;
    if (!loadOptionalJson(a.report, report, in.report) ||
        !loadOptionalJson(a.counters, counters, in.counters) ||
        !loadOptionalJson(a.kernelWindows, kw, in.kernelWindows) ||
        !loadOptionalJson(a.profile, profile, in.profile) ||
        !loadOptionalJson(a.timeseries, timeseries, in.timeseries) ||
        !loadOptionalJson(a.spans, spans, in.spans) ||
        !loadOptionalJson(a.traffic, traffic, in.traffic))
        return exitError;
    for (std::size_t i = 0; i < a.bench.size(); ++i) {
        if (!loadJsonFile(a.bench[i].second, bench_docs[i]))
            return exitError;
        in.bench.emplace_back(a.bench[i].first, &bench_docs[i]);
    }
    if (!in.report && !in.counters && !in.kernelWindows &&
        !in.profile && !in.timeseries && !in.spans && !in.traffic &&
        in.bench.empty()) {
        std::fprintf(stderr,
                     "ingest: nothing to ingest (pass at least one "
                     "document)\n");
        return exitError;
    }

    Json rec = buildPerfDbRecord(a.commit, a.time, a.host, a.flags,
                                 in);

    PerfDb db;
    std::string error;
    std::ifstream exists(a.db);
    if (exists && !db.load(a.db, &error)) {
        std::fprintf(stderr, "%s: %s\n", a.db.c_str(),
                     error.c_str());
        return exitError;
    }

    std::string id = PerfDb::recordId(rec);
    if (a.replace && db.remove(id))
        std::fprintf(stderr, "replacing record %s\n", id.c_str());

    if (!db.append(rec, &error)) {
        std::fprintf(stderr, "%s: %s\n", a.db.c_str(),
                     error.c_str());
        return exitError;
    }

    // Plain ingest appends the one new line; --replace rewrote
    // history, so the whole file is saved.
    bool ok;
    if (a.replace) {
        ok = db.save(a.db, &error);
    } else {
        std::ofstream out(a.db, std::ios::app);
        ok = static_cast<bool>(out << rec.dump() << '\n');
        if (!ok)
            error = "cannot append to " + a.db;
    }
    if (!ok) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return exitError;
    }
    std::printf("ingested %s (%zu record(s) in %s)\n", id.c_str(),
                db.size(), a.db.c_str());
    return 0;
}

int
cmdList(const Args &a, const PerfDb &db)
{
    if (a.json) {
        std::printf("%s\n", buildTrendListDoc(db).dump(1).c_str());
        return 0;
    }
    for (const PerfDbRecord &rec : db.records()) {
        std::string docs;
        for (const std::string &name : rec.docNames()) {
            if (!docs.empty())
                docs += ",";
            docs += name;
        }
        std::printf("%s  host=%s flags=%s  [%s]\n", rec.id().c_str(),
                    rec.host().c_str(), rec.buildFlags().c_str(),
                    docs.c_str());
    }
    std::printf("%zu record(s)\n", db.size());
    return 0;
}

int
cmdMetrics(const Args &a, const PerfDb &db)
{
    std::size_t shown = 0;
    for (const std::string &metric : allMetrics(db)) {
        if (!a.filter.empty() &&
            metric.find(a.filter) == std::string::npos)
            continue;
        std::printf("%s\n", metric.c_str());
        ++shown;
    }
    std::fprintf(stderr, "%zu metric(s)\n", shown);
    return 0;
}

int
cmdQuery(const Args &a, const PerfDb &db)
{
    if (a.metric.empty()) {
        std::fprintf(stderr, "query: --metric is required\n");
        return exitError;
    }
    Json doc = buildTrendQueryDoc(db, a.metric, a.last, a.baseline);
    if (doc.at("points").size() == 0) {
        std::fprintf(stderr,
                     "no record carries metric %s (try "
                     "'aosd_trend metrics')\n",
                     a.metric.c_str());
        return 1;
    }
    if (a.json) {
        std::printf("%s\n", doc.dump(1).c_str());
        return 0;
    }
    std::printf("%s\n", a.metric.c_str());
    const Json &points = doc.at("points");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &p = points.at(i);
        std::printf("  %-44s %12g", p.at("record").asString().c_str(),
                    p.at("value").asNumber());
        if (const Json *pct = p.find("delta_pct"))
            std::printf("  (%+.2f%%)", pct->asNumber());
        std::printf("\n");
    }
    const Json &r = doc.at("rolling");
    std::printf("rolling(%llu): median %g  mad %g  latest %g  "
                "(%+.2f%% vs median)\n",
                static_cast<unsigned long long>(
                    r.at("baseline_points").asUint()),
                r.at("median").asNumber(), r.at("mad").asNumber(),
                r.at("latest").asNumber(),
                r.at("pct_change_vs_median").asNumber());
    return 0;
}

int
cmdCheck(const Args &a, const PerfDb &db)
{
    TrendCheckResult result =
        checkTrends(db, a.tol, a.baseline, a.filter, a.skip);
    if (!a.jsonPath.empty() &&
        !writeFile(a.jsonPath, result.toJson().dump(1)))
        return exitError;

    std::printf("aosd_trend check: %zu metric(s) checked, %zu "
                "skipped (no band yet), %zu flagged "
                "(band: max(%.3g%% of median, 3xMAD), baseline %zu)\n",
                result.metricsChecked, result.metricsSkipped,
                result.flags.size(), 100.0 * a.tol, a.baseline);
    std::size_t shown = 0;
    for (const TrendFlag &f : result.flags) {
        if (a.top != 0 && shown == a.top) {
            std::printf("  ... %zu more flag(s); rerun with --top 0 "
                        "for all\n",
                        result.flags.size() - shown);
            break;
        }
        ++shown;
        std::printf("  FLAG %s: %g -> %g (%+.2f%% vs rolling median, "
                    "band +-%g)\n       pair: %s -> %s\n",
                    f.metric.c_str(), f.median, f.latest, f.pctChange,
                    f.bandHalfWidth, f.fromId.c_str(),
                    f.toId.c_str());
    }
    if (!result.flags.empty())
        std::printf("hand a pair to: aosd_bisect --db %s --from "
                    "'%s' --to '%s'\n",
                    a.db.c_str(), result.flags[0].fromId.c_str(),
                    result.flags[0].toId.c_str());
    return result.ok() ? 0 : 1;
}

int
cmdExport(const Args &a, const PerfDb &db)
{
    if (a.record.empty() || a.docName.empty()) {
        std::fprintf(stderr,
                     "export: --record and --doc are required\n");
        return exitError;
    }
    std::string error;
    const PerfDbRecord *rec = db.resolve(a.record, &error);
    if (!rec) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return exitError;
    }
    const Json *doc = rec->doc(a.docName);
    if (!doc) {
        std::string names;
        for (const std::string &n : rec->docNames()) {
            if (!names.empty())
                names += ", ";
            names += n;
        }
        std::fprintf(stderr,
                     "record %s has no document '%s' (has: %s)\n",
                     rec->id().c_str(), a.docName.c_str(),
                     names.c_str());
        return exitError;
    }
    std::string text = doc->dump(1);
    if (a.out.empty()) {
        std::printf("%s\n", text.c_str());
        return 0;
    }
    if (!writeFile(a.out, text))
        return exitError;
    std::fprintf(stderr, "%s of %s -> %s\n", a.docName.c_str(),
                 rec->id().c_str(), a.out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    // CI convenience: the commit is usually in the environment.
    a.commit = envOr("AOSD_COMMIT", envOr("GITHUB_SHA", ""));
    a.time = envOr("AOSD_TIME", "");
    std::vector<std::string> command;

    Cli cli("aosd_trend", "<command> --db perfdb.jsonl [options]",
            "commands:\n"
            "  ingest   append one run's artifacts as a record: --commit\n"
            "           --time [--host] [--flags] [--report] [--counters]\n"
            "           [--kernel-windows] [--profile] [--timeseries]\n"
            "           [--spans] [--traffic] [--bench]... [--replace]\n"
            "  list     one line per record (--json for the metadata)\n"
            "  metrics  every metric path [--filter]\n"
            "  query    one metric's series + rolling stats: --metric\n"
            "           [--last] [--baseline] [--json]\n"
            "  check    flag metrics outside their rolling band; exit 1\n"
            "           on any flag. [--tol] [--baseline] [--filter]\n"
            "           [--skip] [--top] [--json path]\n"
            "  export   print one stored document: --record --doc [--out]\n"
            "record REFs: an id, a commit (or unique prefix), 'latest',\n"
            "or -N (N runs back)\n");
    cli.option("--db", "path", a.db, "the perf database (required)");
    cli.option("--commit", "C", a.commit,
               "ingest: commit (default $AOSD_COMMIT, $GITHUB_SHA)");
    cli.option("--time", "T", a.time,
               "ingest: the commit's timestamp (default $AOSD_TIME)");
    cli.option("--host", "H", a.host, "ingest: host label");
    cli.option("--flags", "F", a.flags, "ingest: build-flags label");
    cli.option("--report", "path", a.report, "ingest: report.json");
    cli.option("--counters", "path", a.counters,
               "ingest: counters.json");
    cli.option("--kernel-windows", "path", a.kernelWindows,
               "ingest: kernel_windows.json");
    cli.option("--profile", "path", a.profile, "ingest: profile.json");
    cli.option("--timeseries", "path", a.timeseries,
               "ingest: timeseries.json");
    cli.option("--spans", "path", a.spans, "ingest: spans.json");
    cli.option("--traffic", "path", a.traffic, "ingest: traffic.json");
    cli.option("--bench", "suite=path",
               [&a](const std::string &v) {
                   std::string suite, path;
                   std::string why = Cli::splitKeyValue(v, suite, path);
                   if (why.empty())
                       a.bench.emplace_back(suite, path);
                   return why;
               },
               "ingest: a google-benchmark document (repeatable)");
    cli.flag("--replace", a.replace,
             "ingest: replace a record with the same id");
    cli.option("--metric", "PATH", a.metric, "query: the metric");
    cli.option("--filter", "S", a.filter, "substring filter list");
    cli.option("--skip", "S", a.skip, "check: substring skip list");
    cli.option("--record", "REF", a.record, "export: the record");
    cli.option("--doc", "NAME", a.docName, "export: the document");
    cli.option("--out", "path", a.out,
               "export: write to a file instead of stdout");
    cli.optionalValue("--json", "path", a.json, a.jsonPath,
                      "JSON output (check: to path)");
    cli.tolerance("--tol", a.tol,
                  "check: relative band, 0.05 or 5% (default 0.05)");
    cli.option("--last", "N", a.last,
               "query: newest N points (default 0 = all)");
    cli.option("--baseline", "N", a.baseline,
               "rolling-band window (default 20)", 1);
    cli.option("--top", "N", a.top,
               "check: print at most N flags (default 20, 0 = all)");
    cli.positionals(command);
    cli.parseOrExit(argc, argv);
    if (command.size() != 1)
        cli.fail("expected one command, got " +
                 std::to_string(command.size()));
    a.command = command[0];
    if (a.command == "help") {
        std::fputs(cli.usage().c_str(), stdout);
        return 0;
    }
    const std::string commands[] = {"ingest", "list",  "metrics",
                                    "query",  "check", "export"};
    if (std::find(std::begin(commands), std::end(commands),
                  a.command) == std::end(commands))
        cli.fail("unknown command '" + a.command + "'");
    if (a.db.empty())
        cli.fail("--db is required");

    if (a.command == "ingest")
        return cmdIngest(a);

    PerfDb db;
    std::string error;
    if (!db.load(a.db, &error)) {
        std::fprintf(stderr, "%s: %s\n", a.db.c_str(),
                     error.c_str());
        return exitError;
    }

    if (a.command == "list")
        return cmdList(a, db);
    if (a.command == "metrics")
        return cmdMetrics(a, db);
    if (a.command == "query")
        return cmdQuery(a, db);
    if (a.command == "check")
        return cmdCheck(a, db);
    return cmdExport(a, db);
}
