#!/usr/bin/env python3
"""The simulator benchmark: runs one workload through the shipped CLIs,
checks every output and prints its metrics.

    python3 perfbench/run.py --workload docs_suite --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a source checkout. It builds the CLIs and the
layer harness (perfbench/CMakeLists.txt) into .bench_build, works in
.bench_work, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import extract  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
PERFDB = os.path.join(HERE, "inputs", "perfdb.jsonl")
DIGESTS = os.path.join(HERE, "digests.json")
SPAWN = os.path.join(BUILD, "perfbench_spawn")
TOOLS = ["aosd_report", "aosd_counters", "aosd_profile", "aosd_traffic",
         "aosd_dashboard"]
MACHINES = ["CVAX", "M88000", "R2000", "R3000", "SPARC"]
WORKLOADS = ["docs_suite", "grid_machines", "traffic_mix"]

# The fewest set-ups and timed iterations a run makes, however short
# --seconds is, and how often a set-up is interleaved between the
# timed iterations: every SETUP_EVERY-th pass of the run is a set-up,
# the first one included.
SETUPS = 3
MIN_ITERATIONS = 3
SETUP_EVERY = 3
COMMAND_TIMEOUT_S = 120

# Gates of the CLIs themselves: aosd_counters' default --min-explained
# (kernel windows) and aosd_traffic's.
KERNEL_WINDOW_MIN_EXPLAINED = 95.0
TRAFFIC_MIN_EXPLAINED = 99.999

# Tier-1 tolerances of the golden documents (tests/ and CI).
GOLDENS = {
    "report.json": ("tests/expected_report.json", None),
    "counters.json": ("tests/expected_counters.json", (0.05, {})),
    "profile.json": ("tests/expected_profile.json", (0.05, {})),
    "spans.json": ("tests/expected_spans.json", (0.05, {"p999": 0.10})),
}

COUNT_NAMES = ["count.kernel_events", "count.kernel_tlb_misses",
               "count.requests", "mem.tlb.hit_ratio"]


class BenchError(Exception):
    """Set-up failed: no result can be printed."""


def log(msg):
    print(msg, flush=True)


# ---- build and host stamp ---------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "tools", "tests"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a source checkout: {need} missing "
                             f"under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    blog = os.path.join(BUILD, "perfbench_build.log")
    with open(blog, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                raise BenchError(f"cmake configure failed; see {blog}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + \
            TOOLS + ["perfbench_layers", "perfbench_spawn"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode:
            raise BenchError(f"build failed; see {blog}")


def tool(name):
    return os.path.join(BUILD, "aosd", "tools", name)


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def compiler_id():
    for d in sorted(os.listdir(os.path.join(BUILD, "CMakeFiles"))):
        p = os.path.join(BUILD, "CMakeFiles", d, "CMakeCXXCompiler.cmake")
        if os.path.exists(p):
            text = open(p).read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            return f"{cid.group(1) if cid else '?'} " \
                   f"{ver.group(1) if ver else '?'}"
    return "unknown"


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "commit " + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        p = os.path.join(ROOT, top)
        files = [p] if os.path.isfile(p) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources sha256:" + h.hexdigest()[:16]


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def steal_s():
    """Seconds the hypervisor has kept this guest's vCPUs from running
    (the steal column of /proc/stat), or None where not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def host_stamp():
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = cache.get("CMAKE_CXX_FLAGS", "") + " " + cache.get(
        "CMAKE_CXX_FLAGS_" + build_type.upper(), "")
    if build_type.lower() == "debug" or not re.search(r"-O[1-3sfz]",
                                                      flags):
        raise BenchError(f"refusing an unoptimised build: "
                         f"CMAKE_BUILD_TYPE='{build_type}', "
                         f"flags '{flags.strip()}'")
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": compiler_id(),
        "cmake_build_type": build_type,
        "cxx_flags": flags.strip(),
        "source": source_id(),
        "loadavg_before": loadavg(),
        "steal_s_before": steal_s(),
    }


# ---- workloads ----------------------------------------------------------

def traffic_seed(seed):
    """The 64-bit sweep seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"traffic_mix:{seed}".encode()).hexdigest()
    return str(int(digest[:16], 16))


def commands(workload, seed):
    """(argv, outputs) of one iteration, run in the iteration's
    directory."""
    if workload == "docs_suite":
        return [
            ([tool("aosd_report"), "--json", "report.json",
              "--timeseries", "timeseries.json", "--spans", "spans.json",
              "--jobs", "2"],
             ["report.json", "timeseries.json", "spans.json"]),
            ([tool("aosd_counters"), "--json", "counters.json",
              "--jobs", "2"], ["counters.json"]),
            ([tool("aosd_counters"), "--kernel-windows", "--json",
              "kernel_windows.json", "--jobs", "2"],
             ["kernel_windows.json"]),
            ([tool("aosd_profile"), "--json", "profile.json",
              "--jobs", "2"], ["profile.json"]),
            ([tool("aosd_traffic"), "--json", "traffic.json",
              "--requests", "20000", "--jobs", "2"], ["traffic.json"]),
            ([tool("aosd_dashboard"), "--out", "site",
              "--report", "report.json", "--counters", "counters.json",
              "--kernel-windows", "kernel_windows.json",
              "--profile", "profile.json", "--spans", "spans.json",
              "--traffic", "traffic.json", "--db", PERFDB,
              "--jobs", "2"],
             ["site/manifest.json"]),
        ]
    if workload == "grid_machines":
        return [([tool("aosd_counters"), "--kernel-windows",
                  "--machines", m, "--json", f"kw_{m}.json",
                  "--jobs", "1"], [f"kw_{m}.json"]) for m in MACHINES]
    if workload == "traffic_mix":
        s = traffic_seed(seed)
        return [
            ([tool("aosd_traffic"), "--json", "traffic_open_bursty.json",
              "--arrival", "bursty", "--seed", s, "--jobs", "1"],
             ["traffic_open_bursty.json"]),
            ([tool("aosd_traffic"), "--json", "traffic_closed.json",
              "--mode", "closed", "--levels", "1,4,16,64", "--seed", s,
              "--jobs", "1"], ["traffic_closed.json"]),
        ]
    raise BenchError(f"unknown workload {workload}")


def run_child(argv, cwd):
    """Run one CLI to completion through perfbench_spawn (spawn.cc),
    so that its max RSS is its own and not the driver's: (exit code,
    user+sys s, max RSS MB, stderr tail)."""
    os.makedirs(WORK, exist_ok=True)
    usage = os.path.join(WORK, "child.usage")
    if os.path.exists(usage):
        os.remove(usage)
    with open(os.path.join(WORK, "child.stderr"), "w+b") as err:
        proc = subprocess.Popen([SPAWN, usage] + argv, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        err.seek(0)
        tail = err.read().decode(errors="replace")[-400:]
    try:
        with open(usage) as f:
            code, cpu, rss_kb = f.read().split()
    except (OSError, ValueError):
        return (proc.returncode or 1, 0.0, 0.0,
                tail + " [no usage line: launcher killed or failed]")
    return int(code), float(cpu), int(rss_kb) / 1024.0, tail


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Checks:
    """Output checks: each counts as attempted, a failed one into
    failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"CHECK FAILED: {what}")
        return ok


def run_iteration(workload, seed, cwd, checks):
    """One pass of the workload's commands. Returns the wall s and the
    user+sys s of each command, their largest max-RSS (MB), and the
    outputs' digests."""
    os.makedirs(cwd, exist_ok=True)
    walls, cpus, rss = [], [], 0.0
    for argv, _ in commands(workload, seed):
        t0 = time.perf_counter()
        rc, used, peak, err = run_child(argv, cwd)
        walls.append(time.perf_counter() - t0)
        cpus.append(used)
        rss = max(rss, peak)
        checks.check(rc == 0, f"{os.path.basename(argv[0])} "
                              f"{' '.join(argv[1:3])} exit {rc}: {err}")
    digests = {}
    for _, outs in commands(workload, seed):
        for o in outs:
            p = os.path.join(cwd, o)
            digests[o] = sha256_file(p) if os.path.exists(p) else None
    return walls, cpus, rss, digests


def load_json(path):
    with open(path) as f:
        return json.load(f)


def docs_in(cwd, workload, seed):
    return {o: load_json(os.path.join(cwd, o))
            for _, outs in commands(workload, seed) for o in outs}


def counts(docs):
    """The exact count.* values over a set of documents; a name whose
    documents are absent is left out."""
    out = {}
    events = sum(extract.kernel_window_events(d) for d in docs.values())
    out["count.kernel_events"] = events
    reports = [d for n, d in docs.items() if n.endswith("report.json")]
    if reports:
        out["count.kernel_tlb_misses"] = sum(
            extract.kernel_tlb_misses(r) for r in reports)
    traffic = [d for d in docs.values() if d.get("kind") == "traffic"]
    if traffic:
        out["count.requests"] = sum(extract.traffic_requests(d)
                                    for d in traffic)
    hits = misses = 0
    for n, d in docs.items():
        if n.endswith("spans.json"):
            h, m = extract.tlb_hits_misses(d)
            hits, misses = hits + h, misses + m
    if hits + misses:
        out["mem.tlb.hit_ratio"] = hits / (hits + misses)
    return out


def verify_docs(docs, checks):
    """Golden and gate checks on one set of named documents."""
    for name, doc in docs.items():
        base = os.path.basename(name)
        if base in GOLDENS:
            golden, tol = GOLDENS[base]
            expected = load_json(os.path.join(ROOT, golden))
            if tol is None:
                problems = extract.diff_reports(expected, doc)
            else:
                problems = extract.diff_numeric(expected, doc, tol[0],
                                                key_tols=tol[1])
            checks.check(not problems,
                         f"{name} vs {golden}: {problems[:3]}")
        if doc.get("kind") == "traffic":
            bad = extract.kernel_window_gate(doc, TRAFFIC_MIN_EXPLAINED)
            checks.check(not bad, f"{name} traffic gate: {bad[:3]}")
        elif str(doc.get("generator", "")).endswith("--kernel-windows"):
            bad = extract.kernel_window_gate(doc,
                                             KERNEL_WINDOW_MIN_EXPLAINED)
            checks.check(not bad, f"{name} kernel-window gate: {bad[:3]}")
        elif base == "timeseries.json":
            bad = [c for c, v in doc["table7"]["cells"].items()
                   if abs(v["kernel_window"]["explained_pct"] - 100.0) >
                   100.0 - KERNEL_WINDOW_MIN_EXPLAINED]
            checks.check(not bad, f"{name} kernel-window gate: {bad[:3]}")


def pinned():
    return load_json(DIGESTS) if os.path.exists(DIGESTS) else {}


def verify_pinned(workload, digests, cnt, checks):
    """Byte-stability against the recorded digests and exact counts
    against the recorded ones (seed-independent workloads only)."""
    rec = pinned().get(workload)
    if rec is None:
        return
    for name, want in rec["sha256"].items():
        checks.check(digests.get(name) == want,
                     f"{workload} {name} digest {digests.get(name)} "
                     f"!= recorded {want}")
    for name, want in rec["counts"].items():
        checks.check(cnt.get(name) == want,
                     f"{workload} {name} = {cnt.get(name)} != recorded "
                     f"{want}")


def record_pinned(workload, digests, cnt):
    """Pin the digests of every output without a golden (the goldens
    are checked at their tier-1 tolerances instead) and the counts."""
    rec = pinned()
    rec[workload] = {"sha256": {n: d for n, d in sorted(digests.items())
                                if os.path.basename(n) not in GOLDENS},
                     "counts": cnt}
    with open(DIGESTS, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded digests and counts of {workload} in {DIGESTS}")


def reference_report(wdir, checks):
    """report.json for a workload that does not produce one, so
    paper_rel_err_pct stands beside every workload's timings. Untimed."""
    cwd = os.path.join(wdir, "reference")
    os.makedirs(cwd, exist_ok=True)
    rc, _, _, err = run_child([tool("aosd_report"), "--json",
                               "report.json", "--jobs", "2"], cwd)
    checks.check(rc == 0, f"aosd_report exit {rc}: {err}")
    return {"reference/report.json":
            load_json(os.path.join(cwd, "report.json"))}


# ---- untraced run -------------------------------------------------------

def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def untraced(workload, seed, seconds, record):
    wdir = fresh_dir(os.path.join(WORK, workload))
    checks = Checks()

    # The run is a sequence of passes over the workload's commands
    # until --seconds have passed. Every SETUP_EVERY-th pass is a
    # set-up: one cold iteration in a fresh work directory. The others
    # are timed iterations in one warm directory. Each command is
    # timed on its own; setup_s, wall_s and cpu_s are sums of
    # per-command minima (extract.sum_of_minima). Interleaving spreads
    # both kinds of sample over the whole run.
    cwd = os.path.join(wdir, "iter")
    setup, walls, cpus, rss, first = [], [], [], [], None
    start = time.perf_counter()
    while True:
        timed_out = time.perf_counter() - start >= seconds
        if timed_out and len(setup) >= SETUPS and \
                len(walls) >= MIN_ITERATIONS:
            break
        if timed_out:
            is_setup = len(setup) < SETUPS
        else:
            is_setup = (len(setup) + len(walls)) % SETUP_EVERY == 0
        if is_setup:
            where = fresh_dir(os.path.join(wdir, f"setup{len(setup)}"))
            step_walls, _, rss_now, digests = run_iteration(
                workload, seed, where, checks)
            setup.append(step_walls)
            shutil.rmtree(where, ignore_errors=True)
            what = f"set-up {len(setup)}"
        else:
            step_walls, step_cpus, rss_now, digests = run_iteration(
                workload, seed, cwd, checks)
            walls.append(step_walls)
            cpus.append(step_cpus)
            what = f"iteration {len(walls)}"
        rss.append(rss_now)
        if first is None:
            first = digests
        checks.check(digests == first,
                     f"{what} outputs differ from the first pass's")

    docs = docs_in(cwd, workload, seed)
    if "report.json" not in docs:
        docs.update(reference_report(wdir, checks))
    verify_docs(docs, checks)
    cnt = counts(docs)
    if record:
        record_pinned(workload, first, cnt)
    elif workload != "traffic_mix":
        verify_pinned(workload, first, cnt, checks)

    report = next(d for n, d in docs.items() if n.endswith("report.json"))
    wall_s, n = extract.sum_of_minima(walls)
    cpu_s, _ = extract.sum_of_minima(cpus)
    setup_s, n_setup = extract.sum_of_minima(setup)
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "sim_events_per_s": (cnt["count.kernel_events"] / wall_s, "1/s"),
        "peak_rss_mb": (extract.median_with_count(rss)[0], "MB"),
        "setup_s": (setup_s, "s"),
        "paper_rel_err_pct": (extract.paper_rel_err_pct(report), "%"),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
               "peak_rss_mb": rss}
    for name, (value, unit) in metrics.items():
        s = samples.get(name)
        if name == "peak_rss_mb":
            extra = (f"median of {len(s)} (min {min(s):.4f}, "
                     f"max {max(s):.4f})")
        elif s:
            kind = "set-up" if name == "setup_s" else "iteration"
            passes = [sum(row) for row in s]
            extra = (f"sum of per-command minima over {len(s)} "
                     f"{kind}s ({kind} median "
                     f"{extract.median_with_count(passes)[0]:.4f}, "
                     f"max {max(passes):.4f})")
        else:
            extra = ""
        log(f"{name:<20} {value:>16.6g} {unit:<4} {extra}")
    for name in COUNT_NAMES:
        if name in cnt:
            log(f"{name:<20} {cnt[name]:>16} exact; outputs "
                f"byte-identical in all {n} iterations")
    failed = len(checks.failures)
    log(f"{'failed_frac':<20} {failed / checks.attempted:>16.6g} "
        f"({failed} of {checks.attempted} checks failed)")
    return checks, metrics, {"samples": samples, "counts": cnt,
                             "iterations": n, "setups": n_setup}


# ---- traced run ---------------------------------------------------------

def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    stem = re.sub(r"\.(CVAX|M88000|R2000|R3000|SPARC|u28|u56|t64|t128|"
                  r"open_bursty|closed)$", "", name)
    if name.startswith("count."):
        return "count"
    for suffix, unit in (("mb_per_s", "MB/s"), ("_per_s", "1/s"),
                         ("_ns", "ns"), ("_pct", "%"), ("_s", "s"),
                         ("factor", "x")):
        if stem.endswith(suffix):
            return unit
    return "ratio"


def traced(workload, seed):
    """One untraced CLI iteration, then the layer harness with spans
    around every layer call; reports the per-layer metrics."""
    wdir = fresh_dir(os.path.join(WORK, workload))
    checks = Checks()
    origin = time.perf_counter_ns()
    spans = []

    def span(name, start, end, parent):
        spans.append({"name": name, "workload": workload,
                      "start": start - origin, "end": end - origin,
                      "parent": parent})
        return len(spans) - 1

    cwd = os.path.join(wdir, "iter")
    t0 = time.perf_counter_ns()
    walls, _, _, _ = run_iteration(workload, seed, cwd, checks)
    wall = sum(walls)
    t1 = time.perf_counter_ns()
    span("untraced_iteration", t0, t1, -1)
    cli_docs = docs_in(cwd, workload, seed)

    out = fresh_dir(os.path.join(wdir, "layers"))
    t0 = time.perf_counter_ns()
    harness = [os.path.join(BUILD, "perfbench_layers"), "--out", out,
               "--perfdb", PERFDB, "--traffic-seed", traffic_seed(seed)]
    rc, _, _, err = run_child(harness, wdir)
    t1 = time.perf_counter_ns()
    if not checks.check(rc == 0, f"perfbench_layers exit {rc}: {err}"):
        return checks, {}, {}
    root = span("perfbench_layers", t0, t1, -1)
    layers = load_json(os.path.join(out, "layers.json"))
    base = len(spans)
    for s in layers["spans"]:
        spans.append({"name": s["name"], "workload": s["workload"],
                      "start": t0 - origin + s["start_ns"],
                      "end": t0 - origin + s["end_ns"],
                      "parent": root if s["parent"] < 0
                      else base + s["parent"]})

    # The harness must have done the CLI's work: its documents of the
    # workload's section are byte-identical to the CLI outputs.
    for name in cli_docs:
        mine = os.path.join(out, name)
        checks.check(os.path.exists(mine) and sha256_file(mine) ==
                     sha256_file(os.path.join(cwd, name)),
                     f"harness {name} differs from the CLI output")
    harness_docs = {n: load_json(os.path.join(out, n))
                    for n in sorted(os.listdir(out))
                    if n.endswith(".json") and n != "layers.json"}
    verify_docs(harness_docs, checks)
    for w, rec in pinned().items():
        for name, want in rec["sha256"].items():
            p = os.path.join(out, name)
            checks.check(os.path.exists(p) and sha256_file(p) == want,
                         f"harness {name} digest != recorded for {w}")

    m = dict(layers["metrics"])
    sec = {name: extract.span_seconds(spans, name)
           for name in {s["name"] for s in spans}}
    for b in ("table7_figures", "headline_figures",
              "kernel_window_figures"):
        m[f"study.{b}_s"] = sec[f"study.{b}"]
    for b in ("report", "timeseries", "spans", "dashboard"):
        m[f"study.{b}_s"] = sec[f"study.{b}"]
    for mach in MACHINES:
        m[f"workload.grid_s.{mach}"] = sec[f"workload.grid.{mach}"]
    m["study.replay_factor"] = extract.replay_factor(
        [sec[f"study.{b}.serial"] for b in
         ("table7_figures", "headline_figures", "kernel_window_figures")],
        m["workload.grid_s.R3000"])
    m["sim.json.dump_mb_per_s"] = m.pop("sim.json.timeseries_mb") / \
        sec["sim.json.dump_timeseries"]
    m.update(counts(harness_docs))

    # Top-level spans of the workload's section against the untraced
    # wall time; the difference is tracing and process overhead.
    top = next(i for i, s in enumerate(spans) if s["name"] == workload)
    top_sum = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] == top) / 1e9
    m["trace.top_spans_s"] = top_sum
    m["trace.untraced_wall_s"] = wall
    m["trace.overhead_s"] = wall - top_sum

    selfs = extract.self_times(spans)
    by_self = {}
    for s, t in zip(spans, selfs):
        by_self[s["name"]] = by_self.get(s["name"], 0) + t / 1e9
    log(f"top-level spans of {workload}: {top_sum:.4f} s; untraced "
        f"wall_s {wall:.4f} s; tracing and process overhead "
        f"{wall - top_sum:.4f} s")
    log("self time by span (s):")
    for name, t in sorted(by_self.items(), key=lambda kv: -kv[1])[:20]:
        log(f"  {name:<48} {t:10.4f}")
    with open(os.path.join(wdir, "trace.json"), "w") as f:
        json.dump({"spans": spans, "self_ns": selfs}, f)
    metrics = {}
    for name, value in sorted(m.items()):
        unit = layer_unit(name)
        metrics[name] = (value, unit)
        log(f"{name:<48} {value:>16.6g} {unit}")
    return checks, metrics, {"spans": len(spans)}


# ---- main ---------------------------------------------------------------

def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    spec = load_json(path)
    return [m["name"] for m in spec["per_layer" if trace else
                                    "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the outputs' digests and counts to "
                         "perfbench/digests.json instead of checking "
                         "them (after an intended change of the "
                         "documents)")
    args = ap.parse_args(argv)

    try:
        build()
        host = host_stamp()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        log(f"== {w}  seed {args.seed}  seconds {args.seconds:g}  "
            f"trace {args.trace}")
        log("host: " + json.dumps(host))
        if args.trace:
            checks, metrics, info = traced(w, args.seed)
        else:
            checks, metrics, info = untraced(w, args.seed, args.seconds,
                                             args.record)
        host["loadavg_after"] = loadavg()
        host["steal_s_after"] = steal_s()
        log(f"loadavg after: {host['loadavg_after']}; vCPU steal "
            f"{host['steal_s_before']} -> {host['steal_s_after']} s")
        prefix = f"{w}." if len(workloads) > 1 else ""
        result["attempted"] += checks.attempted
        result["failed"] += len(checks.failures)
        for name, (value, unit) in metrics.items():
            result["metrics"][prefix + name] = {"value": value,
                                                "unit": unit}
        with open(os.path.join(WORK, w, "result.json"), "w") as f:
            json.dump({"workload": w, "seed": args.seed,
                       "trace": args.trace, "host": host,
                       "failures": checks.failures,
                       "attempted": checks.attempted,
                       "metrics": {k: v[0] for k, v in metrics.items()},
                       "info": info}, f, indent=1)
    declared = declared_metrics(args.trace)
    for name in declared:
        if len(workloads) == 1 and name not in result["metrics"]:
            result["failed"] += 1
            result["attempted"] += 1
            log(f"CHECK FAILED: metric {name} of BENCHMARK.json not "
                f"reported")
    result["correct"] = result["failed"] == 0
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
