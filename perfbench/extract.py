"""Pure extraction and checking functions of the benchmark.

Everything here works on parsed JSON documents and plain numbers, so
test_extract.py can exercise it on small synthetic documents without
building or running the simulator.
"""

import math
import statistics


# ---- statistics -------------------------------------------------------

def median_with_count(values):
    """(median, sample count) of a non-empty list of numbers."""
    if not values:
        raise ValueError("no samples")
    return statistics.median(values), len(values)


def sum_of_minima(rows):
    """(sum of each column's minimum, row count) of a non-empty list of
    equal-length rows of per-step times: one pass with every step at
    its fastest sample. Load from other tenants of the host only adds
    time, so the fastest sample of each step is the steadiest estimate
    of its cost."""
    if not rows:
        raise ValueError("no samples")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows of different lengths")
    return sum(min(col) for col in zip(*rows)), len(rows)


# ---- counts from the documents --------------------------------------

def _walk(node):
    """Yield (key, value) for every object member, depth first."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield k, v
            yield from _walk(v)
    elif isinstance(node, list):
        for v in node:
            yield from _walk(v)


def _terms_count(reconciliation):
    return sum(t["count"] for t in reconciliation["terms"].values())


def kernel_window_events(doc):
    """Sum of terms.*.count over every kernel-window reconciliation in
    one document: the cells of an aosd_counters --kernel-windows
    document, and every "kernel_window" object (timeseries and traffic
    cells). The hardware-counter reconciliations of counters.json are
    not kernel windows and are not counted."""
    total = 0
    if str(doc.get("generator", "")).endswith("--kernel-windows"):
        for cell in doc["cells"].values():
            total += _terms_count(cell["reconciliation"])
    for key, value in _walk(doc):
        if key == "kernel_window" and isinstance(value, dict) \
                and "terms" in value:
            total += _terms_count(value)
    return total


def kernel_tlb_misses(report):
    """Sum of the simulated Table 7 kernel TLB misses in report.json."""
    return sum(f["sim"] for f in report["tables"]["table7"]["figures"]
               if f["id"].startswith("kernel_tlb_misses."))


def traffic_requests(doc):
    """Requests priced by one traffic.json document."""
    return doc["total_requests"] if doc.get("kind") == "traffic" else 0


def tlb_hits_misses(spans_doc):
    """(hits, misses) on the root spans of every exemplar request in
    spans.json, the one reference document that counts TLB hits."""
    hits = misses = 0
    for prims in spans_doc["machines"].values():
        for cell in prims.values():
            for ex in cell["exemplars"]:
                counters = ex["spans"].get("counters", {})
                hits += counters.get("tlb_hits", 0)
                misses += counters.get("tlb_misses", 0)
    return hits, misses


def paper_rel_err_pct(report):
    """report.json's mean |relative error| against the paper, in %."""
    return 100.0 * report["summary"]["mean_abs_rel_error"]


# ---- spans ----------------------------------------------------------

def _union_length(intervals):
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its children cover. `spans` is a list of dicts with
    start, end and parent (index into the list, -1 for a root)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c]["start"], s["start"]),
             min(spans[c]["end"], s["end"]))
            for c in children[i]
            if spans[c]["end"] > s["start"] and
            spans[c]["start"] < s["end"])
        out.append(s["end"] - s["start"] - covered)
    return out


def span_seconds(spans, name):
    """Total duration of every span called `name` (start/end in ns)."""
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name) / 1e9


def replay_factor(builder_seconds, grid_seconds):
    """How many Table 7 grids the study replays: the summed time of
    the Table 7 builders over the time of one grid."""
    return sum(builder_seconds) / grid_seconds


# ---- output checks --------------------------------------------------

def numeric_leaves(doc, prefix=""):
    """path -> number for every numeric leaf, the way
    study/perfdiff.hh flattens a document (keys joined with '.',
    array elements by index; NaN and non-numbers skipped)."""
    out = {}
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return out
    if isinstance(doc, (int, float)):
        if not (isinstance(doc, float) and math.isnan(doc)):
            out[prefix] = doc
        return out
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        out.update(numeric_leaves(v, f"{prefix}.{k}" if prefix
                                  else str(k)))
    return out


def diff_numeric(expected, actual, rel_tol, abs_tol=1e-9, key_tols=None):
    """Problems (empty = pass) comparing two documents leaf by leaf,
    with the semantics of diffPerfDocs: a pair differs when
    |a - e| > abs_tol and the relative delta exceeds the tolerance
    (per last path segment from key_tols, else rel_tol); a path on one
    side only is always a problem."""
    key_tols = key_tols or {}
    exp = numeric_leaves(expected)
    act = numeric_leaves(actual)
    problems = []
    for path, e in exp.items():
        if path not in act:
            problems.append(f"missing {path}")
            continue
        a = act[path]
        denom = max(abs(e), abs(a))
        rel = abs(a - e) / denom if denom > 0 else 0.0
        tol = key_tols.get(path.rsplit(".", 1)[-1], rel_tol)
        if abs(a - e) > abs_tol and rel > tol:
            problems.append(f"{path}: {e} -> {a}")
    problems += [f"added {p}" for p in act if p not in exp]
    return problems


def diff_reports(expected, actual, rel_tol=1e-6, abs_tol=1e-9):
    """Problems comparing two report.json documents figure by figure,
    with the semantics of diffReports (study/report.hh)."""
    def sims(doc):
        return {f"{t}.{f['id']}": f["sim"]
                for t, v in doc["tables"].items()
                for f in v["figures"]}
    problems = []
    if expected.get("schema_version") != actual.get("schema_version"):
        problems.append("schema_version mismatch")
    exp, act = sims(expected), sims(actual)
    for k, e in exp.items():
        if k not in act:
            problems.append(f"figure disappeared: {k}")
            continue
        a = act[k]
        diff = abs(a - e)
        if diff > abs_tol and diff > rel_tol * max(abs(e), abs(a)):
            problems.append(f"figure drifted: {k} {e} -> {a}")
    problems += [f"new figure: {k}" for k in act if k not in exp]
    return problems


def kernel_window_gate(doc, min_explained):
    """Cells outside the CLIs' --min-explained band: the
    aosd_counters --kernel-windows gate (|pct - 100| <= 100 - min) for
    kernel-windows documents, the aosd_traffic gate
    (min <= pct <= 200 - min) for traffic documents."""
    bad = []
    if doc.get("kind") == "traffic":
        for m in doc["machines"]:
            for cell in m["load_levels"]:
                pct = cell["kernel_window"]["explained_pct"]
                if not min_explained <= pct <= 200.0 - min_explained:
                    bad.append(f"{m['machine']}@{cell['load']}: {pct}%")
    else:
        for name, cell in doc["cells"].items():
            pct = cell["reconciliation"]["explained_pct"]
            if abs(pct - 100.0) > 100.0 - min_explained:
                bad.append(f"{doc['machine']}/{name}: {pct}%")
    return bad
