"""Unit tests of the benchmark's extraction code on small synthetic
documents.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import extract  # noqa: E402


def terms(*counts):
    return {"terms": {f"t{i}": {"count": c, "penalty_cycles": 1,
                                "cycles": c}
                      for i, c in enumerate(counts)},
            "explained_pct": 100}


class KernelEventSums(unittest.TestCase):
    def test_kernel_windows_document_cells(self):
        doc = {"generator": "aosd_counters --kernel-windows",
               "machine": "R3000",
               "cells": {"a.mach25": {"reconciliation": terms(3, 4)},
                         "a.mach30": {"reconciliation": terms(10)}}}
        self.assertEqual(extract.kernel_window_events(doc), 17)

    def test_nested_kernel_window_objects(self):
        doc = {"kind": "traffic", "total_requests": 5,
               "machines": [{"machine": "CVAX", "load_levels": [
                   {"load": 0.3, "kernel_window": terms(1, 2)},
                   {"load": 0.6, "kernel_window": terms(7)}]}]}
        self.assertEqual(extract.kernel_window_events(doc), 10)

    def test_hardware_counter_reconciliations_are_not_counted(self):
        doc = {"generator": "aosd_counters",
               "machines": {"R3000": {"trap": {
                   "reconciliation": terms(100)}}}}
        self.assertEqual(extract.kernel_window_events(doc), 0)


class Statistics(unittest.TestCase):
    def test_median_with_count(self):
        self.assertEqual(extract.median_with_count([3.0, 1.0, 2.0]),
                         (2.0, 3))
        self.assertEqual(extract.median_with_count([4, 1, 2, 3]),
                         (2.5, 4))
        with self.assertRaises(ValueError):
            extract.median_with_count([])

    def test_sum_of_minima(self):
        self.assertEqual(extract.sum_of_minima([[1.0, 5.0], [2.0, 3.0]]),
                         (4.0, 2))
        self.assertEqual(extract.sum_of_minima([[2.5]]), (2.5, 1))
        with self.assertRaises(ValueError):
            extract.sum_of_minima([])
        with self.assertRaises(ValueError):
            extract.sum_of_minima([[1.0, 2.0], [1.0]])


class ReplayFactor(unittest.TestCase):
    def test_three_builders_over_one_grid(self):
        self.assertAlmostEqual(
            extract.replay_factor([0.5, 0.4, 0.55], 0.5), 2.9)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [{"start": 0, "end": 100, "parent": -1},
                 {"start": 10, "end": 40, "parent": 0},
                 {"start": 50, "end": 60, "parent": 0},
                 {"start": 12, "end": 20, "parent": 1}]
        self.assertEqual(extract.self_times(spans), [60, 22, 10, 8])

    def test_overlapping_children_count_once(self):
        spans = [{"start": 0, "end": 100, "parent": -1},
                 {"start": 10, "end": 50, "parent": 0},
                 {"start": 30, "end": 70, "parent": 0}]
        self.assertEqual(extract.self_times(spans)[0], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [{"start": 0, "end": 10, "parent": -1},
                 {"start": 5, "end": 20, "parent": 0}]
        self.assertEqual(extract.self_times(spans)[0], 5)

    def test_span_seconds_sums_same_name(self):
        spans = [{"name": "a", "start": 0, "end": 1_000_000_000},
                 {"name": "a", "start": 0, "end": 500_000_000},
                 {"name": "b", "start": 0, "end": 7}]
        self.assertAlmostEqual(extract.span_seconds(spans, "a"), 1.5)


class Counts(unittest.TestCase):
    def test_kernel_tlb_misses_from_report(self):
        report = {"tables": {"table7": {"figures": [
            {"id": "kernel_tlb_misses.latex-150.mach25", "sim": 10},
            {"id": "syscalls.latex-150.mach25", "sim": 99},
            {"id": "kernel_tlb_misses.latex-150.mach30", "sim": 5}]}}}
        self.assertEqual(extract.kernel_tlb_misses(report), 15)

    def test_tlb_hits_misses_from_exemplar_roots(self):
        doc = {"machines": {"R3000": {"trap": {"exemplars": [
            {"spans": {"counters": {"tlb_hits": 3, "tlb_misses": 1},
                       "spans": [{"counters": {"tlb_hits": 50}}]}},
            {"spans": {"counters": {"tlb_misses": 4}}}]}}}}
        self.assertEqual(extract.tlb_hits_misses(doc), (3, 5))


class OutputChecks(unittest.TestCase):
    def test_numeric_diff_tolerances(self):
        old = {"a": {"p50": 100.0, "p999": 100.0}, "n": "x"}
        new = {"a": {"p50": 104.0, "p999": 109.0}, "n": "y"}
        self.assertEqual(extract.diff_numeric(old, new, 0.05,
                                              key_tols={"p999": 0.10}),
                         [])
        self.assertEqual(len(extract.diff_numeric(old, new, 0.05)), 1)
        self.assertEqual(extract.diff_numeric({"a": [1]}, {"a": [1, 2]},
                                              0.05), ["added a.1"])

    def test_report_diff(self):
        def rep(v):
            return {"schema_version": 1, "tables": {"table1": {
                "figures": [{"id": "x", "sim": v}]}}}
        self.assertEqual(extract.diff_reports(rep(1.0), rep(1.0)), [])
        self.assertEqual(len(extract.diff_reports(rep(1.0), rep(1.01))),
                         1)

    def test_gates(self):
        kw = {"machine": "R3000", "cells": {
            "a": {"reconciliation": {"explained_pct": 100}},
            "b": {"reconciliation": {"explained_pct": 94}}}}
        self.assertEqual(len(extract.kernel_window_gate(kw, 95)), 1)
        traffic = {"kind": "traffic", "machines": [
            {"machine": "CVAX", "load_levels": [
                {"load": 1, "kernel_window": {"explained_pct": 100}},
                {"load": 2, "kernel_window": {"explained_pct": 99.9}}]}]}
        self.assertEqual(len(extract.kernel_window_gate(traffic, 99.999)),
                         1)


if __name__ == "__main__":
    unittest.main()
