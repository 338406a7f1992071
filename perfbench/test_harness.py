"""Tests of the harness: BENCHMARK.json names exactly what run.py reports,
the tail rule, and the regular random structures the workloads use.
Run with `python3 -m pytest perfbench/test_harness.py`."""

import collections
import json
import os
import random

import run
import workloads


def load():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metrics_and_units_match():
    bench = load()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_workloads_match():
    assert tuple(w["name"] for w in load()["workloads"]) == workloads.WORKLOADS


def test_tail_level_keeps_ten_samples_beyond():
    assert run.tail_level(40) == 75.0
    assert run.tail_level(99) == 75.0
    assert run.tail_level(100) == 90.0
    assert run.tail_level(1000) == 99.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert run.percentile([1.0, 2.0], 75.0) == 1.75


def test_regular_incidence_is_regular_and_seeded():
    for rows, cols, per_col in ((40, 120, 4), (6, 6, 2), (6, 4, 3), (12, 36, 4)):
        cells = workloads.regular_incidence(random.Random(rows), rows, cols, per_col)
        assert len(cells) == cols
        assert all(len(set(c)) == per_col == len(c) for c in cells)
        degree = collections.Counter(r for c in cells for r in c)
        assert set(degree) == set(range(1, rows + 1))
        assert set(degree.values()) == {cols * per_col // rows}
        assert cells == workloads.regular_incidence(random.Random(rows), rows, cols, per_col)


def test_run_loop_counts_failed_only_for_known_faults():
    def boom():
        raise ValueError("bad")

    ops = [workloads.Op("fine", lambda: 1, lambda v: v == 1),
           workloads.Op("raises", boom, lambda v: True),
           workloads.Op("wrong", lambda: 2, lambda v: v == 1),
           workloads.Op("fault raises", boom, lambda v: True, fault="known"),
           workloads.Op("fault wrong", lambda: 2, lambda v: v == 1, fault="known")]
    loop = run.run_loop(ops, 0.0, min_ops=10)
    assert loop["rounds"] == 2 and len(loop["latencies"]) == 10
    assert loop["wrong"] == {"raises: ValueError: bad": 2, "wrong: wrong output": 2}
    assert loop["failed"] == {"fault raises: ValueError: bad": 2, "fault wrong: known": 2}


def test_times_are_scaled_to_the_calibration_speed():
    loop = {"latencies": [0.01 * (i + 1) for i in range(100)], "calibration": [run.CALIBRATION_S / 2] * 7}
    measured, scaled = run.end_to_end(loop, [0.5, 0.7, 0.6], children=False)
    assert measured["setup_s"] == 0.6 and scaled["setup_s"] == 1.2
    assert scaled["op_p50_ms"] == 2 * measured["op_p50_ms"]
    assert scaled["op_tail_ms"] == 2 * measured["op_tail_ms"]
    assert scaled["ops_per_s"] == measured["ops_per_s"] / 2
    assert scaled["peak_rss_mib"] == measured["peak_rss_mib"]
    assert len(run.calibrate()) == 7
