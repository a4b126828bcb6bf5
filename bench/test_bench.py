"""Tests of the benchmark's own arithmetic and operation lists.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import measure  # noqa: E402
import ops  # noqa: E402
import tracer  # noqa: E402


# -- percentiles ---------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # unsorted on purpose
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile(list(range(1, 1001)), 0.99) == 990


def test_percentile_needs_ten_samples_beyond():
    assert measure.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError, match="9 beyond"):
        measure.percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        measure.percentile(list(range(999)), 0.99)


def test_min_samples_matches_the_floor():
    assert measure.min_samples(0.5) == 20
    assert measure.min_samples(0.9) == 100
    assert measure.min_samples(0.99) == 1000
    for q in (0.5, 0.9, 0.99):
        n = measure.min_samples(q)
        measure.percentile([0.0] * n, q)
        with pytest.raises(ValueError):
            measure.percentile([0.0] * (n - 1), q)


def test_every_workload_meets_its_floor_at_any_length():
    assert len(ops.widearea_ops(0, 1)) >= measure.min_samples(0.9)
    assert len(ops.churn_ops(0, 1)) >= measure.min_samples(0.9)
    windows = ops.serve_windows(0, 1)
    assert len(windows) == measure.CHUNKS + ops.SERVE_SPARE_WINDOWS
    assert all(len(w) >= measure.min_samples(0.99) for w in windows)


def test_window_metrics_scale_by_the_speed_factor():
    # The host ran twice as fast during the first sub-window and half as
    # fast during the second; at the nominal speed both did the same.
    fast = {"latencies": [0.001] * 100, "wall_s": 0.1, "factor": 2.0}
    slow = {"latencies": [0.004] * 100, "wall_s": 0.4, "factor": 0.5}
    for per_window in (False, True):
        timing = measure.window_metrics([fast, slow, fast], 0.9, per_window=per_window)
        assert timing["p50_s"] == pytest.approx(0.002)
        assert timing["tail_s"] == pytest.approx(0.002)
        assert timing["throughput_per_s"] == pytest.approx(500)
    assert measure.scaled_wall([fast, slow]) == pytest.approx(0.4)


def test_speed_factor_is_nominal_over_measured():
    nominal = measure.REFERENCE_MS / 1e3
    assert measure.speed_factor(nominal) == pytest.approx(1.0)
    assert measure.speed_factor(2 * nominal) == pytest.approx(0.5)


def test_throughput_is_the_median_over_sub_windows():
    steady = {"latencies": [0.01] * 20, "wall_s": 0.2, "factor": 1.0}
    stalled = {"latencies": [0.01] * 20, "wall_s": 2.0, "factor": 1.0}
    timing = measure.window_metrics([steady, stalled, steady], 0.5, per_window=True)
    assert timing["throughput_per_s"] == pytest.approx(100)


# -- span self time --------------------------------------------------------------


def test_union_counts_overlaps_once():
    assert measure.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert measure.union_length([(0, 10), (2, 3)]) == 10
    assert measure.union_length([]) == 0


def test_union_clips_to_the_window():
    assert measure.union_length([(-5, 2), (8, 20)], clip=(0, 10)) == 4


def test_self_time_subtracts_overlapping_children_once():
    # Parent 0..10; children 1..4 and 3..6 overlap on 3..4, so they cover 5.
    assert measure.self_time(0, 10, [(1, 4), (3, 6)]) == 5
    # A child running past the parent's end counts only inside it.
    assert measure.self_time(0, 10, [(8, 12)]) == 8


def test_trace_self_times_and_coverage():
    tr = tracer.Tracer()
    rows = [  # name, start, end, parent
        ("op", 0.0, 10.0, -1),
        ("search.lower", 1.0, 5.0, 0),
        ("search.score", 2.0, 3.0, 1),
        ("search.decide", 4.0, 8.0, 0),
    ]
    for name, start, end, parent in rows:
        tr.names.append(name)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.parents.append(parent)
        tr.ops.append(0)
    assert tracer.self_times(tr) == [3.0, 3.0, 1.0, 4.0]
    assert tracer.op_coverage(tr) == pytest.approx(0.7)
    layers = tracer.layer_metrics(tr, 1)
    assert layers["search.lower_ms"] == pytest.approx(3000.0)
    assert layers["search.decide_ms"] == pytest.approx(4000.0)


def test_a_missing_wrapper_target_is_recorded_absent(monkeypatch):
    monkeypatch.setattr(
        tracer,
        "TARGETS",
        (
            ("no.such.module", "f", tracer._span("x")),
            ("measure", "no_such_function", tracer._span("x")),
        ),
    )
    tr = tracer.Tracer()
    tracer.install(tr)
    assert tr.absent == ["no.such.module.f", "measure.no_such_function"]
    assert tracer.layer_metrics(tr, 1)["trace.absent"] == 2


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(tracer.PER_LAYER)


# -- operation lists -------------------------------------------------------------


@pytest.mark.parametrize("make", [ops.widearea_ops, ops.churn_ops, ops.serve_windows])
def test_a_seed_always_gives_the_same_operations(make):
    assert make(7, 10) == make(7, 10)
    assert make(7, 10) != make(8, 10)


def test_composition_does_not_depend_on_the_seed():
    def strata(seed):
        return Counter(op.stratum for op in ops.widearea_ops(seed, 10))

    def policies(seed):
        return Counter(op.policy for op in ops.churn_ops(seed, 10))

    def fresh(seed):
        return [sum(r.fresh for r in w) for w in ops.serve_windows(seed, 10)]

    assert strata(1) == strata(2) == {"wide": 50, "small": 25, "lut-12": 5, "lut-13": 20}
    assert policies(1) == policies(2) == {"rebalance": 40, "adaptive": 40, "research": 40}
    per_window = len(ops.serve_windows(1, 10)[0]) // ops.SERVE_FRESH_EVERY
    assert fresh(1) == fresh(2) == [per_window] * (measure.CHUNKS + ops.SERVE_SPARE_WINDOWS)


def test_widearea_pools_are_fresh_within_a_run():
    run = ops.widearea_ops(3, 10)
    pools = [(op.sites, op.pool_seed) for op in run]
    assert len(set(pools)) == len(pools)
    warmup, parity = ops.widearea_side_pools(3)
    assert not {warmup, *parity} & set(pools)


def test_widearea_percentiles_fall_mid_stratum():
    # Strata sorted by latency: small, wide, lut-12, lut-13.
    shares = Counter(stratum for stratum, _ in ops.WIDEAREA_CYCLE)
    n = len(ops.WIDEAREA_CYCLE)
    small = shares["small"] / n
    below_lut13 = (shares["small"] + shares["wide"] + shares["lut-12"]) / n
    assert small + shares["wide"] / n / 2 == 0.5  # p50: the wide stratum's median
    assert below_lut13 + shares["lut-13"] / n / 2 == 0.9  # p90: lut-13's median


def test_serve_fresh_requests_are_new_and_never_warmed_up():
    run = [r for w in ops.serve_windows(5, 10) for r in w]
    fresh = [r.availability for r in run if r.fresh]
    hot = {r.availability for r in ops.serve_hot_set()}
    assert len(set(fresh)) == len(fresh)
    assert not set(fresh) & hot
    assert all(r.availability in hot for r in run if not r.fresh)
