"""Tests for activity recording and the ASCII timeline."""

import pytest

from repro.apps.stencil import run_stencil
from repro.experiments import ascii_timeline
from repro.hardware.presets import paper_testbed
from repro.mmps import MMPS
from repro.partition import balanced_partition_vector


def stencil_run(n=300, p1=4, p2=0, iterations=5):
    net = paper_testbed()
    mmps = MMPS(net)
    procs = list(net.cluster("sparc2"))[:p1] + list(net.cluster("ipc"))[:p2]
    vec = balanced_partition_vector([0.3] * p1 + [0.6] * p2, n)
    return run_stencil(mmps, procs, vec, n, iterations=iterations)


def test_activity_intervals_recorded_and_ordered():
    result = stencil_run()
    for ctx in result.run.contexts:
        kinds = {kind for kind, _a, _b in ctx.activity}
        assert "compute" in kinds and "send" in kinds and "recv" in kinds
        for kind, a, b in ctx.activity:
            assert b >= a
        starts = [a for _k, a, _b in ctx.activity]
        assert starts == sorted(starts)


def test_activity_totals_match_counters():
    result = stencil_run()
    for ctx in result.run.contexts:
        compute = sum(b - a for k, a, b in ctx.activity if k == "compute")
        comm = sum(b - a for k, a, b in ctx.activity if k != "compute")
        assert compute == pytest.approx(ctx.compute_time_ms)
        assert comm == pytest.approx(ctx.comm_time_ms)


def test_timeline_renders_one_row_per_task():
    result = stencil_run(p1=3)
    text = ascii_timeline(result.run, width=40, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    bar_lines = [l for l in lines if "|" in l]
    assert len(bar_lines) == 3
    for line in bar_lines:
        bar = line.split("|")[1]
        assert len(bar) == 40
        assert set(bar) <= {"#", "~", "."}
        assert "#" in bar  # some compute everywhere


def test_timeline_region_contrast():
    """Region A runs show far more '#' than region B runs."""
    big = stencil_run(n=1200, p1=6, p2=0)
    small = stencil_run(n=60, p1=6, p2=6)

    def hash_fraction(result):
        text = ascii_timeline(result.run, width=60)
        bars = [l.split("|")[1] for l in text.splitlines() if "|" in l]
        total = sum(len(b) for b in bars)
        return sum(b.count("#") for b in bars) / total

    assert hash_fraction(big) > 2 * hash_fraction(small)


def test_timeline_width_validated():
    result = stencil_run(p1=2)
    with pytest.raises(ValueError):
        ascii_timeline(result.run, width=5)
