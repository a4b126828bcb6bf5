"""Tests for baseline partitioners and overhead accounting."""

import pytest

from repro.apps.stencil import stencil_computation
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import paper_testbed
from repro.partition import (
    all_available,
    equal_decomposition,
    fastest_cluster_only,
    gather_available_resources,
    overhead_report,
    paper_bound,
    partition,
    search_bound,
)


@pytest.fixture(scope="module")
def env():
    net = paper_testbed()
    return gather_available_resources(net), paper_cost_database()


def test_equal_decomposition_uses_all_and_splits_evenly(env):
    res, db = env
    d = equal_decomposition(stencil_computation(1200, overlap=False), res, db)
    assert d.config.total == 12
    assert list(d.vector) == [100] * 12
    assert d.method == "equal-decomposition"


def test_equal_decomposition_worse_than_balanced(env):
    """The paper's N=1200 point: equal split loses to balanced (Eq 3)."""
    res, db = env
    comp = stencil_computation(1200, overlap=False)
    equal = equal_decomposition(comp, res, db)
    balanced = all_available(comp, res, db)
    assert equal.t_cycle_ms > balanced.t_cycle_ms
    # T_comp with equal split is governed by the IPCs: 360 ms/cycle.
    assert equal.estimate.t_comp_ms == pytest.approx(360.0)


def test_equal_decomposition_worse_than_six_sparc2s(env):
    """The stronger §6 claim: equal split on 12 even loses to 6 Sparc2s."""
    res, db = env
    comp = stencil_computation(1200, overlap=False)
    equal = equal_decomposition(comp, res, db)
    six = fastest_cluster_only(comp, res, db)
    assert six.t_cycle_ms < equal.t_cycle_ms


def test_fastest_cluster_only_shape(env):
    res, db = env
    d = fastest_cluster_only(stencil_computation(600, overlap=False), res, db)
    assert d.counts_by_name() == {"sparc2": 6, "ipc": 0}


def test_all_available_shape(env):
    res, db = env
    d = all_available(stencil_computation(600, overlap=False), res, db)
    assert d.counts_by_name() == {"sparc2": 6, "ipc": 6}
    assert d.vector.total == 600


def test_heuristic_never_worse_than_baselines(env):
    res, db = env
    for n in (60, 300, 600, 1200):
        for overlap in (False, True):
            comp = stencil_computation(n, overlap=overlap)
            heur = partition(comp, res, db)
            for baseline in (equal_decomposition, all_available, fastest_cluster_only):
                b = baseline(comp, res, db)
                assert heur.t_cycle_ms <= b.t_cycle_ms + 1e-9, (n, overlap, b.method)
    # Every decision minimises or prices T_c; none takes a start-up cost.
    for baseline in (equal_decomposition, all_available, fastest_cluster_only):
        with pytest.raises(TypeError, match="startup_ms"):
            baseline(comp, res, db, startup_ms=0.0)


def test_paper_bound_values():
    # The paper's example: K=5, P=20 -> 5*log2(20) ~ 21.6 ("or 20 times").
    assert paper_bound(5, 20) == pytest.approx(21.6, abs=0.1)
    # K=2, P=12 -> ~7.2 (the paper rounds to 6).
    assert paper_bound(2, 12) == pytest.approx(7.17, abs=0.01)
    with pytest.raises(ValueError):
        paper_bound(0, 5)


def test_search_bound_monotone():
    assert search_bound(2, 12) >= search_bound(1, 12) // 1
    assert search_bound(2, 24) >= search_bound(2, 12)
    with pytest.raises(ValueError):
        search_bound(1, 0)


def test_overhead_report_fields(env):
    res, db = env
    d = partition(stencil_computation(600, overlap=False), res, db)
    report = overhead_report(2, 12, d.evaluations)
    assert report.within_bound
    assert report.evaluations == d.evaluations
    assert report.flops_estimate == d.evaluations * 2
    assert report.search_bound == search_bound(2, 12)
