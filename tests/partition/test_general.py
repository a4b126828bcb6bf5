"""Tests for the general (unrestricted) partitioner's local search."""

import pytest

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.errors import PartitionError
from repro.experiments.paper import paper_cost_database
from repro.hardware import HeterogeneousNetwork
from repro.hardware.presets import HP9000, IPC, RS6000, SPARC2, SUN3, paper_testbed
from repro.partition import (
    exhaustive_partition,
    gather_available_resources,
    general_partition,
    partition,
)
from repro.partition.general import _neighbors


def test_neighbors_include_steps_and_swaps():
    moves = _neighbors((2, 3), limits=[6, 6])
    assert (1, 3) in moves and (3, 3) in moves
    assert (2, 2) in moves and (2, 4) in moves
    assert (1, 4) in moves and (3, 2) in moves  # swaps


def test_neighbors_respect_limits_and_nonempty():
    moves = _neighbors((0, 1), limits=[2, 1])
    assert all(0 <= a <= 2 and 0 <= b <= 1 for a, b in moves)
    assert all(a + b >= 1 for a, b in moves)
    assert (0, 0) not in moves


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("n", [60, 300, 600, 1200])
def test_general_matches_exhaustive_on_testbed(n, overlap):
    """On the 2-cluster testbed the local search finds the true optimum."""
    net = paper_testbed()
    res = gather_available_resources(net)
    db = paper_cost_database()
    comp = stencil_computation(n, overlap=overlap)
    general = general_partition(comp, res, db)
    exhaustive = exhaustive_partition(comp, res, db)
    assert general.t_cycle_ms == pytest.approx(exhaustive.t_cycle_ms)


def test_general_never_worse_than_prefix_heuristic():
    net = paper_testbed()
    res = gather_available_resources(net)
    db = paper_cost_database()
    for n in (60, 300, 600, 1200):
        comp = stencil_computation(n, overlap=False)
        prefix = partition(comp, res, db)
        general = general_partition(comp, res, db)
        assert general.t_cycle_ms <= prefix.t_cycle_ms + 1e-9


def test_general_beats_prefix_where_bandwidth_wins():
    """STEN-1 N=300: the unrestricted optimum (5,4) skips a Sparc2 to hold
    message sizes down — a point the prefix space cannot express."""
    net = paper_testbed()
    res = gather_available_resources(net)
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    general = general_partition(comp, res, db)
    prefix = partition(comp, res, db)
    assert general.t_cycle_ms < prefix.t_cycle_ms
    counts = general.counts_by_name()
    assert counts["sparc2"] < 6 and counts["ipc"] > 0  # a non-prefix point


def synthetic_five_cluster():
    net = HeterogeneousNetwork()
    for name, spec in (
        ("rs6000", RS6000),
        ("hp", HP9000),
        ("sparc2", SPARC2),
        ("ipc", IPC),
        ("sun3", SUN3),
    ):
        net.add_cluster(name, spec, 6)
    net.validate()
    db = CostDatabase()
    for i, name in enumerate(("rs6000", "hp", "sparc2", "ipc", "sun3")):
        scale = 1.0 + 0.4 * i
        db.add_comm(CommCostFunction(name, "1-D", 0.0, 0.9 * scale, 0.0004, 0.0012 * scale))
    names = ["rs6000", "hp", "sparc2", "ipc", "sun3"]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            db.add_router(LinearByteCost(a, b, "router", 0.2, 0.0008))
    return net, db


def test_general_scales_to_five_clusters():
    """K=5, P=30: exhaustive would cost 7^5 evaluations; the local search
    stays in the hundreds and still matches it."""
    net, db = synthetic_five_cluster()
    res = gather_available_resources(net)
    comp = stencil_computation(600, overlap=False)
    general = general_partition(comp, res, db)
    assert general.evaluations < 700
    exhaustive = exhaustive_partition(comp, res, db)
    assert general.t_cycle_ms == pytest.approx(exhaustive.t_cycle_ms, rel=0.02)


def test_extra_starts_validated():
    net = paper_testbed()
    res = gather_available_resources(net)
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    with pytest.raises(PartitionError, match="entries"):
        general_partition(comp, res, db, extra_starts=[(1, 2, 3)])
    # Valid extra starts are clipped into range and accepted.
    d = general_partition(comp, res, db, extra_starts=[(99, 99)])
    assert d.config.total >= 1
    with pytest.raises(TypeError, match="startup_ms"):
        general_partition(comp, res, db, startup_ms=0.0)
