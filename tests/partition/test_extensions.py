"""Tests for the §3/§7 extensions: load-adjusted rates, robust search,
metasystem networks, and coercion-aware partitioning."""

import pytest

from repro.apps.stencil import stencil_computation
from repro.benchmarking import Workbench, build_cost_database
from repro.errors import NetworkModelError
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import (
    metasystem_network,
    mixed_format_network,
    paper_testbed,
)
from repro.partition import (
    CycleEstimator,
    ProcessorConfiguration,
    gather_available_resources,
    order_by_power,
    partition,
    prefix_scan_partition,
)
from repro.spmd import Topology


# ---------------------------------------------------------------- load adjusted


def test_load_adjusted_resources_include_all_nodes():
    net = paper_testbed()
    net.cluster("sparc2").manager.observe_loads([0.0, 0.5, 0.9, 0.0, 0.0, 0.0])
    res = gather_available_resources(net, load_adjusted=True)
    sparc = next(r for r in res if r.name == "sparc2")
    assert sparc.n_available == 6  # nobody excluded
    # Least-loaded first.
    loads = [p.load for p in sparc.available]
    assert loads == sorted(loads)


def test_load_adjusted_rates_scale_with_load():
    net = paper_testbed()
    net.cluster("sparc2").manager.observe_loads([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    res = gather_available_resources(net, load_adjusted=True)
    sparc = next(r for r in res if r.name == "sparc2")
    rates = [sparc.rate_of(p) for p in sparc.available]
    assert rates[:5] == [pytest.approx(0.3)] * 5
    assert rates[5] == pytest.approx(0.6)  # the loaded node, now IPC-speed


def test_loaded_node_gets_fewer_pdus():
    """Eq 3 under load adjustment: the loaded node's share halves."""
    net = paper_testbed()
    net.cluster("sparc2").manager.observe_loads([0.0, 0.0, 0.0, 0.0, 0.0, 0.5])
    res = order_by_power(gather_available_resources(net, load_adjusted=True))
    est = CycleEstimator(stencil_computation(600, overlap=False), paper_cost_database())
    cfg = ProcessorConfiguration(res, (6, 0))
    vec = est.partition_vector(cfg)
    assert vec.total == 600
    counts = list(vec)
    # Five unloaded nodes equal, the loaded one about half.
    assert max(counts[:5]) - min(counts[:5]) <= 1
    assert counts[5] == pytest.approx(counts[0] / 2, abs=1)


def test_threshold_policy_unchanged_by_default():
    net = paper_testbed()
    net.cluster("sparc2").manager.observe_loads([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    res = gather_available_resources(net)
    sparc = next(r for r in res if r.name == "sparc2")
    assert sparc.n_available == 5  # loaded node excluded


# ---------------------------------------------------------------- robust search


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("n", [60, 300, 600, 1200])
def test_scan_search_agrees_with_binary_on_unimodal(n, overlap):
    """When Fig 3's premise holds, the robust scan changes nothing."""
    net = paper_testbed()
    res = gather_available_resources(net)
    db = paper_cost_database()
    comp = stencil_computation(n, overlap=overlap)
    binary = partition(comp, res, db, search="binary")
    scan = partition(comp, res, db, search="scan")
    assert binary.counts_by_name() == scan.counts_by_name()


def test_scan_search_method_label_and_validation():
    net = paper_testbed()
    res = gather_available_resources(net)
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    assert partition(comp, res, db, search="scan").method == "heuristic-scan"
    from repro.errors import PartitionError

    with pytest.raises(PartitionError, match="search"):
        partition(comp, res, db, search="simulated-annealing")


def test_scan_finds_global_minimum_on_multimodal_curve():
    """A synthetic cost database with two minima defeats binary search."""
    from repro.partition.heuristic import _argmin_scan, _argmin_unimodal

    # W-shaped cost: minima at p=2 and p=6, deeper at p=6.
    values = {1: 10.0, 2: 4.0, 3: 8.0, 4: 9.0, 5: 6.0, 6: 3.0}
    scan = _argmin_scan(lambda p: values[p], 1, 6)
    assert scan == 6
    # Binary search can land on the wrong valley for this shape.
    binary = _argmin_unimodal(lambda p: values[p], 1, 6)
    assert values[binary] >= values[scan]


# ---------------------------------------------------------------- metasystem


def test_metasystem_requires_relaxed_validation():
    net = metasystem_network()  # validates with strict=False internally
    with pytest.raises(NetworkModelError, match="metasystem"):
        net.validate(strict=True)


def test_metasystem_partitioning_prefers_multicomputer():
    """The multicomputer's fast nodes and fat interconnect win the ordering
    and the allocation."""
    workbench = Workbench(lambda: metasystem_network())
    db = build_cost_database(
        workbench,
        clusters=["meiko", "sparc2"],
        topologies=[Topology.ONE_D],
        p_values=(2, 4, 6, 8),
        b_values=(240, 1200, 2400, 4800),
        cycles=3,
    )
    net = metasystem_network()
    res = gather_available_resources(net)
    decision = partition(stencil_computation(1200, overlap=False), res, db)
    counts = decision.counts_by_name()
    assert counts["meiko"] >= 6  # the fast class is saturated first
    # And its fitted comm costs are indeed cheaper at equal (p, b).
    assert db.comm_cost("meiko", "1-D", 2400, 4) < db.comm_cost("sparc2", "1-D", 2400, 4)


def test_metasystem_heuristic_matches_scan_oracle():
    workbench = Workbench(lambda: metasystem_network())
    db = build_cost_database(
        workbench,
        clusters=["meiko", "sparc2"],
        topologies=[Topology.ONE_D],
        p_values=(2, 4, 6, 8),
        b_values=(240, 2400),
        cycles=3,
    )
    net = metasystem_network()
    res = gather_available_resources(net)
    for n in (300, 1200):
        comp = stencil_computation(n, overlap=False)
        heur = partition(comp, res, db)
        scan = prefix_scan_partition(comp, res, db)
        assert heur.t_cycle_ms == pytest.approx(scan.t_cycle_ms)


# ---------------------------------------------------------------- coercion


@pytest.fixture(scope="module")
def coercion_db():
    workbench = Workbench(lambda: mixed_format_network())
    return build_cost_database(
        workbench,
        clusters=["sparc2", "i860"],
        topologies=[Topology.ONE_D],
        p_values=(2, 3, 4, 6),
        b_values=(240, 1200, 2400, 4800),
        cycles=3,
        include_coercion=True,
    )


def test_coercion_fitted_separately(coercion_db):
    fn = coercion_db.coerce.get(("sparc2", "i860"))
    assert fn is not None
    assert fn.slope_ms_per_byte > 0
    # i860 hosts convert at comm_speed_factor 1.0 and 0.4 us/byte: 0.0004 ms/b.
    assert fn.slope_ms_per_byte == pytest.approx(0.0004, rel=0.05)


def test_router_fit_excludes_coercion_share(coercion_db):
    """Router slope stays near the homogeneous network's, not inflated."""
    workbench = Workbench(lambda: paper_testbed())
    homo = build_cost_database(
        workbench,
        clusters=["sparc2", "ipc"],
        topologies=[Topology.ONE_D],
        p_values=(2, 3, 4, 6),
        b_values=(240, 1200, 2400, 4800),
        cycles=3,
    )
    mixed_slope = coercion_db.router[("sparc2", "i860")].slope_ms_per_byte
    homo_slope = homo.router[("sparc2", "ipc")].slope_ms_per_byte
    assert mixed_slope < homo_slope + 0.001


def test_coercion_shifts_crossing_cost(coercion_db):
    b = 4800
    with_coercion = coercion_db.topology_cost("1-D", b, {"sparc2": 6, "i860": 2})
    no_cross = coercion_db.topology_cost("1-D", b, {"sparc2": 6})
    assert with_coercion > no_cross
    # The coercion share is visible in the composition.
    assert coercion_db.coerce_cost("sparc2", "i860", b) > 1.0
