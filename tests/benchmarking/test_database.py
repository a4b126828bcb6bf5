"""Tests for the cost database: fitting pipeline, composition, round-trip."""

import pytest

from repro.benchmarking import (
    CommCostFunction,
    CostDatabase,
    LinearByteCost,
    Workbench,
    benchmark_all_clusters,
    benchmark_instruction_rate,
    build_cost_database,
)
from repro.errors import FittingError
from repro.hardware.presets import paper_testbed
from repro.spmd import Topology


@pytest.fixture(scope="module")
def bench():
    return Workbench(lambda: paper_testbed())


@pytest.fixture(scope="module")
def db(bench):
    return build_cost_database(
        bench,
        clusters=["sparc2", "ipc"],
        topologies=[Topology.ONE_D],
        p_values=(2, 3, 4, 6),
        b_values=(64, 512, 2400, 4800),
        cycles=3,
    )


def test_fitted_functions_present(db):
    assert ("sparc2", "1-D") in db.comm
    assert ("ipc", "1-D") in db.comm
    assert ("sparc2", "ipc") in db.router


def test_fit_quality_high(db):
    """Eq 1 must describe the simulated substrate well (the §3 claim)."""
    for fn in db.comm.values():
        assert fn.r_squared > 0.95, fn


def test_fitted_slope_positive_in_p_and_b(db):
    fn = db.comm[("sparc2", "1-D")]
    assert fn.evaluate(2400, 4) > fn.evaluate(2400, 2)
    assert fn.evaluate(4800, 4) > fn.evaluate(240, 4)


def test_ipc_costs_exceed_sparc2(db):
    b, p = 2400, 4
    assert db.comm_cost("ipc", "1-D", b, p) > db.comm_cost("sparc2", "1-D", b, p)


def test_router_cost_zero_within_cluster(db):
    assert db.router_cost("sparc2", "sparc2", 4800) == 0.0


def test_router_cost_positive_across(db):
    assert db.router_cost("sparc2", "ipc", 4800) > 0.0
    # Symmetric lookup works in both orders.
    assert db.router_cost("ipc", "sparc2", 4800) == db.router_cost("sparc2", "ipc", 4800)


def test_missing_function_raises(db):
    with pytest.raises(FittingError, match="no fitted"):
        db.comm_cost("sparc2", "ring", 100, 2)
    with pytest.raises(FittingError, match="router"):
        db.router_cost("sparc2", "vax", 100)


def test_coercion_default_zero(db):
    # All-Sun4 testbed: no coercion entries, cost must be 0 (paper §6).
    assert db.coerce_cost("sparc2", "ipc", 4800) == 0.0


def test_topology_cost_single_cluster_matches_comm(db):
    b = 2400
    assert db.topology_cost("1-D", b, {"sparc2": 4}) == db.comm_cost("sparc2", "1-D", b, 4)


def test_topology_cost_multicluster_adds_router_and_station(db):
    b = 2400
    single = db.comm_cost("sparc2", "1-D", b, 6)
    multi = db.topology_cost("1-D", b, {"sparc2": 6, "ipc": 4})
    # max(C1 at p+1, C2 at p+1) + router > C1 alone
    assert multi > single
    expected = max(
        db.comm_cost("sparc2", "1-D", b, 7), db.comm_cost("ipc", "1-D", b, 5)
    ) + db.router_cost("sparc2", "ipc", b)
    assert multi == pytest.approx(expected)


def test_topology_cost_zero_processor_clusters_ignored(db):
    b = 2400
    assert db.topology_cost("1-D", b, {"sparc2": 4, "ipc": 0}) == db.topology_cost(
        "1-D", b, {"sparc2": 4}
    )


def test_topology_cost_empty_or_single_is_zero(db):
    assert db.topology_cost("1-D", 100, {}) == 0.0
    assert db.topology_cost("1-D", 100, {"sparc2": 1}) == 0.0


def test_crossing_matrices_need_unique_names():
    with pytest.raises(ValueError, match="unique"):
        CostDatabase().crossing_matrices(["a", "b", "a"])


def test_json_roundtrip(db):
    restored = CostDatabase.from_json(db.to_json())
    assert restored.comm.keys() == db.comm.keys()
    b, p = 2400, 5
    for key in db.comm:
        assert restored.comm[key].evaluate(b, p) == pytest.approx(
            db.comm[key].evaluate(b, p)
        )
    assert restored.router_cost("sparc2", "ipc", b) == pytest.approx(
        db.router_cost("sparc2", "ipc", b)
    )


def test_instruction_rate_benchmark_recovers_spec(bench):
    s = benchmark_instruction_rate(bench, "sparc2", ops_per_trial=100_000, trials=2)
    assert s == pytest.approx(0.3)
    rates = benchmark_all_clusters(bench, ["sparc2", "ipc"], ops_per_trial=100_000, trials=1)
    assert rates["ipc"] == pytest.approx(0.6)
    # The paper's "factor 2": Sparc2 about twice as fast as IPC.
    assert rates["ipc"] / rates["sparc2"] == pytest.approx(2.0)


def test_manual_database_assembly():
    db = CostDatabase()
    db.add_comm(CommCostFunction("a", "ring", 0.1, 0.2, 0.001, 0.0005))
    db.add_router(LinearByteCost("a", "b", "router", 0.05, 0.0006))
    db.add_coerce(LinearByteCost("a", "b", "coerce", 0.0, 0.0004))
    assert db.comm_cost("a", "ring", 100, 3) > 0
    assert db.coerce_cost("a", "b", 1000) == pytest.approx(0.4)
    assert db.coerce_cost("b", "a", 1000) == pytest.approx(0.4)
