"""Tests for E15 (multi-app decision quality) and the model extensions."""

import pytest

from repro.apps.heat import heat_computation
from repro.apps.powermethod import power_computation
from repro.errors import AnnotationError
from repro.experiments.multiapp import CASES, _full_database, decision_quality, multiapp_report
from repro.hardware.presets import paper_testbed
from repro.model import CommunicationPhase
from repro.partition import (
    CycleEstimator,
    ProcessorConfiguration,
    gather_available_resources,
    order_by_power,
)
from repro.spmd import Topology


@pytest.fixture(scope="module")
def env():
    net = paper_testbed()
    return order_by_power(gather_available_resources(net)), _full_database()


def test_rounds_value_constant_and_callable():
    phase = CommunicationPhase("x", Topology.RING, complexity=100, rounds=3)
    assert phase.rounds_value(None, 6) == 3.0
    phase2 = CommunicationPhase(
        "y", Topology.RING, complexity=100, rounds=lambda p, total: total - 1
    )
    assert phase2.rounds_value(None, 6) == 5.0
    bad = CommunicationPhase(
        "z", Topology.RING, complexity=1, rounds=lambda p, t: -1
    )
    with pytest.raises(AnnotationError):
        bad.rounds_value(None, 2)


def test_rounds_scale_dominant_t_comm(env):
    res, db = env
    comp = power_computation(400)
    est = CycleEstimator(comp, db)
    cfg6 = ProcessorConfiguration(res, (6, 0))
    # 5 rounds of the ring pattern at (6,0).
    phase = comp.dominant_communication_phase()
    single_round = db.topology_cost(
        phase.topology,
        phase.complexity_for_shares(comp.problem, [400 / 6.0] * 6),
        {"sparc2": 6},
    )
    assert est.t_comm(cfg6) == pytest.approx(5 * single_round)


def test_all_phases_adds_secondary_cost(env):
    res, db = env
    comp = heat_computation(300, expected_iterations=11)
    dominant = CycleEstimator(comp, db)
    extended = CycleEstimator(comp, db, all_phases=True)
    cfg = ProcessorConfiguration(res, (6, 6))
    assert extended.t_comm(cfg) > dominant.t_comm(cfg)


def test_all_phases_equals_dominant_for_single_phase(env):
    from repro.apps.stencil import stencil_computation

    res, db = env
    comp = stencil_computation(600, overlap=False)
    a = CycleEstimator(comp, db)
    b = CycleEstimator(comp, db, all_phases=True)
    cfg = ProcessorConfiguration(res, (6, 2))
    assert a.t_comm(cfg) == pytest.approx(b.t_comm(cfg))
    assert a.t_cycle(cfg) == pytest.approx(b.t_cycle(cfg))


def test_overlap_credit_limited_to_overlapped_phases(env):
    from repro.model import ComputationPhase, DataParallelComputation

    res, db = env
    comp = DataParallelComputation(
        name="mixed",
        problem=None,
        num_pdus=600,
        computation_phases=[ComputationPhase("work", complexity=3000)],
        communication_phases=[
            CommunicationPhase("hidden", Topology.ONE_D, complexity=2400, overlap="work"),
            CommunicationPhase("exposed", Topology.ONE_D, complexity=2400),
        ],
        cycles=10,
    )
    est = CycleEstimator(comp, db, all_phases=True)
    cfg = ProcessorConfiguration(res, (6, 0))
    e = est.estimate(cfg)
    # Only the 'hidden' phase may be credited against compute.
    assert e.t_overlap_ms <= e.t_comm_ms / 2 + 1e-9
    assert e.t_overlap_ms > 0


def test_decision_quality_small_subset():
    rows = decision_quality(
        cases=[c for c in CASES if c.name in ("stencil N=600", "heat N=300")],
        candidates=((2, 0), (6, 0), (6, 6)),
    )
    by_app = {r.app: r for r in rows}
    # Stencil: both models exact.
    assert by_app["stencil N=600"].dominant_gap == pytest.approx(0.0)
    assert by_app["stencil N=600"].extended_gap == pytest.approx(0.0)
    # Heat: the extended model must not be worse than the dominant one.
    assert by_app["heat N=300"].extended_gap <= by_app["heat N=300"].dominant_gap + 1e-9


def test_report_renders():
    rows = decision_quality(
        cases=[CASES[0]], candidates=((2, 0), (6, 6))
    )
    text = multiapp_report(rows)
    assert "E15" in text and "dominant-phase" in text
