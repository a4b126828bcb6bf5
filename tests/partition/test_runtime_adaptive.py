"""The incremental (adaptive) decision layer under injected load churn.

The acceptance properties, mirroring the churn benchmark's gates:

* answer parity — whatever the controller does to the decomposition, the
  run finishes with the clean run's exact integer answer;
* debounce — bursts shorter than ``hysteresis_k`` epochs never repartition;
* bounded deltas — a committed incremental repartition moves at most
  ``migrate_k`` PDUs;
* cost veto — a migration whose transfer bill exceeds its projected
  saving over the remaining horizon is vetoed, not committed;
* divergence fallback — when the measured epoch time drifts beyond
  ``divergence_bound`` of the best epoch since the last search, the layer
  falls back to the same full warm-started search the always-research
  baseline runs, and lands on the same decomposition;
* determinism — identical schedules give identical clocks, answers, and
  counter values on every run.
"""

import pytest

from repro.apps.stencil import stencil_computation
from repro.errors import PartitionError
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import paper_testbed
from repro.partition.runtime import PartitionRuntime, RuntimePolicy
from repro.sim.failures import LoadSchedule, NodeLoad

EPOCHS = 14
N = 512


def make_runtime(loads=None, **policy_kwargs):
    network = paper_testbed()
    runtime = PartitionRuntime(
        network,
        stencil_computation(N, overlap=False, cycles=1),
        paper_cost_database(),
        policy=RuntimePolicy(**policy_kwargs),
        loads=loads,
    )
    return network, runtime


@pytest.fixture(scope="module")
def clean():
    _, runtime = make_runtime()
    return runtime.run(EPOCHS)


# -- LoadSchedule constructors --------------------------------------------------


def test_node_load_validation():
    with pytest.raises(ValueError):
        NodeLoad(0, 1, 1.0)
    with pytest.raises(ValueError):
        NodeLoad(0, 1, -0.1)


def test_step_schedule():
    sched = LoadSchedule.step(3, at_epoch=5, load=0.4)
    assert sched.changes_at(5) == (NodeLoad(5, 3, 0.4),)
    assert sched.changes_at(4) == ()
    assert bool(sched)
    assert not LoadSchedule()


def test_flapping_rotates_victims_and_clears():
    sched = LoadSchedule.flapping(
        [3, 4], load=0.3, period_epochs=4, burst_epochs=2, horizon_epochs=12
    )
    # Bursts at 0, 4, 8 hitting 3, 4, 3; clears two epochs after each.
    assert sched.changes_at(0) == (NodeLoad(0, 3, 0.3),)
    assert sched.changes_at(2) == (NodeLoad(2, 3, 0.0),)
    assert sched.changes_at(4) == (NodeLoad(4, 4, 0.3),)
    assert sched.changes_at(8) == (NodeLoad(8, 3, 0.3),)


def test_flapping_validation():
    with pytest.raises(ValueError, match="burst_epochs"):
        LoadSchedule.flapping(
            3, load=0.3, period_epochs=4, burst_epochs=4, horizon_epochs=12
        )
    with pytest.raises(ValueError, match="at least one"):
        LoadSchedule.flapping(
            [], load=0.3, period_epochs=4, burst_epochs=2, horizon_epochs=12
        )


def test_rolling_clears_before_setting():
    sched = LoadSchedule.rolling(
        [3, 4], load=0.3, dwell_epochs=2, horizon_epochs=8
    )
    # When the hot spot moves 3 -> 4 at epoch 2, the clear sorts first so
    # applying changes in order nets out correctly.
    changes = sched.changes_at(2)
    assert changes == (NodeLoad(2, 3, 0.0), NodeLoad(2, 4, 0.3))


# -- policy validation ----------------------------------------------------------


def test_adaptive_and_research_mutually_exclusive():
    with pytest.raises(PartitionError, match="mutually exclusive"):
        make_runtime(adaptive=True, slowdown_research=True)


def test_policy_knob_validation():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(PartitionError, match="migrate_k"):
        make_runtime(migrate_k=0)
    for bound in (1.0, nan):
        with pytest.raises(PartitionError, match="divergence_bound"):
            make_runtime(divergence_bound=bound)
    for cost in (-0.1, nan, inf):
        with pytest.raises(PartitionError, match="decide_cost_per_eval_ms"):
            make_runtime(decide_cost_per_eval_ms=cost)
    # Checked at construction under every policy, before a run can fail
    # half-way (a negative price) or silently (NaN clocks, a threshold no
    # skew reaches or every skew passes).
    for cost in (-0.05, nan, inf):
        with pytest.raises(PartitionError, match="transfer_ms_per_pdu"):
            make_runtime(transfer_ms_per_pdu=cost)
    for threshold in (0.9, 1.0, nan):
        for mode in ({}, {"adaptive": True}, {"slowdown_research": True}):
            with pytest.raises(PartitionError, match="imbalance_threshold"):
                make_runtime(imbalance_threshold=threshold, **mode)


# -- debounce -------------------------------------------------------------------


def test_short_burst_is_debounced(clean):
    # A 2-epoch burst under a trip_after=3 controller: the skew is noticed
    # (holds) but the decomposition never moves.
    network, runtime = make_runtime(
        loads=LoadSchedule(
            (NodeLoad(4, 1, 0.4), NodeLoad(6, 1, 0.0))
        ),
        adaptive=True,
        hysteresis_k=3,
    )
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.repartitions == 0
    assert result.moved_pdus_total == 0
    assert result.adaptive_stats["trips"] == 0
    assert result.adaptive_stats["holds"] >= 1


def test_legacy_policies_report_zeroed_adaptive_stats(clean):
    assert set(clean.adaptive_stats) == {
        "trips", "holds", "migrations", "vetoes", "full_fallbacks",
    }
    assert all(v == 0 for v in clean.adaptive_stats.values())


# -- bounded deltas and the cost veto -------------------------------------------


def _sustained(load=0.25):
    # Mild sustained load on one sparc2 worker: enough skew to trip the
    # controller without drifting past the divergence bound.
    return LoadSchedule.step(1, at_epoch=2, load=load)


def test_migrations_respect_migrate_k(clean):
    network, runtime = make_runtime(
        loads=_sustained(),
        adaptive=True,
        hysteresis_k=3,
        migrate_k=4,
        divergence_bound=10.0,  # keep the fallback out of the way
    )
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.adaptive_stats["trips"] >= 1
    assert result.adaptive_stats["full_fallbacks"] == 0
    migrations = result.adaptive_stats["migrations"]
    assert migrations >= 1
    assert result.moved_pdus_total <= 4 * migrations
    for record in result.audit.to_records():
        if record["trigger"] == "slowdown":
            assert record["moved_pdus"] <= 4
            # Incremental deltas reshape the vector without re-searching
            # the configuration space.
            assert record["new_config"] == record["old_config"]


def test_expensive_transfer_is_vetoed(clean):
    network, runtime = make_runtime(
        loads=_sustained(),
        adaptive=True,
        hysteresis_k=3,
        migrate_k=4,
        divergence_bound=10.0,
        transfer_ms_per_pdu=1e9,  # any move costs more than it can save
    )
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.adaptive_stats["trips"] >= 1
    assert result.adaptive_stats["migrations"] == 0
    assert result.adaptive_stats["vetoes"] >= 1
    assert result.moved_pdus_total == 0


# -- divergence fallback --------------------------------------------------------


def test_divergence_fallback_matches_research_baseline(clean):
    # A heavy sustained step drifts the epoch time beyond the divergence
    # bound: the adaptive layer must distrust its deltas and run the same
    # full search the always-research baseline runs — and land on the
    # same decomposition.
    heavy = LoadSchedule.step(1, at_epoch=2, load=0.5)
    _, adaptive_rt = make_runtime(loads=heavy, adaptive=True, hysteresis_k=3)
    adaptive = adaptive_rt.run(EPOCHS)
    _, research_rt = make_runtime(loads=heavy, slowdown_research=True)
    research = research_rt.run(EPOCHS)
    assert adaptive.answer == clean.answer
    assert research.answer == clean.answer
    assert adaptive.adaptive_stats["full_fallbacks"] >= 1
    assert adaptive.final_proc_ids == research.final_proc_ids
    assert adaptive.final_vector == research.final_vector


def test_research_baseline_repartitions_every_confirmed_slowdown(clean):
    _, runtime = make_runtime(loads=_sustained(), slowdown_research=True)
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.repartitions >= 1
    assert all(v == 0 for v in result.adaptive_stats.values())


# -- modelled decision cost -----------------------------------------------------


def test_decide_cost_charges_the_sim_clock(clean):
    _, free_rt = make_runtime()
    free = free_rt.run(EPOCHS)
    _, billed_rt = make_runtime(decide_cost_per_eval_ms=0.05)
    billed = billed_rt.run(EPOCHS)
    assert billed.answer == free.answer
    assert billed.decide_evaluations == free.decide_evaluations > 0
    assert billed.elapsed_ms == pytest.approx(
        free.elapsed_ms + 0.05 * free.decide_evaluations
    )


# -- determinism ----------------------------------------------------------------


def test_adaptive_run_is_deterministic():
    def go():
        _, runtime = make_runtime(
            loads=_sustained(), adaptive=True, hysteresis_k=3
        )
        result = runtime.run(EPOCHS)
        return (
            result.answer,
            result.elapsed_ms,
            result.final_vector,
            result.adaptive_stats,
            result.moved_pdus_total,
        )

    assert go() == go()
