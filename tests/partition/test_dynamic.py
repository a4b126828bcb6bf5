"""Tests for the dynamic-repartitioning math (paper §7 future work)."""

import math

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition.dynamic import (
    HysteresisController,
    classify_epoch,
    completion_skew,
    detect_imbalance,
    migrate_k_counts,
    moved_pdus,
    projected_epoch_ms,
    rebalance_counts,
    transfer_plan,
)


def test_detect_imbalance_thresholds():
    assert not detect_imbalance([1.0, 1.0, 1.0])
    assert not detect_imbalance([1.0, 1.2], threshold=1.25)
    assert detect_imbalance([1.0, 1.3], threshold=1.25)
    assert detect_imbalance([0.5, 2.0])


def test_detect_imbalance_validation():
    with pytest.raises(PartitionError):
        detect_imbalance([])
    with pytest.raises(PartitionError):
        detect_imbalance([1.0, 0.0])
    with pytest.raises(PartitionError):
        detect_imbalance([1.0, 2.0], threshold=1.0)
    with pytest.raises(PartitionError, match="threshold"):
        detect_imbalance([1.0, 3.0], threshold=float("nan"))


def test_rebalance_shifts_rows_from_slow_to_fast():
    # Task 1 measured 2x slower per row: it should end with ~half the rows.
    new = rebalance_counts([50, 50], [1.0, 2.0])
    assert new.total == 100
    assert list(new) == [67, 33]


def test_rebalance_equal_times_is_stable():
    new = rebalance_counts([40, 40, 20], [1.0, 1.0, 1.0])
    # Equal measured speed -> equal counts (total preserved).
    assert new.total == 100
    assert max(new) - min(new) <= 1


def test_rebalance_validation():
    with pytest.raises(PartitionError):
        rebalance_counts([10, 10], [1.0])
    with pytest.raises(PartitionError):
        rebalance_counts([10, 10], [1.0, -1.0])


def test_rebalance_floors_extreme_slow_rank_at_one():
    """A rank slow enough to integerize to zero must still keep one PDU —
    a zero-count rank would be stranded: alive and in the collectives, but
    owning no rows and unreachable by any transfer plan."""
    new = rebalance_counts([50, 50], [1.0, 10_000.0])
    assert new.total == 100
    assert list(new) == [99, 1]


def test_rebalance_all_but_one_slow_keeps_every_rank_alive():
    # Three of four ranks hit by heavy external load: the fast rank absorbs
    # nearly everything, but nobody drops to zero.
    new = rebalance_counts([25, 25, 25, 25], [1.0, 500.0, 500.0, 500.0])
    assert new.total == 100
    assert min(new) >= 1
    assert new[0] == 97
    assert list(new)[1:] == [1, 1, 1]


def test_rebalance_boundary_total_equals_rank_count():
    # Exactly one PDU per rank available: the floor forces the identity,
    # whatever the measurements say.
    new = rebalance_counts([1, 1, 1], [1.0, 80.0, 3.0])
    assert list(new) == [1, 1, 1]


def test_rebalance_floor_unsatisfiable_raises():
    with pytest.raises(PartitionError, match="cannot give"):
        rebalance_counts([1, 1, 0], [1.0, 1.0, 1.0])
    with pytest.raises(PartitionError, match="cannot give"):
        rebalance_counts([1, 1], [1.0, 1.0], min_per_rank=2)


def test_rebalance_min_per_rank_zero_allows_starvation():
    # Opting out of the floor restores the raw proportional rounding.
    new = rebalance_counts([50, 50], [1.0, 10_000.0], min_per_rank=0)
    assert list(new) == [100, 0]


def test_rebalance_floor_reclaims_from_largest_count_lowest_index():
    # Two equal donors: the lower rank index pays, deterministically.
    new = rebalance_counts([4, 4, 1], [1.0, 1.0, 1e6])
    assert new.total == 9
    assert list(new) == [4, 4, 1]


# -- classify_epoch: node loss vs slowdown --------------------------------------


def test_classify_all_healthy():
    health = classify_epoch([1.0, 1.1, 1.0])
    assert health.ok
    assert health.dead == () and health.slow == ()
    assert health.trigger is None


def test_classify_none_marks_dead_rank():
    health = classify_epoch([1.0, None, 1.0])
    assert health.dead == (1,)
    assert not health.ok
    assert health.trigger == "node-loss"


def test_classify_nan_marks_dead_rank():
    health = classify_epoch([1.0, float("nan"), 1.0])
    assert health.dead == (1,)


def test_classify_slowdown():
    health = classify_epoch([1.0, 1.0, 2.0], threshold=1.25)
    assert health.dead == ()
    assert health.slow == (2,)
    assert health.imbalanced
    assert health.trigger == "slowdown"


def test_classify_node_loss_outranks_slowdown():
    health = classify_epoch([1.0, None, 5.0], threshold=1.25)
    assert health.dead == (1,)
    assert health.slow == (2,)
    assert health.trigger == "node-loss"


def test_classify_dead_ranks_excluded_from_imbalance_ratio():
    # The only divergent measurement belongs to a dead rank: the survivors
    # are balanced among themselves.
    health = classify_epoch([1.0, math.nan, 1.05], threshold=1.25)
    assert health.dead == (1,)
    assert not health.imbalanced


def test_classify_validation():
    with pytest.raises(PartitionError, match="no measurements"):
        classify_epoch([])
    with pytest.raises(PartitionError, match="every rank is dead"):
        classify_epoch([None, None])
    with pytest.raises(PartitionError, match="non-positive"):
        classify_epoch([1.0, -2.0])
    with pytest.raises(PartitionError, match="threshold"):
        classify_epoch([1.0, 1.0], threshold=0.9)
    with pytest.raises(PartitionError, match="threshold"):
        classify_epoch([1.0, 3.0], threshold=float("nan"))


def test_transfer_plan_simple_shift():
    # [50, 50] -> [67, 33]: rank 1 sends its first 17 rows to rank 0.
    plan = transfer_plan([50, 50], [67, 33])
    assert plan == {(1, 0): 17}
    assert moved_pdus(plan) == 17


def test_transfer_plan_multi_hop():
    # [30, 30, 30] -> [60, 15, 15]: rank1's whole block and the first 0...
    plan = transfer_plan([30, 30, 30], [60, 15, 15])
    # New bounds: [0,60,75,90]; old: [0,30,60,90].
    # rank1 owned [30,60) -> all inside new rank0's [0,60): sends 30 to rank0.
    # rank2 owned [60,90): [60,75) -> new rank1, [75,90) stays rank2.
    assert plan == {(1, 0): 30, (2, 1): 15}
    assert moved_pdus(plan) == 45


def test_transfer_plan_identity_is_empty():
    assert transfer_plan([10, 20, 30], [10, 20, 30]) == {}


def test_transfer_plan_validation():
    with pytest.raises(PartitionError):
        transfer_plan([10, 10], [10, 10, 0])
    with pytest.raises(PartitionError):
        transfer_plan([10, 10], [10, 11])


def test_transfer_plan_conservation_property():
    """Sent == received per rank; ownership intervals are preserved."""
    old = [13, 27, 8, 52]
    new = [25, 25, 25, 25]
    plan = transfer_plan(old, new)
    sent = [0] * 4
    received = [0] * 4
    for (src, dst), rows in plan.items():
        sent[src] += rows
        received[dst] += rows
    for r in range(4):
        assert old[r] - sent[r] + received[r] == new[r]


# -- NaN detection across numpy scalar types (the isinstance bug) ---------------


@pytest.mark.parametrize("nan", [float("nan"), np.float64("nan"),
                                 np.float32("nan"), np.float16("nan")])
def test_classify_numpy_nan_marks_dead_rank(nan):
    """np.float32/np.float16 NaNs are not `float` subclasses; an
    isinstance-gated check let them through as live measurements and
    poisoned the min() behind the imbalance ratio."""
    health = classify_epoch([1.0, nan, 1.0])
    assert health.dead == (1,)
    assert health.trigger == "node-loss"


@pytest.mark.parametrize("nan", [float("nan"), np.float32("nan"),
                                 np.float16("nan")])
def test_detect_imbalance_rejects_nan(nan):
    with pytest.raises(PartitionError, match="NaN"):
        detect_imbalance([1.0, nan])


def test_rebalance_rejects_nan():
    with pytest.raises(PartitionError, match="NaN"):
        rebalance_counts([50, 50], [1.0, np.float32("nan")])


# -- argument-validation precedence ---------------------------------------------


def test_detect_imbalance_validates_threshold_before_measurements():
    """A bad threshold must be reported as such even when the measurement
    vector is itself broken — the caller's parameter bug outranks whatever
    the measurements happen to contain."""
    with pytest.raises(PartitionError, match="threshold"):
        detect_imbalance([], threshold=1.0)
    with pytest.raises(PartitionError, match="threshold"):
        detect_imbalance([float("nan"), -1.0], threshold=0.5)


def test_detect_imbalance_validates_nan_before_sign():
    # NaN poisons any comparison, so it is diagnosed before the sign scan
    # (nan <= 0 is False and would otherwise slip through).
    with pytest.raises(PartitionError, match="NaN"):
        detect_imbalance([float("nan"), -1.0])


def test_classify_validates_threshold_before_measurements():
    with pytest.raises(PartitionError, match="threshold"):
        classify_epoch([], threshold=1.0)
    with pytest.raises(PartitionError, match="threshold"):
        classify_epoch([None, -3.0], threshold=0.5)


# -- completion skew / projected epoch time -------------------------------------


def test_completion_skew_balanced_heterogeneous():
    # Twice the PDUs on a node twice as fast: completion times equalize
    # even though the raw per-PDU ratio is 2.0.
    assert completion_skew([1.0, 2.0], [60, 30]) == pytest.approx(1.0)


def test_completion_skew_misallocation():
    assert completion_skew([1.0, 1.0], [75, 25]) == pytest.approx(3.0)


def test_completion_skew_skips_dead_and_empty_ranks():
    skew = completion_skew([1.0, None, math.nan, 9.0, 1.0], [50, 10, 10, 0, 50])
    assert skew == pytest.approx(1.0)


def test_completion_skew_validation():
    with pytest.raises(PartitionError, match="measurements but"):
        completion_skew([1.0], [10, 10])
    with pytest.raises(PartitionError, match="non-positive"):
        completion_skew([1.0, -1.0], [10, 10])
    with pytest.raises(PartitionError, match="no live ranks"):
        completion_skew([None, math.nan], [10, 10])
    with pytest.raises(PartitionError, match="no live ranks"):
        completion_skew([1.0], [0])


def test_projected_epoch_ms_is_max_completion():
    assert projected_epoch_ms([1.0, 2.0], [60, 30]) == pytest.approx(60.0)
    assert projected_epoch_ms([1.0, 2.0], [10, 30]) == pytest.approx(60.0)


def test_projected_epoch_ms_skips_dead_ranks():
    assert projected_epoch_ms([1.0, None, math.nan], [10, 99, 99]) == 10.0
    assert projected_epoch_ms([None], [10]) == 0.0


# -- hysteresis controller ------------------------------------------------------


def test_hysteresis_short_burst_never_acts():
    ctl = HysteresisController(trip_threshold=1.25, trip_after=3)
    # Two over-threshold epochs, then recovery: never trips.
    assert not ctl.observe(1.5).act
    assert not ctl.observe(1.5).act
    verdict = ctl.observe(1.0)
    assert not verdict.act and verdict.state == "idle" and verdict.streak == 0


def test_hysteresis_trips_after_k_consecutive():
    ctl = HysteresisController(trip_threshold=1.25, trip_after=3)
    states = [ctl.observe(1.5) for _ in range(3)]
    assert [v.act for v in states] == [False, False, True]
    assert states[1].state == "armed"
    assert states[2].state == "tripped"


def test_hysteresis_interrupted_streak_resets():
    ctl = HysteresisController(trip_after=3)
    ctl.observe(1.5)
    ctl.observe(1.5)
    ctl.observe(1.0)  # streak broken
    assert not ctl.observe(1.5).act
    assert not ctl.observe(1.5).act
    assert ctl.observe(1.5).act  # needs a fresh run of 3


def test_hysteresis_clears_only_below_clear_threshold():
    ctl = HysteresisController(
        trip_threshold=1.25, clear_threshold=1.1, trip_after=1
    )
    assert ctl.observe(1.3).act
    # Oscillating between the thresholds: still tripped (Schmitt trigger).
    assert ctl.observe(1.2).act
    assert ctl.observe(1.15).act
    verdict = ctl.observe(1.05)
    assert not verdict.act and verdict.state == "idle"
    # Re-tripping needs a fresh streak from scratch.
    assert ctl.observe(1.3).act  # trip_after=1


def test_hysteresis_reset_forgets_everything():
    ctl = HysteresisController(trip_after=2)
    ctl.observe(1.5)
    ctl.observe(1.5)
    assert ctl.tripped
    ctl.reset()
    assert not ctl.tripped and ctl.streak == 0
    assert not ctl.observe(1.5).act


def test_hysteresis_validation():
    with pytest.raises(PartitionError, match="trip_threshold"):
        HysteresisController(trip_threshold=1.1, clear_threshold=1.1)
    with pytest.raises(PartitionError, match="clear_threshold"):
        HysteresisController(clear_threshold=0.9)
    with pytest.raises(PartitionError, match="trip_after"):
        HysteresisController(trip_after=0)
    nan = float("nan")
    with pytest.raises(PartitionError, match="trip_threshold"):
        HysteresisController(trip_threshold=nan)
    with pytest.raises(PartitionError, match="clear_threshold"):
        HysteresisController(clear_threshold=nan)
    with pytest.raises(PartitionError, match="trip_after"):
        HysteresisController(trip_after=nan)
    ctl = HysteresisController()
    with pytest.raises(PartitionError, match="skew ratio"):
        ctl.observe(0.5)
    with pytest.raises(PartitionError, match="skew ratio"):
        ctl.observe(float("nan"))


# -- migrate-k delta planner ----------------------------------------------------


def test_migrate_k_caps_moved_pdus():
    old = [50, 50]
    new = migrate_k_counts(old, [1.0, 3.0], 5)
    assert new.total == 100
    assert moved_pdus(transfer_plan(old, list(new))) == 5


def test_migrate_k_reaches_target_when_budget_suffices():
    old = [50, 50]
    full = rebalance_counts(old, [1.0, 2.0])
    assert list(migrate_k_counts(old, [1.0, 2.0], 1000)) == list(full)


def test_migrate_k_balanced_input_is_identity():
    old = [34, 33, 33]
    assert list(migrate_k_counts(old, [1.0, 1.0, 1.0], 8)) == old


def test_migrate_k_respects_floor():
    new = migrate_k_counts([50, 50], [1.0, 10_000.0], 1000)
    assert list(new) == [99, 1]


def test_migrate_k_deterministic_donor_ties():
    # Two equally-overloaded donors: the lowest index donates first.  The
    # donated PDU crosses rank 1, so each reallocation ships 2 rows and a
    # k=2 budget affords exactly one.
    old = [40, 40, 20]
    new = migrate_k_counts(old, [1.0, 1.0, 0.25], 2)
    assert new.total == 100
    assert list(new) == [39, 40, 21]
    assert moved_pdus(transfer_plan(old, list(new))) == 2


def test_migrate_k_budget_counts_physically_moved_rows():
    # Reallocating share between the end ranks of a 3-rank decomposition
    # shifts both interior boundaries: 2 rows shipped per PDU of share, so
    # a budget of 5 affords only 2 reallocations (4 rows).
    old = [40, 30, 30]
    new = migrate_k_counts(old, [2.0, 1.0, 1.0], 5)
    assert new.total == 100
    assert moved_pdus(transfer_plan(old, list(new))) <= 5


def test_migrate_k_validation():
    with pytest.raises(PartitionError, match="migrate_k"):
        migrate_k_counts([10, 10], [1.0, 1.0], 0)
