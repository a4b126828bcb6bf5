"""Dynamic repartitioning under load imbalance (paper §7 future work).

"A strategy to handle load imbalance due to processor sharing is also the
subject of future work.  One possibility is to dynamically recompute the
partition vector in the event of load imbalance."  This module implements
that possibility:

* :func:`detect_imbalance` — trip when the measured per-PDU times diverge;
* :func:`classify_epoch` — the fault-tolerant extension: distinguish ranks
  that merely slowed down from ranks that vanished (no measurement at all);
* :func:`rebalance_counts` — a *measured* Eq 3: new shares proportional to
  observed per-PDU speed (1/τ_i), so external load shows up exactly as a
  slower effective ``S_i``;
* :func:`transfer_plan` — which contiguous rows move between which ranks to
  morph the old block decomposition into the new one (the data-movement
  bill the runtime must pay);
* :class:`HysteresisController` — the incremental decision layer's debounce
  (adaptive self-clustering, D'Angelo): trip only after K consecutive
  imbalanced epochs, clear only once the skew falls below a *separate*
  lower threshold, so a ratio oscillating around the trip point does not
  thrash the decomposition;
* :func:`migrate_k_counts` — the migrate-k delta planner: move at most
  ``k`` PDUs toward the measured Eq 3 target instead of re-running the
  exhaustive search;
* :func:`completion_skew` / :func:`projected_epoch_ms` — the completion-time
  view of one epoch (max/min and max of ``A_i · τ_i``) that the adaptive
  trigger and the migration-cost veto reason over.

The SPMD integration lives in :func:`repro.apps.stencil_dynamic.run_stencil_dynamic`;
the supervisor integration in :mod:`repro.partition.runtime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.model.vector import PartitionVector, round_preserving_sum

__all__ = [
    "detect_imbalance",
    "EpochHealth",
    "classify_epoch",
    "rebalance_counts",
    "transfer_plan",
    "moved_pdus",
    "HysteresisDecision",
    "HysteresisController",
    "migrate_k_counts",
    "completion_skew",
    "projected_epoch_ms",
]


def detect_imbalance(
    per_pdu_times_ms: Sequence[float], *, threshold: float = 1.25
) -> bool:
    """Whether measured per-PDU times diverge beyond ``threshold``.

    ``per_pdu_times_ms[i]`` is task i's observed compute time per owned PDU
    per cycle over the last epoch.  Under the balanced decomposition these
    are proportional to the effective ``S_i``; a ratio above the threshold
    means some node slowed down (external load) or sped up (load removed).
    """
    # Parameters are validated before the measurement scan: a caller who
    # passed a bad threshold should hear about the threshold, not about
    # whatever their measurements happen to contain.  NaN fails it too.
    if not threshold > 1.0:
        raise PartitionError(f"threshold must exceed 1.0, got {threshold}")
    if not per_pdu_times_ms:
        raise PartitionError("no measurements")
    times = np.asarray(per_pdu_times_ms, dtype=float)
    if np.any(np.isnan(times)):
        raise PartitionError(f"NaN per-PDU time in {times.tolist()}")
    if np.any(times <= 0):
        raise PartitionError(f"non-positive per-PDU time in {times.tolist()}")
    return float(times.max() / times.min()) > threshold


@dataclass(frozen=True)
class EpochHealth:
    """Classification of one epoch's per-rank measurements.

    The fault-tolerant runtime feeds it per-rank per-PDU times where a rank
    that produced *no* measurement (``None`` or NaN — its node vanished,
    its manager query hung) is distinguished from one that merely slowed
    down under external load.
    """

    dead: tuple[int, ...]  #: ranks with no measurement at all (node loss)
    slow: tuple[int, ...]  #: live ranks beyond threshold x the fastest
    imbalanced: bool  #: whether the live measurements trip the threshold

    @property
    def ok(self) -> bool:
        """No dead ranks and no imbalance: keep the current decomposition."""
        return not self.dead and not self.imbalanced

    @property
    def trigger(self) -> Optional[str]:
        """The repartitioning trigger this health state implies, if any."""
        if self.dead:
            return "node-loss"
        if self.imbalanced:
            return "slowdown"
        return None


def classify_epoch(
    per_pdu_times_ms: Sequence[Optional[float]], *, threshold: float = 1.25
) -> EpochHealth:
    """Extend :func:`detect_imbalance` with node-loss detection.

    ``None`` / NaN entries mark ranks that reported nothing this epoch —
    the fail-stop signature — and are excluded from the imbalance ratio.
    Positive-but-divergent live times classify as slowdown, exactly as
    :func:`detect_imbalance` would over the live subset.
    """
    if not threshold > 1.0:  # NaN fails it too
        raise PartitionError(f"threshold must exceed 1.0, got {threshold}")
    if not per_pdu_times_ms:
        raise PartitionError("no measurements")
    dead: list[int] = []
    live: list[tuple[int, float]] = []
    for rank, t in enumerate(per_pdu_times_ms):
        if t is None:
            dead.append(rank)
            continue
        # NaN is detected on the *coerced* value: np.float32/np.float16 NaNs
        # are not `float` subclasses, and `nan <= 0` is False, so an
        # isinstance-gated check would classify them as live and poison the
        # min() below.
        value = float(t)
        if math.isnan(value):
            dead.append(rank)
        elif value <= 0:
            raise PartitionError(f"non-positive per-PDU time at rank {rank}: {t}")
        else:
            live.append((rank, value))
    if not live:
        raise PartitionError("every rank is dead: nothing left to repartition onto")
    fastest = min(t for _, t in live)
    slow = tuple(rank for rank, t in live if t / fastest > threshold)
    return EpochHealth(dead=tuple(dead), slow=slow, imbalanced=bool(slow))


def rebalance_counts(
    old_counts: Sequence[int],
    per_pdu_times_ms: Sequence[float],
    *,
    min_per_rank: int = 1,
) -> PartitionVector:
    """Recompute the partition vector from *measured* per-PDU speeds.

    Eq 3 with the measured ``τ_i`` standing in for ``S_i``:
    ``A_i' ∝ (1/τ_i)``, integerized sum-preservingly.  Tasks that were
    slowed by external load hand PDUs to the others.

    Every surviving rank is guaranteed at least ``min_per_rank`` PDUs
    (default 1): when the proportional shares would integerize a very slow
    rank to zero, PDUs are reclaimed deterministically from the
    largest-count ranks (lowest rank index on ties) until the floor holds.
    A rank with zero PDUs would otherwise be silently stranded — alive,
    participating in collectives, but owning no work and receiving no rows
    from any :func:`transfer_plan`.  If the floor is unsatisfiable
    (``Σ old_counts < min_per_rank · len(old_counts)``) a
    :class:`~repro.errors.PartitionError` is raised instead.
    """
    counts = list(old_counts)
    if len(counts) != len(per_pdu_times_ms):
        raise PartitionError(
            f"{len(counts)} counts but {len(per_pdu_times_ms)} measurements"
        )
    if min_per_rank < 0:
        raise PartitionError(f"min_per_rank must be >= 0, got {min_per_rank}")
    total = sum(counts)
    if total < min_per_rank * len(counts):
        raise PartitionError(
            f"cannot give {len(counts)} ranks >= {min_per_rank} PDU(s) "
            f"from a total of {total}"
        )
    times = np.asarray(per_pdu_times_ms, dtype=float)
    if np.any(np.isnan(times)):
        raise PartitionError("NaN per-PDU time")
    if np.any(times <= 0):
        raise PartitionError("non-positive per-PDU time")
    speeds = 1.0 / times
    shares = speeds / speeds.sum() * total
    new = round_preserving_sum(shares.tolist(), total)
    while True:
        deficit = [i for i, c in enumerate(new) if c < min_per_rank]
        if not deficit:
            break
        # Reclaim from the largest count; ties break to the lowest index so
        # the result is deterministic for identical measurements.
        donor = max(range(len(new)), key=lambda i: (new[i], -i))
        if new[donor] <= min_per_rank:  # pragma: no cover - guarded above
            raise PartitionError("floor unsatisfiable after integerization")
        new[donor] -= 1
        new[deficit[0]] += 1
    return PartitionVector(new)


def transfer_plan(
    old_counts: Sequence[int], new_counts: Sequence[int]
) -> dict[tuple[int, int], int]:
    """Rows each rank must send to each other rank, for contiguous blocks.

    Both decompositions are contiguous by rank order; the plan is the
    pairwise intersection of old and new ownership intervals.  Returns
    ``{(src, dst): n_pdus}`` with only non-zero, src≠dst entries in
    ``(src, dst)`` order, from one O(ranks) sweep — every rank can compute
    the same plan locally from the two count vectors, so no extra
    coordination is needed.
    """
    if len(old_counts) != len(new_counts):
        raise PartitionError("rank count changed between decompositions")
    if sum(old_counts) != sum(new_counts):
        raise PartitionError(
            f"totals differ: {sum(old_counts)} vs {sum(new_counts)}"
        )
    old_bounds = list(accumulate(map(int, old_counts), initial=0))
    new_bounds = list(accumulate(map(int, new_counts), initial=0))
    plan: dict[tuple[int, int], int] = {}
    src = dst = 0
    while src < len(old_counts) and dst < len(new_counts):
        old_end, new_end = old_bounds[src + 1], new_bounds[dst + 1]
        overlap = min(old_end, new_end) - max(old_bounds[src], new_bounds[dst])
        if overlap > 0 and src != dst:
            plan[(src, dst)] = overlap
        # The interval that ends first overlaps nothing further on.
        if old_end <= new_end:
            src += 1
        else:
            dst += 1
    return plan


def moved_pdus(plan: dict[tuple[int, int], int]) -> int:
    """Total PDUs changing owner under a transfer plan."""
    return sum(plan.values())


def completion_skew(
    per_pdu_times_ms: Sequence[Optional[float]], counts: Sequence[int]
) -> float:
    """Max/min ratio of per-rank *completion* times ``A_i · τ_i``.

    This is the allocation-error signal the adaptive controller watches.
    The raw per-PDU ratio of :func:`detect_imbalance` is permanently above
    threshold on a heterogeneous network (a fast node's τ is intrinsically
    smaller); completion times, by contrast, are equalized by a balanced
    decomposition, so skew ≈ 1 means the current vector still fits the
    measured speeds and skew ≫ 1 means PDUs sit on the wrong ranks.

    Dead ranks (``None`` measurement) and zero-count ranks are excluded.
    """
    if len(per_pdu_times_ms) != len(counts):
        raise PartitionError(
            f"{len(per_pdu_times_ms)} measurements but {len(counts)} counts"
        )
    completions: list[float] = []
    for rank, (t, c) in enumerate(zip(per_pdu_times_ms, counts)):
        if t is None or c == 0:
            continue
        value = float(t)
        if math.isnan(value):
            continue
        if value <= 0:
            raise PartitionError(f"non-positive per-PDU time at rank {rank}: {t}")
        completions.append(value * c)
    if not completions:
        raise PartitionError("no live ranks with work: skew undefined")
    return max(completions) / min(completions)


def projected_epoch_ms(
    per_pdu_times_ms: Sequence[Optional[float]], counts: Sequence[int]
) -> float:
    """Predicted epoch completion time ``max(A_i · τ_i)`` over live ranks.

    Used by the migration-cost veto: holding the measured τ fixed, what
    would the epoch cost under a candidate vector?
    """
    if len(per_pdu_times_ms) != len(counts):
        raise PartitionError(
            f"{len(per_pdu_times_ms)} measurements but {len(counts)} counts"
        )
    completions = [
        float(t) * c
        for t, c in zip(per_pdu_times_ms, counts)
        if t is not None and not math.isnan(float(t))
    ]
    return max(completions) if completions else 0.0


@dataclass(frozen=True)
class HysteresisDecision:
    """One :meth:`HysteresisController.observe` verdict."""

    act: bool  #: commit an incremental repartition this epoch
    state: str  #: ``"idle"`` | ``"armed"`` (counting) | ``"tripped"``
    streak: int  #: consecutive over-trip epochs seen so far
    ratio: float  #: the skew that was observed


class HysteresisController:
    """Debounce slowdown triggers: a Schmitt trigger with a K-epoch filter.

    Two defences against churny availability (node flapping, diurnal
    load) thrashing the decomposition:

    * **debounce** — the controller arms on the first epoch whose skew
      exceeds ``trip_threshold`` but only *trips* (``act=True``) after
      ``trip_after`` consecutive such epochs, so a two-epoch load burst
      under a ``trip_after=3`` controller costs nothing;
    * **hysteresis** — once tripped, the controller keeps acting until the
      skew falls to ``clear_threshold`` (strictly below the trip point), so
      a ratio oscillating around the trip threshold cannot alternate
      trip/clear every epoch.

    Purely arithmetic and deterministic: no wall clock, no RNG — the
    decision path stays inside the ``sim-determinism`` lint scope.
    """

    def __init__(
        self,
        *,
        trip_threshold: float = 1.25,
        clear_threshold: float = 1.1,
        trip_after: int = 3,
    ) -> None:
        # Each check is written so that NaN fails it.
        if not clear_threshold >= 1.0:
            raise PartitionError(
                f"clear_threshold must be >= 1.0, got {clear_threshold}"
            )
        if not trip_threshold > clear_threshold:
            raise PartitionError(
                f"trip_threshold ({trip_threshold}) must exceed "
                f"clear_threshold ({clear_threshold})"
            )
        if not trip_after >= 1:
            raise PartitionError(f"trip_after must be >= 1, got {trip_after}")
        self.trip_threshold = float(trip_threshold)
        self.clear_threshold = float(clear_threshold)
        self.trip_after = int(trip_after)
        self.streak = 0
        self.tripped = False

    def observe(self, ratio: float) -> HysteresisDecision:
        """Feed one epoch's completion skew; returns whether to act."""
        value = float(ratio)
        if math.isnan(value) or value < 1.0:
            raise PartitionError(f"skew ratio must be >= 1.0, got {ratio}")
        if self.tripped:
            if value <= self.clear_threshold:
                self.tripped = False
                self.streak = 0
                return HysteresisDecision(False, "idle", 0, value)
            return HysteresisDecision(True, "tripped", self.streak, value)
        if value > self.trip_threshold:
            self.streak += 1
            if self.streak >= self.trip_after:
                self.tripped = True
                return HysteresisDecision(True, "tripped", self.streak, value)
            return HysteresisDecision(False, "armed", self.streak, value)
        self.streak = 0
        return HysteresisDecision(False, "idle", 0, value)

    def reset(self) -> None:
        """Forget all state (called after a full search installs a new world)."""
        self.streak = 0
        self.tripped = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "tripped" if self.tripped else f"streak={self.streak}"
        return f"<HysteresisController {state}>"


def migrate_k_counts(
    old_counts: Sequence[int],
    per_pdu_times_ms: Sequence[float],
    k: int,
    *,
    min_per_rank: int = 1,
) -> PartitionVector:
    """Move at most ``k`` PDUs toward the measured Eq 3 target.

    The incremental alternative to :func:`rebalance_counts` + full
    adoption: compute the same measured target, then step toward it one
    reallocation at a time — each taken from the rank with the largest
    remaining surplus over its target (the most overloaded, lowest index
    on ties) to the rank with the largest remaining deficit.  The budget
    is charged in *physically moved rows*: blocks are contiguous, so
    reallocating one PDU of share from rank ``d`` to rank ``r`` shifts
    every ownership boundary between them and ships ``|d - r|`` rows.
    The resulting :func:`transfer_plan` therefore moves at most ``k``
    PDUs, capping the per-epoch transfer bill at
    ``k · transfer_ms_per_pdu``; when the whole rebalance fits inside the
    budget this equals the full measured target.

    Deterministic for identical inputs; preserves the total and the
    ``min_per_rank`` floor (inherited from the target).
    """
    if k < 1:
        raise PartitionError(f"migrate_k must be >= 1, got {k}")
    target = list(
        rebalance_counts(old_counts, per_pdu_times_ms, min_per_rank=min_per_rank)
    )
    new = list(old_counts)
    budget = k
    while budget > 0:
        donor = max(range(len(new)), key=lambda i: (new[i] - target[i], -i))
        recipient = max(range(len(new)), key=lambda i: (target[i] - new[i], -i))
        surplus = new[donor] - target[donor]
        deficit = target[recipient] - new[recipient]
        if surplus <= 0 or deficit <= 0:
            break  # converged to the target before exhausting the budget
        rows_per_pdu = abs(donor - recipient)
        step = min(budget // rows_per_pdu, surplus, deficit)
        if step == 0:
            break  # the cheapest useful move no longer fits the budget
        new[donor] -= step
        new[recipient] += step
        budget -= step * rows_per_pdu
    return PartitionVector(new)
