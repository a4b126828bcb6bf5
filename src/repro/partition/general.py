"""The general partitioning problem (paper §5's open generalization).

The published heuristic restricts candidates to cluster-*prefix*
configurations — locality first, bandwidth never.  The general problem lets
any ``(P_1 .. P_K)`` compete, trading locality against extra cross-segment
bandwidth; the paper notes it "requires that a system of nonlinear equations
be solved" and leaves heuristics to future work.

:func:`general_partition` is such a heuristic: multi-start steepest-descent
local search over the integer lattice of per-cluster counts.  The
neighbourhood is ±1 on each cluster plus *swap* moves (−1 on one cluster, +1
on another), which lets the search walk along constant-P contours where the
plain ±1 neighbourhood stalls.  On small networks it provably has the same
optima reachable as :func:`repro.partition.exhaustive_partition` (tested);
on large ones it stays polynomial.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import PartitionError
from repro.partition.available import ClusterResources
from repro.partition.config import ProcessorConfiguration
from repro.partition.estimator import CycleEstimator
from repro.partition.heuristic import PartitionDecision, order_by_power

__all__ = ["general_partition"]


def _neighbors(counts: tuple[int, ...], limits: Sequence[int]) -> list[tuple[int, ...]]:
    """±1 and swap moves around a lattice point, clipped to [0, N_i]."""
    result = []
    k = len(counts)
    for i in range(k):
        for delta in (-1, 1):
            c = counts[i] + delta
            if 0 <= c <= limits[i]:
                candidate = counts[:i] + (c,) + counts[i + 1 :]
                if sum(candidate) >= 1:
                    result.append(candidate)
        for j in range(k):
            if i == j:
                continue
            if counts[i] > 0 and counts[j] < limits[j]:
                candidate = list(counts)
                candidate[i] -= 1
                candidate[j] += 1
                result.append(tuple(candidate))
    return result


def _descend(
    estimator: CycleEstimator,
    ordered: Sequence[ClusterResources],
    start: tuple[int, ...],
    limits: Sequence[int],
) -> tuple[tuple[int, ...], float]:
    """Steepest descent to a local minimum of T_c from ``start``."""
    current = start
    current_t = estimator.t_cycle(ProcessorConfiguration(ordered, current))
    while True:
        best_move: Optional[tuple[int, ...]] = None
        best_t = current_t
        for candidate in _neighbors(current, limits):
            t = estimator.t_cycle(ProcessorConfiguration(ordered, candidate))
            if t < best_t - 1e-12:
                best_move, best_t = candidate, t
        if best_move is None:
            return current, current_t
        current, current_t = best_move, best_t


def general_partition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
    *,
    extra_starts: Sequence[Sequence[int]] = (),
) -> PartitionDecision:
    """Solve the general problem by multi-start local search.

    Start points cover the structurally distinct basins: one processor of
    the fastest cluster; each cluster alone at full strength; everything at
    full strength; and the prefix heuristic's own answer — plus any
    caller-provided ``extra_starts``.
    """
    estimator = CycleEstimator(computation, cost_db)
    ordered = order_by_power(resources, estimator.op_kind)
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    limits = [r.n_available for r in ordered]
    k = len(ordered)

    starts: list[tuple[int, ...]] = []

    def add(counts: Sequence[int]) -> None:
        candidate = tuple(int(c) for c in counts)
        if len(candidate) != k:
            raise PartitionError(
                f"start point {candidate} has {len(candidate)} entries for {k} clusters"
            )
        clipped = tuple(min(max(c, 0), limits[i]) for i, c in enumerate(candidate))
        if sum(clipped) >= 1 and clipped not in starts:
            starts.append(clipped)

    add((1,) + (0,) * (k - 1))
    for i in range(k):
        solo = [0] * k
        solo[i] = limits[i]
        add(solo)
    add(tuple(limits))
    # Seed with the paper heuristic's answer so we never do worse than it.
    from repro.partition.heuristic import partition as prefix_partition

    prefix = prefix_partition(computation, resources, cost_db)
    add(tuple(prefix.config.count_of(r.name) for r in ordered))
    for extra in extra_starts:
        add(extra)

    best_counts: Optional[tuple[int, ...]] = None
    best_t = float("inf")
    for start in starts:
        counts, t = _descend(estimator, ordered, start, limits)
        if t < best_t:
            best_counts, best_t = counts, t
    assert best_counts is not None
    config = ProcessorConfiguration(ordered, best_counts)
    return PartitionDecision(
        config=config,
        vector=estimator.partition_vector(config),
        estimate=estimator.estimate(config),
        t_elapsed_ms=estimator.t_elapsed(config),
        evaluations=estimator.evaluations,
        method="general-local-search",
    )
