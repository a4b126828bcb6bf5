"""The paper's partitioning heuristic (§5) and search-based oracles.

The heuristic orders clusters by processor power (fastest first), then
considers them in order, keeping all previously chosen clusters fully
allocated — communication locality and processor power outrank extra
bandwidth.  Within a cluster it locates the minimum of the unimodal
``T_c(p)`` curve (Fig 3) by binary search.  If the best count within a
cluster leaves that cluster partially used, the search stops: later clusters
are only reachable once the current one is saturated.

Every configuration the heuristic probes is therefore a prefix of the
pool's node order, and it probes along a
:class:`~repro.partition.estimator.ProbeLine`: about ``K·log2 P`` probes,
each a sum over a prefix of one speed array and a step of per-cluster
folds, plus its memo key and trace row.  One
:class:`~repro.partition.config.ProcessorConfiguration` is built per
search, for the winner.  Two oracles validate it:

* :func:`prefix_scan_partition` — linear scan of the same
  restricted (cluster-prefix) configuration space, along the same line;
* :func:`exhaustive_partition` — every combination of per-cluster counts,
  the unrestricted optimum of the estimator's objective, searched by the
  one exact engine (:mod:`repro.partition.arrayengine`), which collapses
  interchangeable clusters (:mod:`repro.partition.collapse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Optional, Sequence

from repro.errors import PartitionError
from repro.model.vector import PartitionVector
from repro.partition.arrayengine import exact_search
from repro.partition.available import ClusterResources
from repro.partition.config import ProcessorConfiguration
from repro.partition.estimator import CycleEstimate, CycleEstimator, ProbeLine
from repro.telemetry import NULL_REGISTRY

__all__ = [
    "PartitionDecision",
    "partition",
    "prefix_scan_partition",
    "exhaustive_partition",
    "order_by_power",
]


@dataclass(frozen=True)
class PartitionDecision:
    """The partitioner's output: configuration, vector, and estimates."""

    config: ProcessorConfiguration
    vector: PartitionVector
    estimate: CycleEstimate
    t_elapsed_ms: float
    evaluations: int
    method: str
    trace: tuple[tuple[str, float], ...] = field(default=())

    @property
    def t_cycle_ms(self) -> float:
        """The minimized per-cycle estimate."""
        return self.estimate.t_cycle_ms

    def counts_by_name(self) -> dict[str, int]:
        """Chosen ``P_i`` per cluster."""
        return self.config.counts_by_name()

    def describe(self) -> str:
        """Readable summary, e.g. ``sparc2:6+ipc:2 T_c=26.6ms``."""
        return f"{self.config.describe()} T_c={self.t_cycle_ms:.2f}ms"


def order_by_power(
    resources: Sequence[ClusterResources], kind: str = "fp"
) -> list[ClusterResources]:
    """Clusters fastest-first by instruction rate; drops empty clusters."""
    usable = [r for r in resources if r.n_available > 0]
    return sorted(usable, key=lambda r: r.instruction_rate(kind))  # type: ignore[arg-type]


def _argmin_unimodal(
    f: Callable[[int], float], lo: int, hi: int
) -> int:
    """Minimum of a unimodal integer function on [lo, hi] by binary search.

    Compares ``f(mid)`` with ``f(mid+1)`` and discards the half that cannot
    contain the minimum — the iterative algorithm the paper describes for
    locating ``p_ideal`` on the Fig 3 curve.
    """
    if lo > hi:
        raise PartitionError(f"empty search interval [{lo}, {hi}]")
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) <= f(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _argmin_scan(f: Callable[[int], float], lo: int, hi: int) -> int:
    """Minimum of an arbitrary integer function on [lo, hi] by linear scan.

    The paper's single-minimum assumption "may not hold due to architecture
    or message-system protocol characteristics"; this is the robust search
    for that more general case (O(N_i) evaluations instead of O(log N_i)).
    """
    if lo > hi:
        raise PartitionError(f"empty search interval [{lo}, {hi}]")
    best, best_val = lo, f(lo)
    for p in range(lo + 1, hi + 1):
        val = f(p)
        if val < best_val:
            best, best_val = p, val
    return best


def partition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
    *,
    startup_ms: float = 0.0,
    cluster_order: Optional[Sequence[ClusterResources]] = None,
    search: str = "binary",
    cache=None,
    warm_start: Optional[dict[str, int]] = None,
    metrics=None,
) -> PartitionDecision:
    """Run the paper's heuristic; returns the chosen decision.

    Parameters
    ----------
    computation:
        The annotated :class:`~repro.model.DataParallelComputation`.
    resources:
        Available processors per cluster (from
        :func:`~repro.partition.available.gather_available_resources`).
    cost_db:
        Fitted :class:`~repro.benchmarking.CostDatabase`.
    cluster_order:
        Override the power ordering (used by ordering ablations).
    search:
        ``"binary"`` — the paper's O(log) search assuming a single minimum
        per cluster (Fig 3); ``"scan"`` — the robust per-cluster linear scan
        for cost curves with multiple minima (the paper's noted future
        work).  Both keep the cluster-ordered locality structure.
    cache:
        Optional :class:`~repro.partition.warmstart.SearchCache` carrying
        estimate and decision memos across calls.  An identical
        availability pool returns its previous decision outright (zero
        evaluations); otherwise previously-probed counts tuples are served
        from the memo without counting as evaluations.  The memos are
        exact: they change how many values a search evaluates, never a
        value.
    warm_start:
        Previous decision's per-cluster counts (``counts_by_name()``).  In
        binary mode each cluster first checks whether the (clamped)
        previous count is still a strict local minimum of ``T_c(p)`` —
        three probes, usually all memo hits — and falls back to the full
        binary search when it is not, or when that count is 0.  Where
        ``T_c(p)`` is unimodal on ``[1, N_k]`` (Fig 3) the accepted count
        is the binary search's answer up to ties, so the warm decision's
        ``T_c`` is the cold search's; a property test checks that to
        1e-12 relative on generated wide-area pools.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry`.  Search
        mechanics (evaluations, memo hits, warm-seed acceptances) are
        **host-domain**: they describe how the search ran, not what it
        decided, and legitimately differ between warm and cold runs that
        return the same decision.
    """
    if search not in ("binary", "scan"):
        raise PartitionError(f"unknown search mode {search!r}")
    registry = metrics if metrics is not None else NULL_REGISTRY
    m_searches = registry.counter(
        "partition.searches", domain="host", help="heuristic searches that ran"
    )
    m_evaluations = registry.counter(
        "partition.evaluations", domain="host", help="fresh T_c evaluations"
    )
    m_decision_hits = registry.counter(
        "partition.cache.decision_hits",
        domain="host",
        help="decisions served whole from the warm-start cache",
    )
    m_warm_accepted = registry.counter(
        "partition.warm_seeds_accepted",
        domain="host",
        help="clusters whose previous count was still the local minimum",
    )
    probe_kind = computation.dominant_computation_phase().op_kind
    # One tuple for every probe's configuration: the estimator recognises
    # the pool by identity and reuses the node rates it read from it.
    ordered = tuple(
        cluster_order
        if cluster_order is not None
        else order_by_power(resources, probe_kind)
    )
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    signature = None
    if cache is not None:
        signature = cache.availability_signature(
            ordered, search=search, startup_ms=startup_ms
        )
        hit = cache.decision(signature)
        if hit is not None:
            # Same schedulable pool as a previous epoch: the decision is
            # necessarily identical; report zero fresh search work.
            m_decision_hits.inc()
            return replace(hit, evaluations=0, trace=())
        cache.searches += 1
    m_searches.inc()
    memo = cache.estimator_memo(ordered) if cache is not None else None
    estimator = CycleEstimator(computation, cost_db, startup_ms=startup_ms, memo=memo)

    line = ProbeLine(estimator, ordered)
    argmin = _argmin_unimodal if search == "binary" else _argmin_scan
    for k, res in enumerate(ordered):
        cost = line.along(k)
        lo = 1 if k == 0 else 0  # at least one processor overall
        hi = res.n_available
        best_p: Optional[int] = None
        if warm_start is not None and search == "binary":
            prev = warm_start.get(res.name)
            # Surviving-prefix seeding: if the previous count (clamped to
            # what survives) is still a strict local minimum, it is the
            # binary search's answer on a unimodal curve — accept it after
            # at most three probes.  A clamped count of 0 is not seeded:
            # its step to 1 pays the router crossing, where T_c(p) is not
            # unimodal, so the binary search decides that cluster.
            p0 = 0 if prev is None else min(max(prev, lo), hi)
            if p0 > 0:
                at = cost(p0)
                left_ok = p0 == lo or cost(p0 - 1) > at
                right_ok = p0 == hi or at <= cost(p0 + 1)
                if left_ok and right_ok:
                    best_p = p0
                    m_warm_accepted.inc()
        if best_p is None:
            best_p = argmin(cost, lo, hi)
        if best_p < hi:
            # This cluster is not saturated: locality says stop here.
            break
    # A one-point search interval (e.g. a one-node first cluster) never
    # probed its count; this probe adds the winner's trace row if fresh.
    cost(best_p)
    decision = _decision(
        estimator, line.configuration(k, best_p), f"heuristic-{search}", line.trace
    )
    m_evaluations.inc(decision.evaluations)
    if cache is not None and signature is not None:
        cache.store_decision(signature, decision)
    return decision


def _decision(
    estimator: CycleEstimator,
    config: ProcessorConfiguration,
    method: str,
    trace: Sequence[tuple[str, float]] = (),
    evaluations: Optional[int] = None,
) -> PartitionDecision:
    """``config`` as a decision, estimated through ``estimator``; the
    evaluations default to the estimator's count."""
    return PartitionDecision(
        config=config,
        vector=estimator.partition_vector(config),
        estimate=estimator.estimate(config),
        t_elapsed_ms=estimator.t_elapsed(config),
        evaluations=estimator.evaluations if evaluations is None else evaluations,
        method=method,
        trace=tuple(trace),
    )


def _best_of(
    estimator: CycleEstimator,
    configs: Sequence[ProcessorConfiguration],
    method: str,
) -> PartitionDecision:
    if not configs:
        raise PartitionError("no candidate configurations")
    best: Optional[ProcessorConfiguration] = None
    best_t = float("inf")
    trace = []
    for cfg in configs:
        t = estimator.t_cycle(cfg)
        trace.append((cfg.describe(), t))
        # On exact ties prefer the lexicographically-smallest counts tuple —
        # the same rule ArrayCycleEstimator.block_best applies, so the
        # scalar oracles and the array engine return byte-identical
        # decisions regardless of their enumeration orders.
        if t < best_t or (t == best_t and best is not None and cfg.counts < best.counts):
            best, best_t = cfg, t
    assert best is not None
    return _decision(estimator, best, method, trace)


def _decision_from_counts(
    computation,
    ordered: Sequence[ClusterResources],
    cost_db,
    counts: Sequence[int],
    method: str,
    *,
    startup_ms: float = 0.0,
    evaluations: int = 0,
) -> PartitionDecision:
    """Package a winning counts vector as a full decision.

    The winner is re-estimated with the scalar :class:`CycleEstimator`, so
    every array-engine search returns the exact reference-path numbers
    (the kernels agree with it to ~1e-13 ms; see
    ``tests/partition/test_fastpath_equivalence.py``).
    """
    estimator = CycleEstimator(computation, cost_db, startup_ms=startup_ms)
    config = ProcessorConfiguration(ordered, tuple(counts))
    return _decision(estimator, config, method, evaluations=evaluations)


def prefix_scan_partition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
    *,
    startup_ms: float = 0.0,
) -> PartitionDecision:
    """Linear scan of the cluster-prefix space the heuristic searches.

    Candidates: p processors of cluster 1 (p = 1..N₁); then N₁ plus
    p of cluster 2; and so on.  The oracle for the binary search, probed
    along the same :class:`~repro.partition.estimator.ProbeLine`.
    """
    estimator = CycleEstimator(computation, cost_db, startup_ms=startup_ms)
    ordered = tuple(order_by_power(resources, estimator.op_kind))
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    line = ProbeLine(estimator, ordered)
    best: Optional[tuple[int, int]] = None
    best_t = float("inf")
    for k, res in enumerate(ordered):
        cost = line.along(k)
        # p=0 duplicates the previous stage's saturated prefix, so start at 1.
        for p in range(1, res.n_available + 1):
            t = cost(p)
            # Candidates come in increasing counts order, so the first
            # minimum is also _best_of's lexicographically-smallest one.
            if t < best_t:
                best, best_t = (k, p), t
    assert best is not None
    return _decision(estimator, line.configuration(*best), "prefix-scan", line.trace)


def exhaustive_partition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
    *,
    startup_ms: float = 0.0,
    cache=None,
    metrics=None,
) -> PartitionDecision:
    """Minimum of the objective over *all* per-cluster count combinations.

    Exponential in the cluster count, so the space goes to the one exact
    engine (:class:`~repro.partition.arrayengine.ArraySearchEngine`): it
    detects equivalence classes of interchangeable clusters and streams
    one canonical member per orbit through a preallocated workspace, with
    a branch-and-bound cut once the space is large enough for the cut to
    pay, or sweeps per-class Eq 1 levels when the canonical space is
    astronomic (:mod:`repro.partition.collapse`).  Every path is exact.
    Given a ``cache`` (:class:`~repro.partition.warmstart.SearchCache`),
    the lowered engine and its incremental frontier persist across calls,
    so an availability *shrink* is answered in O(delta) with zero fresh
    evaluations.
    """
    kind = computation.dominant_computation_phase().op_kind
    ordered = order_by_power(resources, kind)
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    result = exact_search(
        computation,
        ordered,
        cost_db,
        startup_ms=startup_ms,
        cache=cache,
        metrics=metrics,
    )
    return _decision_from_counts(
        computation,
        ordered,
        cost_db,
        result.counts,
        "exhaustive",
        startup_ms=startup_ms,
        evaluations=result.evaluations,
    )


def _scalar_exhaustive_partition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
    *,
    startup_ms: float = 0.0,
) -> PartitionDecision:
    """The reference exhaustive oracle: every count combination, probed one
    by one through the scalar :class:`CycleEstimator` in
    :func:`itertools.product` order.  Only the parity tests and the
    partition throughput bench use it."""
    estimator = CycleEstimator(computation, cost_db, startup_ms=startup_ms)
    ordered = tuple(order_by_power(resources, estimator.op_kind))
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    ranges = [range(0, r.n_available + 1) for r in ordered]
    configs = [
        ProcessorConfiguration(ordered, combo)
        for combo in product(*ranges)
        if sum(combo) >= 1
    ]
    return _best_of(estimator, configs, "exhaustive")
