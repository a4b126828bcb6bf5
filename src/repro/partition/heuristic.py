"""The paper's partitioning heuristic (§5) and search-based oracles.

The heuristic orders clusters by processor power (fastest first), then
considers them in order, keeping all previously chosen clusters fully
allocated — communication locality and processor power outrank extra
bandwidth.  Within a cluster it locates the minimum of the unimodal
``T_c(p)`` curve (Fig 3) by binary search.  If the best count within a
cluster leaves that cluster partially used, the search stops: later clusters
are only reachable once the current one is saturated.

The heuristic probes through the scalar :class:`CycleEstimator` — about
``K·log2 P`` probes, too few for a vectorized engine to pay for itself.
Two oracles validate it:

* :func:`prefix_scan_partition` — linear scalar scan of the same
  restricted (cluster-prefix) configuration space;
* :func:`exhaustive_partition` — every combination of per-cluster counts,
  the unrestricted optimum of the estimator's objective, searched by the
  array engine (:mod:`repro.partition.arrayengine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Optional, Sequence

from repro.errors import PartitionError
from repro.model.vector import PartitionVector
from repro.partition.available import ClusterResources
from repro.partition.config import ProcessorConfiguration
from repro.partition.estimator import CycleEstimate, CycleEstimator
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
        from the memo without counting as evaluations.  The returned
        decision is identical to the cold search's either way.
    warm_start:
        Previous decision's per-cluster counts (``counts_by_name()``).  In
        binary mode each cluster first checks whether the (clamped)
        previous count is still the local minimum of the unimodal
        ``T_c(p)`` curve — three probes, usually all memo hits — and only
        falls back to the full binary search when it is not.  Under the
        paper's unimodality premise (Fig 3) the accepted count equals the
        binary search's answer exactly.
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry`.  Search
        mechanics (evaluations, memo hits, warm-seed acceptances) are
        **host-domain**: they describe how the search ran, not what it
        decided, and legitimately differ between warm and cold runs that
        return identical decisions.
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
    ordered = (
        list(cluster_order)
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

    counts = [0] * len(ordered)
    trace: list[tuple[str, float]] = []
    argmin = _argmin_unimodal if search == "binary" else _argmin_scan
    # The binary search revisits neighbouring counts; memoize the (frozen)
    # configuration objects on the counts tuple so each probe beyond the
    # first costs one dict hit instead of a full rebuild + validation.  The
    # cache is also the trace's dedupe layer: a counts tuple gets exactly
    # one (describe, t) row, appended on its first (real) evaluation, so
    # ``decision.evaluations == len(decision.trace)`` holds exactly.
    cfg_cache: dict[tuple[int, ...], ProcessorConfiguration] = {}

    def cost_with(index: int, p: int) -> float:
        key = tuple(counts[:index]) + (p,) + tuple(counts[index + 1 :])
        cfg = cfg_cache.get(key)
        if cfg is None:
            cfg = ProcessorConfiguration(ordered, key)
            cfg_cache[key] = cfg
            before = estimator.evaluations
            t = estimator.t_cycle(cfg)
            if estimator.evaluations > before:
                # Fresh evaluation (not a warm-start memo hit): this is the
                # counts tuple's one trace row.
                trace.append((cfg.describe(), t))
            return t
        # Cache hit: the estimator memo returns the stored value without
        # counting an evaluation, and no duplicate trace row is appended.
        return estimator.t_cycle(cfg)

    for k, res in enumerate(ordered):
        lo = 1 if k == 0 else 0  # at least one processor overall
        hi = res.n_available
        best_p: Optional[int] = None
        if warm_start is not None and search == "binary":
            prev = warm_start.get(res.name)
            if prev is not None:
                # Surviving-prefix seeding: if the previous count (clamped
                # to what survives) is still a strict local minimum, it IS
                # the binary search's answer on the unimodal curve — accept
                # it after at most three probes.
                p0 = min(max(prev, lo), hi)
                at = cost_with(k, p0)
                left_ok = p0 == lo or cost_with(k, p0 - 1) > at
                right_ok = p0 == hi or at <= cost_with(k, p0 + 1)
                if left_ok and right_ok:
                    best_p = p0
                    m_warm_accepted.inc()
        if best_p is None:
            best_p = argmin(lambda p: cost_with(k, p), lo, hi)
        counts[k] = best_p
        if best_p < res.n_available:
            # This cluster is not saturated: locality says stop here.
            break

    config = cfg_cache.get(tuple(counts))
    if config is None:
        # Possible only when a search interval was a single point (e.g. a
        # one-node first cluster), so the chosen counts were never probed.
        config = ProcessorConfiguration(ordered, counts)
        before = estimator.evaluations
        estimate = estimator.estimate(config)
        if estimator.evaluations > before:
            trace.append((config.describe(), estimate.t_cycle_ms))
    else:
        estimate = estimator.estimate(config)
    decision = PartitionDecision(
        config=config,
        vector=estimator.partition_vector(config),
        estimate=estimate,
        t_elapsed_ms=estimator.t_elapsed(config),
        evaluations=estimator.evaluations,
        method=f"heuristic-{search}",
        trace=tuple(trace),
    )
    m_evaluations.inc(decision.evaluations)
    if cache is not None and signature is not None:
        cache.store_decision(signature, decision)
    return decision


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
    return PartitionDecision(
        config=best,
        vector=estimator.partition_vector(best),
        estimate=estimator.estimate(best),
        t_elapsed_ms=estimator.t_elapsed(best),
        evaluations=estimator.evaluations,
        method=method,
        trace=tuple(trace),
    )


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
    return PartitionDecision(
        config=config,
        vector=estimator.partition_vector(config),
        estimate=estimator.estimate(config),
        t_elapsed_ms=estimator.t_elapsed(config),
        evaluations=evaluations,
        method=method,
        trace=(),
    )



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
    through the scalar reference estimator.
    """
    estimator = CycleEstimator(computation, cost_db, startup_ms=startup_ms)
    ordered = order_by_power(resources, estimator.op_kind)
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    configs = []
    prefix = [0] * len(ordered)
    for k, res in enumerate(ordered):
        # p=0 duplicates the previous stage's saturated prefix, so start at 1.
        for p in range(1, res.n_available + 1):
            configs.append(
                ProcessorConfiguration(ordered, prefix[:k] + [p] + prefix[k + 1 :])
            )
        prefix[k] = res.n_available
    return _best_of(estimator, configs, "prefix-scan")


def exhaustive_partition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
    *,
    startup_ms: float = 0.0,
    prune: bool = True,
    cache=None,
    metrics=None,
    collapse: bool = False,
) -> PartitionDecision:
    """Minimum of the objective over *all* per-cluster count combinations.

    Exponential in the cluster count, so the space is streamed through the
    array engine's preallocated workspace (see
    :mod:`repro.partition.arrayengine`).  With ``prune=True`` a
    branch-and-bound cut discards every count prefix whose ``T_comp``
    lower bound already exceeds the best cluster-prefix candidate, once
    the space is large enough for the cut to pay; the result stays exact.
    Given a ``cache`` (:class:`~repro.partition.warmstart.SearchCache`),
    the lowered engine and its incremental frontier persist across calls,
    so an availability *shrink* is answered in O(delta) with zero fresh
    evaluations.

    ``collapse=True`` detects equivalence classes of interchangeable
    clusters and searches one canonical member per orbit
    (:mod:`repro.partition.collapse`) — the wide-area path.  The returned
    decision is identical to ``collapse=False``; pools with no duplicate
    clusters simply fall through to the plain streamed scan.
    """
    if collapse:
        from repro.partition.collapse import collapsed_exhaustive_search

        search = collapsed_exhaustive_search
    else:
        from repro.partition.arrayengine import array_exhaustive_search

        search = array_exhaustive_search
    kind = computation.dominant_computation_phase().op_kind
    ordered = order_by_power(resources, kind)
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    result = search(
        computation,
        ordered,
        cost_db,
        startup_ms=startup_ms,
        prune="auto" if prune else False,
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
    ordered = order_by_power(resources, estimator.op_kind)
    if not ordered:
        raise PartitionError("no available processors in any cluster")
    ranges = [range(0, r.n_available + 1) for r in ordered]
    configs = [
        ProcessorConfiguration(ordered, combo)
        for combo in product(*ranges)
        if sum(combo) >= 1
    ]
    return _best_of(estimator, configs, "exhaustive")
