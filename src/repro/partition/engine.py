"""The :class:`DecisionEngine` facade: one workload, decided many times.

Every long-lived consumer of the partitioner — the fault-tolerant
supervisor (:mod:`repro.partition.runtime`), the multi-tenant decision
server (:mod:`repro.server`) — repeats the same pattern: hold one
``(computation, cost database)`` pair plus a
:class:`~repro.partition.warmstart.SearchCache`, and answer a stream of
availability pools with decisions.  This module gives that pattern one
boundary instead of each caller re-threading ``partition()`` /
``exhaustive_partition()`` keyword plumbing:

* :meth:`DecisionEngine.decide` — the §5 heuristic (the supervisor's
  path), probed through the scalar estimator, with warm-start seeding and
  the shared cache;
* :meth:`DecisionEngine.decide_exact` — the exact array-engine search
  (the server's path; it collapses interchangeable clusters, so wide-area
  pools decide in milliseconds), with a per-tenant decision memo layered
  over the tenant-agnostic engine/frontier reuse.

Both paths return decisions bit-identical to calling the underlying
search functions directly with the same inputs: the facade adds memo
bookkeeping, never search behaviour.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.errors import PartitionError
from repro.partition.available import ClusterResources
from repro.partition.heuristic import (
    PartitionDecision,
    exhaustive_partition,
    order_by_power,
    partition,
)
from repro.partition.warmstart import SearchCache
from repro.telemetry import NULL_REGISTRY

__all__ = ["DecisionEngine", "EXACT_SEARCH_MODE"]

#: The ``search`` label exact decisions are memoized under — distinct from
#: the heuristic's ``"binary"``/``"scan"`` so the two never share a key.
EXACT_SEARCH_MODE = "exhaustive-array"


class DecisionEngine:
    """One computation + cost database + warm-start cache, decided repeatedly.

    Parameters
    ----------
    computation:
        The annotated :class:`~repro.model.DataParallelComputation`.
    cost_db:
        Fitted :class:`~repro.benchmarking.CostDatabase`.
    startup_ms:
        Fixed per-engine start-up cost, forwarded to both search paths.
    cache:
        The :class:`~repro.partition.warmstart.SearchCache` shared across
        calls.  ``None`` disables all cross-call reuse (every decision is
        cold).
    metrics:
        Optional :class:`~repro.telemetry.MetricsRegistry`; search
        mechanics are host-domain (see :func:`partition`).
    """

    def __init__(
        self,
        computation,
        cost_db,
        *,
        startup_ms: float = 0.0,
        cache: Optional[SearchCache] = None,
        metrics=None,
    ) -> None:
        self.computation = computation
        self.cost_db = cost_db
        self.startup_ms = startup_ms
        self.cache = cache
        self.metrics = metrics
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_exact_hits = registry.counter(
            "decide.exact.decision_hits",
            domain="host",
            help="exact decisions served whole from the per-tenant memo",
        )
        self._m_exact_searches = registry.counter(
            "decide.exact.searches",
            domain="host",
            help="exact decisions that ran the streamed array search",
        )
        self._probe_kind = computation.dominant_computation_phase().op_kind

    # -- pool ordering -----------------------------------------------------------

    def order(
        self, resources: Sequence[ClusterResources]
    ) -> list[ClusterResources]:
        """The power ordering every search and memo key is built on."""
        return order_by_power(resources, self._probe_kind)

    # -- heuristic path (supervisor) ---------------------------------------------

    def decide(
        self,
        resources: Sequence[ClusterResources],
        *,
        warm_start: Optional[dict[str, int]] = None,
    ) -> PartitionDecision:
        """The §5 heuristic's binary search over ``resources`` (see
        :func:`partition`)."""
        return partition(
            self.computation,
            resources,
            self.cost_db,
            startup_ms=self.startup_ms,
            cache=self.cache,
            warm_start=warm_start,
            metrics=self.metrics,
        )

    # -- exact path (decision server) --------------------------------------------

    def exact_signature(
        self,
        ordered: Sequence[ClusterResources],
        *,
        tenant: Optional[str] = None,
    ) -> Optional[tuple]:
        """The per-tenant decision-memo key for an ordered pool."""
        if self.cache is None:
            return None
        return self.cache.availability_signature(
            ordered,
            search=EXACT_SEARCH_MODE,
            startup_ms=self.startup_ms,
            tenant=tenant,
        )

    def cached_exact(
        self,
        ordered: Sequence[ClusterResources],
        *,
        tenant: Optional[str] = None,
    ) -> Optional[PartitionDecision]:
        """This tenant's memoized exact decision for the pool, if any."""
        signature = self.exact_signature(ordered, tenant=tenant)
        if signature is None:
            return None
        hit = self.cache.decision(signature)  # type: ignore[union-attr]
        if hit is None:
            return None
        self._m_exact_hits.inc()
        return replace(hit, evaluations=0, trace=())

    def remember_exact(
        self,
        ordered: Sequence[ClusterResources],
        decision: PartitionDecision,
        *,
        tenant: Optional[str] = None,
    ) -> None:
        """Memoize an exact decision under ``tenant``'s signature.

        The request batcher uses this to fan one fresh search out to every
        tenant that asked the identical pool in the same tick: the value is
        a pure function of the pool, but each tenant gets (only) its own
        memo entry.
        """
        signature = self.exact_signature(ordered, tenant=tenant)
        if signature is not None:
            self.cache.store_decision(signature, decision)  # type: ignore[union-attr]

    def decide_exact(
        self,
        resources: Sequence[ClusterResources],
        *,
        tenant: Optional[str] = None,
    ) -> PartitionDecision:
        """The unrestricted optimum via the exact array engine.

        Identical to :func:`~repro.partition.heuristic.exhaustive_partition`
        on the same inputs; with a cache attached, repeat pools are
        answered from the per-tenant decision memo (zero evaluations) and
        shrunk pools from the shared engine's incremental frontier.
        """
        ordered = self.order(resources)
        if not ordered:
            raise PartitionError("no available processors in any cluster")
        hit = self.cached_exact(ordered, tenant=tenant)
        if hit is not None:
            return hit
        if self.cache is not None:
            self.cache.searches += 1
        self._m_exact_searches.inc()
        decision = exhaustive_partition(
            self.computation,
            ordered,
            self.cost_db,
            startup_ms=self.startup_ms,
            cache=self.cache,
            metrics=self.metrics,
        )
        self.remember_exact(ordered, decision, tenant=tenant)
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cached = "cached" if self.cache is not None else "uncached"
        return f"<DecisionEngine startup_ms={self.startup_ms:g} {cached}>"
