"""Request batching: coalesce one tick's compatible requests.

The server collects requests for one batch window, then hands the whole
tick to :class:`Coalescer.run`.  Coalescing happens at two levels:

* **identical requests** — same workload, same ``startup_ms``, same
  restricted pool — are served by *one* engine evaluation fanned out to
  every requester, whatever their tenant (the decision is a pure function
  of those inputs; only the decision *memo* stays per-tenant, via
  :meth:`DecisionEngine.remember_exact
  <repro.partition.engine.DecisionEngine.remember_exact>`);
* **compatible requests** — same workload, different pools — run through
  the *same* cached :class:`~repro.partition.arrayengine.ArraySearchEngine`
  (one lowering and collapse plan, one incremental frontier), so a batch of N distinct shrinking availabilities costs far
  less than N cold searches.

Failures stay inside their request group: an unservable pool or workload
is a ``bad-request`` reply, any other exception (a search that runs out
of memory, a bug) an ``internal`` reply, and the tick's other groups are
served as usual.

The coalescing ratio the bench reports is
``requests / fresh searches`` — how many answers each streamed search
paid for.

:class:`EnginePool` owns one :class:`~repro.partition.engine.DecisionEngine`
(and its bounded :class:`~repro.partition.warmstart.SearchCache`) per
``(workload, startup_ms)``, itself LRU-bounded so a tenant enumerating
problem sizes cannot hold unbounded lowered engines alive.

This module is deliberately asyncio-free: the server calls :meth:`run`
from its flush task, and the unit tests call it directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServeError
from repro.partition.available import ClusterResources
from repro.partition.engine import DecisionEngine
from repro.partition.warmstart import SearchCache
from repro.server.protocol import (
    ServeRequest,
    WorkloadSpec,
    decision_reply,
    error_reply,
)
from repro.telemetry import NULL_REGISTRY

__all__ = ["BatchItem", "BatchStats", "Coalescer", "EnginePool"]


class EnginePool:
    """LRU-bounded ``(workload, startup_ms) -> DecisionEngine`` map.

    Every engine gets its own :class:`SearchCache` (caches are scoped to
    one computation + cost database) that is *shared across tenants*:
    lowered array engines and their frontiers are pure functions of the
    pool, so tenants reuse each other's search work, while decisions stay
    under per-tenant signatures.
    """

    def __init__(
        self,
        cost_db,
        *,
        topology_fingerprint: Optional[str] = None,
        cache_entries: Optional[int] = 4096,
        max_engines: int = 32,
        metrics=None,
    ) -> None:
        if max_engines < 1:
            raise ValueError(f"max_engines must be >= 1, got {max_engines}")
        self.cost_db = cost_db
        self.topology_fingerprint = topology_fingerprint
        self.cache_entries = cache_entries
        self.max_engines = max_engines
        self.metrics = metrics
        self._engines: OrderedDict[tuple, DecisionEngine] = OrderedDict()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_built = registry.counter(
            "serve.engines.built",
            domain="host",
            help="workload engines lowered (pool misses)",
        )
        self._m_evicted = registry.counter(
            "serve.engines.evicted",
            domain="host",
            help="workload engines dropped by the pool's LRU bound",
        )
        self._m_live = registry.gauge(
            "serve.engines.live", domain="host", help="live workload engines"
        )

    def engine_for(
        self, workload: WorkloadSpec, *, startup_ms: float = 0.0
    ) -> DecisionEngine:
        key = workload.key() + (startup_ms,)
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            return engine
        computation = workload.build()
        cache = SearchCache(
            topology_fingerprint=self.topology_fingerprint,
            max_entries=self.cache_entries,
            metrics=self.metrics,
        )
        engine = DecisionEngine(
            computation,
            self.cost_db,
            startup_ms=startup_ms,
            cache=cache,
            metrics=self.metrics,
        )
        self._engines[key] = engine
        self._m_built.inc()
        while len(self._engines) > self.max_engines:
            self._engines.popitem(last=False)
            self._m_evicted.inc()
        self._m_live.set(len(self._engines))
        return engine

    def __len__(self) -> int:
        return len(self._engines)


@dataclass(frozen=True)
class BatchItem:
    """One admitted request plus its (already validated) restricted pool."""

    request: ServeRequest
    resources: Tuple[ClusterResources, ...]

    def pool_key(self) -> tuple:
        """Tenant-agnostic identity of the restricted pool (order-free)."""
        return tuple(
            sorted(
                (
                    res.name,
                    res.load_adjusted,
                    tuple(proc.proc_id for proc in res.available),
                )
                for res in self.resources
            )
        )


@dataclass
class BatchStats:
    """Plain-int mirror of the ``serve.coalesce.*`` counters."""

    requests: int = 0
    searches: int = 0  #: fresh streamed searches that ran
    memo_hits: int = 0  #: groups answered whole from a tenant decision memo
    fanned_out: int = 0  #: requests beyond the first in their group
    errors: int = 0
    batches: int = 0
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def coalesce_ratio(self) -> float:
        """Requests served per fresh search (>= 1; inf when all memo)."""
        served = self.requests - self.errors
        if served <= 0:
            return 1.0
        if self.searches == 0:
            return float(served)
        return served / self.searches


class Coalescer:
    """Serves one batch of admitted requests through the engine pool."""

    def __init__(self, pool: EnginePool, *, metrics=None) -> None:
        self.pool = pool
        self.stats = BatchStats()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_requests = registry.counter(
            "serve.coalesce.requests",
            domain="host",
            help="requests entering the coalescer",
        )
        self._m_searches = registry.counter(
            "serve.coalesce.searches",
            domain="host",
            help="fresh streamed searches the coalescer ran",
        )
        self._m_memo = registry.counter(
            "serve.coalesce.memo_hits",
            domain="host",
            help="request groups answered from a decision memo",
        )
        self._m_fanout = registry.counter(
            "serve.coalesce.fanout",
            domain="host",
            help="requests served by another request's evaluation",
        )
        self._m_batches = registry.counter(
            "serve.batches", domain="host", help="batch ticks executed"
        )
        self._m_batch_size = registry.histogram(
            "serve.batch_size",
            domain="host",
            help="requests per batch tick",
        )

    def run(self, items: Sequence[BatchItem]) -> list[tuple[BatchItem, dict]]:
        """Serve every item; returns ``(item, reply object)`` pairs.

        Never raises for a single bad request — engine failures become
        typed error replies scoped to the request group that hit them
        (``bad-request`` for an unservable pool or workload, ``internal``
        for anything else), so one group's failure cannot poison the rest
        of the tick.
        """
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(items))
        self._m_batches.inc()
        self._m_batch_size.observe(len(items))
        groups: "OrderedDict[tuple, list[BatchItem]]" = OrderedDict()
        for item in items:
            key = (
                item.request.workload.key(),
                item.request.startup_ms,
                item.pool_key(),
            )
            groups.setdefault(key, []).append(item)
        outcomes: list[tuple[BatchItem, dict]] = []
        for members in groups.values():
            try:
                outcomes.extend(self._serve_group(members))
            except Exception as exc:
                # A server fault (say, a search that ran out of memory)
                # fails its own group, never the rest of the tick.
                self.stats.errors += len(members)
                detail = f"{type(exc).__name__}: {exc}"
                outcomes.extend(
                    (item, error_reply(item.request.id, "internal", detail))
                    for item in members
                )
        self.stats.requests += len(items)
        self._m_requests.inc(len(items))
        return outcomes

    def _serve_group(
        self, members: list[BatchItem]
    ) -> list[tuple[BatchItem, dict]]:
        first = members[0]
        request = first.request
        try:
            engine = self.pool.engine_for(
                request.workload, startup_ms=request.startup_ms
            )
            ordered = engine.order(first.resources)
            if not ordered:
                raise ServeError("availability selects no processors at all")
            # Any member tenant's memo hit answers the whole group.
            decision = None
            source = "memo"
            for item in members:
                decision = engine.cached_exact(
                    ordered, tenant=item.request.tenant
                )
                if decision is not None:
                    break
            if decision is None:
                decision = engine.decide_exact(
                    first.resources, tenant=request.tenant
                )
                source = "search"
                self.stats.searches += 1
                self._m_searches.inc()
            else:
                self.stats.memo_hits += 1
                self._m_memo.inc()
        except ServeError as exc:
            self.stats.errors += len(members)
            return [
                (item, error_reply(item.request.id, exc.kind, str(exc)))
                for item in members
            ]
        except ReproError as exc:
            # Input-driven: the restricted pool admits no valid
            # configuration, or the pool's cost database has no fit for
            # the workload's topology (FittingError).  The tenant's
            # request is unservable *here*, not a server fault.
            self.stats.errors += len(members)
            return [
                (item, error_reply(item.request.id, "bad-request", str(exc)))
                for item in members
            ]
        outcomes = []
        for i, item in enumerate(members):
            engine.remember_exact(
                ordered, decision, tenant=item.request.tenant
            )
            served_from = source if i == 0 else "batch"
            if i > 0:
                self.stats.fanned_out += 1
                self._m_fanout.inc()
            outcomes.append(
                (
                    item,
                    decision_reply(
                        item.request,
                        decision,
                        served_from=served_from,
                        batch_size=len(members),
                    ),
                )
            )
        return outcomes
