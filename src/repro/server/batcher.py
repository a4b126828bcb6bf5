"""Request batching: answer repeats at once, coalesce one tick's misses.

A request its tenant asked before is answered from that tenant's decision
memo as soon as the server has decoded it (:meth:`Coalescer.memo_reply`):
it waits for no window and no tick.  Only the misses wait.  The first miss
to find the pending list empty arms the tick; every miss arriving within
one batch window of it joins, and the whole tick goes to
:meth:`Coalescer.run`.  Coalescing happens at two levels:

* **identical requests** — same workload, same restricted pool — are
  served by *one* engine evaluation fanned out to every requester,
  whatever their tenant (the decision is a pure function of those two
  inputs; only the decision *memo* stays per-tenant, via
  :meth:`DecisionEngine.remember_exact
  <repro.partition.engine.DecisionEngine.remember_exact>`);
* **compatible requests** — same workload, different pools — run through
  the *same* cached :class:`~repro.partition.arrayengine.ArraySearchEngine`
  (one lowering and collapse plan), so a batch of N distinct shrinking
  availabilities pays for N searches but for one lowering and one class
  detection.

Failures stay inside their request group: an unservable pool or workload
is a ``bad-request`` reply, any other exception (a search that runs out
of memory, a bug) an ``internal`` reply, and the tick's other groups are
served as usual.  The memo path answers hits only: a miss, a workload
with no engine yet and a pool with no processors all go to the tick,
which maps each failure to its typed reply.  So a memo is read in one
place, at decode; a tick serves misses only.

The coalescing ratio the bench reports is
``requests / fresh searches`` — how many answers each streamed search
paid for, memo hits included.

:class:`EnginePool` owns one :class:`~repro.partition.engine.DecisionEngine`
(and its bounded :class:`~repro.partition.warmstart.SearchCache`) per
workload, itself LRU-bounded (:data:`MAX_ENGINES`) so a tenant
enumerating problem sizes cannot hold unbounded lowered engines alive.

This module is deliberately asyncio-free: the server calls
:meth:`Coalescer.memo_reply` at decode and :meth:`Coalescer.run` from its
tick callback, and the unit tests call both directly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

__all__ = ["MAX_ENGINES", "BatchItem", "BatchStats", "Coalescer", "EnginePool"]

#: Lowered workload engines an :class:`EnginePool` keeps alive (LRU).
MAX_ENGINES = 32


class EnginePool:
    """LRU-bounded ``workload -> DecisionEngine`` map.

    Every engine gets its own :class:`SearchCache` (caches are scoped to
    one computation + cost database) that is *shared across tenants*:
    lowered array engines are pure functions of the pool, so tenants
    reuse each other's lowerings, while decisions stay under per-tenant
    signatures.
    """

    def __init__(
        self,
        cost_db,
        *,
        cache_entries: Optional[int] = 4096,
        metrics=None,
    ) -> None:
        self.cost_db = cost_db
        self.cache_entries = cache_entries
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

    def lookup(self, workload: WorkloadSpec) -> Optional[DecisionEngine]:
        """The workload's engine, now the most recently used, or ``None``;
        never builds one."""
        key = workload.key()
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
        return engine

    def engine_for(self, workload: WorkloadSpec) -> DecisionEngine:
        engine = self.lookup(workload)
        if engine is not None:
            return engine
        computation = workload.build()
        cache = SearchCache(max_entries=self.cache_entries, metrics=self.metrics)
        engine = DecisionEngine(
            computation, self.cost_db, cache=cache, metrics=self.metrics
        )
        self._engines[workload.key()] = engine
        self._m_built.inc()
        while len(self._engines) > MAX_ENGINES:
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
    searches: int = 0  #: tick groups, each served by one ``decide_exact``
    #: requests answered at decode from their own tenant's decision memo
    memo_hits: int = 0
    fanned_out: int = 0  #: requests beyond the first in their group
    errors: int = 0
    batches: int = 0

    @property
    def coalesce_ratio(self) -> float:
        """Requests served per fresh search, or all of them if none ran (>= 1)."""
        served = self.requests - self.errors
        if served <= 0:
            return 1.0
        if self.searches == 0:
            return float(served)
        return served / self.searches


class Coalescer:
    """Serves admitted requests through the engine pool: a memo hit at
    once, the misses one tick at a time."""

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
            help="requests answered at decode from a tenant decision memo",
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

    def memo_reply(self, item: BatchItem) -> Optional[dict]:
        """The reply to ``item`` from its own tenant's decision memo, or
        ``None`` when the request must wait for a tick: its workload has
        no engine yet, its pool selects no processors, or the memo has no
        entry for it.

        This is the one place a memo answers a request; a hit is counted
        as a request and a memo hit, outside any tick.
        """
        engine = self.pool.lookup(item.request.workload)
        if engine is None:
            return None
        ordered = engine.order(item.resources)
        if not ordered:
            return None
        decision = engine.cached_exact(ordered, tenant=item.request.tenant)
        if decision is None:
            return None
        self.stats.requests += 1
        self.stats.memo_hits += 1
        self._m_requests.inc()
        self._m_memo.inc()
        return decision_reply(
            item.request, decision, served_from="memo", batch_size=1
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
        self._m_batches.inc()
        self._m_batch_size.observe(len(items))
        groups: "OrderedDict[tuple, list[BatchItem]]" = OrderedDict()
        for item in items:
            key = (item.request.workload.key(), item.pool_key())
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
        try:
            engine = self.pool.engine_for(first.request.workload)
            ordered = engine.order(first.resources)
            if not ordered:
                raise ServeError("availability selects no processors at all")
            decision = engine.decide_exact(ordered, tenant=first.request.tenant)
            self.stats.searches += 1
            self._m_searches.inc()
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
            if i > 0:
                # ``decide_exact`` stored the first member's memo entry.
                engine.remember_exact(
                    ordered, decision, tenant=item.request.tenant
                )
                self.stats.fanned_out += 1
                self._m_fanout.inc()
            outcomes.append(
                (
                    item,
                    decision_reply(
                        item.request,
                        decision,
                        served_from="batch" if i > 0 else "search",
                        batch_size=len(members),
                    ),
                )
            )
        return outcomes
