"""Warm-start state for repeated repartition searches.

A fault-tolerant runtime re-runs the §5 heuristic every time the processor
pool changes — but consecutive decisions search nearly the same space: a
single node loss removes one count from one cluster's range and leaves every
``T_c(counts)`` value it probes unchanged.  :class:`SearchCache` carries two
memos across :func:`~repro.partition.heuristic.partition` calls:

* an **estimate memo**: ``T_c`` keyed by the per-cluster counts tuple,
  namespaced by what the value actually depends on.  Under the paper's
  threshold availability policy (``load_adjusted=False``) an estimate
  depends only on the ordered cluster identities and the counts — *not* on
  which specific nodes are up — so estimates survive node loss and the
  post-failure search re-evaluates only counts it never probed before.
  Under load adjustment the namespace includes every node's (id, load), so
  stale rates can never be served;
* a **decision memo** keyed by the full availability signature: an epoch
  whose pool is identical to a previously-decided one returns that decision
  with zero fresh evaluations.  The signature optionally carries a
  **tenant** label (the decision server's isolation boundary): estimates
  are pure functions of the pool and stay shared across tenants, but one
  tenant's memoized decision is never served from another tenant's key.

It also carries the **engine slot** for the exact search
(:mod:`repro.partition.arrayengine`): one lowered
:class:`~repro.partition.arrayengine.ArraySearchEngine` — workspace,
equivalence-class plan and incremental frontier — per estimate namespace,
so a repeat exhaustive search under shrunk availability is answered from
the frontier in O(delta) instead of re-streaming the space.

Both memos are exact: a warm-started search returns the *identical*
decision a cold search would (same config, same vector), only with fewer
fresh ``T_c`` evaluations.  One cache instance is scoped to one
(computation, cost database) pair — callers must not share it across
different computations or refitted databases.

**Bounding.**  ``max_entries`` turns the cache into a global LRU: estimate
rows, decisions, and array-engine slots share one recency order, and the
oldest entry is dropped once the total exceeds the bound.  Eviction can
never change a decision — the memos are exact, so losing an entry only
costs the fresh evaluations needed to recompute it.  Long-running
processes (the decision server, a supervisor crossing many epochs) should
always set a bound; ``None`` keeps the historical unbounded behaviour.
Evictions and the live entry count are observable as the host-domain
``cache.evictions`` counter and ``cache.entries`` gauge when a metrics
registry is supplied.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

from repro.telemetry import NULL_REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.partition.available import ClusterResources
    from repro.partition.estimator import CycleEstimate
    from repro.partition.heuristic import PartitionDecision

__all__ = ["SearchCache"]


def _cluster_key(res: "ClusterResources") -> tuple:
    """What one cluster's estimates depend on.

    Threshold policy: rates come from the (homogeneous) spec, so the name
    is enough.  Load-adjusted policy: effective rates depend on exactly
    which nodes are available and how loaded they are.
    """
    if not res.load_adjusted:
        return (res.name, False)
    return (
        res.name,
        True,
        tuple((proc.proc_id, proc.load) for proc in res.available),
    )


class _BoundedMemo(dict):
    """An estimate-memo dict that reports activity back to its cache.

    :class:`~repro.partition.estimator.CycleEstimator` holds a direct
    reference to the injected memo and mutates it through ``get`` /
    ``__setitem__`` only, so overriding exactly those two keeps every
    existing injection site working while the cache tracks recency.
    """

    __slots__ = ("_cache", "_namespace")

    def __init__(self, cache: "SearchCache", namespace: tuple) -> None:
        super().__init__()
        self._cache = cache
        self._namespace = namespace

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is not default and self._cache._bounded:
            self._cache._touch(("est", self._namespace, key))
        return value

    def __setitem__(self, key, value) -> None:
        fresh = key not in self
        dict.__setitem__(self, key, value)
        if fresh:
            self._cache._added(("est", self._namespace, key))
        elif self._cache._bounded:
            self._cache._touch(("est", self._namespace, key))


class SearchCache:
    """Cross-epoch warm-start memos for one computation's partition searches.

    ``topology_fingerprint`` scopes every memo to one logical-cluster
    grouping (see :meth:`LogicalTopology.fingerprint
    <repro.hardware.topology.LogicalTopology.fingerprint>`): wide-area
    deployments re-infer their grouping as measurements drift, and two
    groupings can present identical cluster *names* with different member
    sets — a name-keyed memo would happily serve the old grouping's
    decision.  With the fingerprint folded into every key, re-inference
    lands in fresh namespaces instead.  ``None`` (the default) keeps the
    LAN behaviour, where cluster identity is administrative and stable.

    ``max_entries`` bounds the total entry count (estimate rows +
    decisions + array-engine slots) with LRU eviction; ``None`` keeps the
    cache unbounded.  ``metrics`` (a
    :class:`~repro.telemetry.MetricsRegistry`) exposes ``cache.entries``
    and ``cache.evictions`` in the host domain.
    """

    def __init__(
        self,
        *,
        topology_fingerprint: Optional[str] = None,
        max_entries: Optional[int] = None,
        metrics=None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.topology_fingerprint = topology_fingerprint
        self.max_entries = max_entries
        self._estimates: dict[tuple, _BoundedMemo] = {}
        self._decisions: dict[tuple, "PartitionDecision"] = {}
        self._array_engines: dict[tuple, object] = {}
        #: One recency order across all entry kinds; maintained only when
        #: the cache is bounded (the unbounded cache skips the bookkeeping
        #: so the estimate memo's hot-path ``get`` stays one dict hit).
        self._lru: OrderedDict[tuple, None] = OrderedDict()
        #: Decisions served without any search at all.
        self.decision_hits = 0
        #: Searches that ran (cold or estimate-warm).
        self.searches = 0
        #: Entries dropped by the LRU bound.
        self.evictions = 0
        self._entry_count = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_evictions = registry.counter(
            "cache.evictions",
            domain="host",
            help="warm-start cache entries dropped by the LRU bound",
        )
        self._m_entries = registry.gauge(
            "cache.entries",
            domain="host",
            help="live warm-start cache entries (estimates+decisions+engines)",
        )

    # -- bounding ----------------------------------------------------------------

    @property
    def _bounded(self) -> bool:
        return self.max_entries is not None

    @property
    def entries(self) -> int:
        """Live entry count across all three memo kinds."""
        return self._entry_count

    def _touch(self, entry: tuple) -> None:
        if entry in self._lru:
            self._lru.move_to_end(entry)

    def _added(self, entry: tuple) -> None:
        self._entry_count += 1
        if not self._bounded:
            self._m_entries.set(self._entry_count)
            return
        self._lru[entry] = None
        self._lru.move_to_end(entry)
        while len(self._lru) > self.max_entries:  # type: ignore[operator]
            victim, _ = self._lru.popitem(last=False)
            self._drop(victim)
            self._entry_count -= 1
            self.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(self._entry_count)

    def _drop(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "est":
            _, namespace, key = entry
            memo = self._estimates.get(namespace)
            if memo is not None:
                dict.pop(memo, key, None)
        elif kind == "dec":
            self._decisions.pop(entry[1], None)
        else:
            self._array_engines.pop(entry[1], None)

    # -- keys --------------------------------------------------------------------

    def estimate_namespace(self, ordered: Sequence["ClusterResources"]) -> tuple:
        """The estimate memo's namespace: everything ``T_c`` depends on
        besides the counts tuple."""
        return (self.topology_fingerprint,) + tuple(
            _cluster_key(res) for res in ordered
        )

    def availability_signature(
        self,
        ordered: Sequence["ClusterResources"],
        *,
        search: str,
        startup_ms: float,
        tenant: Optional[str] = None,
    ) -> tuple:
        """The decision memo's key: the exact schedulable pool + search mode.

        ``tenant`` is the decision server's isolation boundary: two tenants
        submitting the *same* pool get distinct signatures, so one tenant's
        memoized decision is never served from another tenant's key (the
        shared estimate memo, a pure function of the pool, still lets them
        reuse each other's search work).
        """
        pool = tuple(
            (
                res.name,
                res.load_adjusted,
                tuple((proc.proc_id, proc.load) for proc in res.available),
            )
            for res in ordered
        )
        return (self.topology_fingerprint, tenant, pool, search, startup_ms)

    # -- memo access -------------------------------------------------------------

    def estimator_memo(
        self, ordered: Sequence["ClusterResources"]
    ) -> dict[tuple[int, ...], "CycleEstimate"]:
        """The shared estimate dict to inject into a
        :class:`~repro.partition.estimator.CycleEstimator`."""
        namespace = self.estimate_namespace(ordered)
        memo = self._estimates.get(namespace)
        if memo is None:
            memo = _BoundedMemo(self, namespace)
            self._estimates[namespace] = memo
        return memo

    def decision(self, signature: tuple) -> Optional["PartitionDecision"]:
        """A previously-stored decision for this exact pool, if any."""
        hit = self._decisions.get(signature)
        if hit is not None:
            self.decision_hits += 1
            if self._bounded:
                self._touch(("dec", signature))
        return hit

    def store_decision(self, signature: tuple, decision: "PartitionDecision") -> None:
        fresh = signature not in self._decisions
        self._decisions[signature] = decision
        if fresh:
            self._added(("dec", signature))
        elif self._bounded:
            self._touch(("dec", signature))

    def array_engine(self, namespace: tuple):
        """The cached streamed-oracle engine for this namespace, if any."""
        hit = self._array_engines.get(namespace)
        if hit is not None and self._bounded:
            self._touch(("eng", namespace))
        return hit

    def store_array_engine(self, namespace: tuple, engine: object) -> None:
        """Keep a lowered array engine (workspace + frontier) for reuse.

        The namespace is the estimate namespace: anything that would change
        a ``T_c`` value (cluster identity, load-adjusted rates) lands the
        caller in a different slot, so a cached engine's folded
        coefficients and frontier scores are always still exact."""
        fresh = namespace not in self._array_engines
        self._array_engines[namespace] = engine
        if fresh:
            self._added(("eng", namespace))
        elif self._bounded:
            self._touch(("eng", namespace))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        estimates = sum(len(m) for m in self._estimates.values())
        bound = self.max_entries if self.max_entries is not None else "unbounded"
        return (
            f"<SearchCache {estimates} estimates in {len(self._estimates)} "
            f"namespaces, {len(self._decisions)} decisions, "
            f"{self.decision_hits} decision hits, "
            f"{self.evictions} evictions, bound={bound}>"
        )
