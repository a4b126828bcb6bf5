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

Both memos are exact: a memo hit is the value a fresh evaluation would
give, so a search through the cache returns the decision the uncached
search would, only with fewer fresh ``T_c`` evaluations.  (A warm *seed*,
:func:`~repro.partition.heuristic.partition`'s ``warm_start``, is another
matter: it may settle a tie on other counts, with the cold search's
``T_c``.)  One cache instance is scoped to one (computation, cost
database) pair — callers must not share it across different computations
or refitted databases.

**One map.**  Every entry lives in one :class:`~collections.OrderedDict`
keyed ``(kind, key)``: a namespace's whole estimate memo (a plain
``dict``, one entry), each decision, and each lowered engine.  A hit
moves its entry to the end; ``max_entries`` drops the least recently
used entries past the bound.  Eviction can never change a decision — the
memos are exact, so losing an entry only costs the fresh evaluations
needed to recompute it; a search holding an evicted estimate memo keeps
using it.  ``None`` leaves the cache unbounded, as the supervisor's is;
the decision server bounds its caches, which hold decisions and engines
only.  Evictions and the live entry count are observable as the
host-domain ``cache.evictions`` counter and ``cache.entries`` gauge when
a metrics registry is supplied.
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

    ``max_entries`` bounds the entry count (estimate namespaces +
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
        self._bound = max_entries if max_entries is not None else float("inf")
        #: Every entry, keyed ``(kind, key)``, least recently used first.
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        #: Decisions served without any search at all.
        self.decision_hits = 0
        #: Searches that ran (cold or estimate-warm).
        self.searches = 0
        #: Entries dropped by the LRU bound.
        self.evictions = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_evictions = registry.counter(
            "cache.evictions",
            domain="host",
            help="warm-start cache entries dropped by the LRU bound",
        )
        self._m_entries = registry.gauge(
            "cache.entries",
            domain="host",
            help="live warm-start cache entries (estimate memos+decisions+engines)",
        )

    @property
    def entries(self) -> int:
        """Live entry count across all three kinds."""
        return len(self._entries)

    def _get(self, kind: str, key: tuple):
        """The ``kind`` entry under ``key``, now the most recently used, or
        ``None``."""
        value = self._entries.get((kind, key))
        if value is not None:
            self._entries.move_to_end((kind, key))
        return value

    def _put(self, kind: str, key: tuple, value: object) -> None:
        """Store ``value`` as the most recently used entry, then drop the
        least recently used ones past the bound."""
        self._entries[(kind, key)] = value
        self._entries.move_to_end((kind, key))
        while len(self._entries) > self._bound:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))

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
        shared estimate memos and engines, pure functions of the pool,
        still let them reuse each other's search work).
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
        memo = self._get("est", namespace)
        if memo is None:
            memo = {}
            self._put("est", namespace, memo)
        return memo

    def decision(self, signature: tuple) -> Optional["PartitionDecision"]:
        """A previously-stored decision for this exact pool, if any."""
        hit = self._get("dec", signature)
        if hit is not None:
            self.decision_hits += 1
        return hit

    def store_decision(self, signature: tuple, decision: "PartitionDecision") -> None:
        self._put("dec", signature, decision)

    def array_engine(self, namespace: tuple):
        """The cached streamed-oracle engine for this namespace, if any."""
        return self._get("eng", namespace)

    def store_array_engine(self, namespace: tuple, engine: object) -> None:
        """Keep a lowered array engine (workspace + frontier) for reuse.

        The namespace is the estimate namespace: anything that would change
        a ``T_c`` value (cluster identity, load-adjusted rates) lands the
        caller in a different slot, so a cached engine's folded
        coefficients and frontier scores are always still exact."""
        self._put("eng", namespace, engine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SearchCache {self.entries} entries, "
            f"{self.decision_hits} decision hits, "
            f"{self.evictions} evictions, bound={self._bound}>"
        )
