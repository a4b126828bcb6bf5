"""The cost-function database built by the offline benchmarking phase.

:class:`CostDatabase` stores the fitted per-(cluster, topology) Eq 1
functions plus the per-(cluster, cluster) router and coercion penalties, and
implements the paper's composition rules:

* within a cluster: ``T_comm[C_i, τ](b, p)`` (Eq 1);
* across clusters: the communicating cluster sees ``p + 1`` stations (the
  router counts as one more contender) plus ``T_router`` and ``T_coerce``;
* overall (Eq 2): the max over participating clusters for non
  bandwidth-limited topologies; bandwidth-limited ones pool all processors.

:class:`TopologyComposition` evaluates Eq 2 for one ``(topology, b)``, so a
search that probes many configurations of one phase sets it up once;
:meth:`CostDatabase.crossing_matrices` lays every pair's crossing penalty
out as arrays for the array engine.  :func:`build_cost_database` runs the
whole offline phase on a workbench.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.fitting import fit_comm_cost, fit_linear_byte_cost
from repro.benchmarking.microbench import (
    Workbench,
    measure_crossing_penalty,
    sweep_cluster,
)
from repro.errors import FittingError
from repro.spmd.topology import Topology

__all__ = ["CostDatabase", "build_cost_database"]


@dataclass
class CostDatabase:
    """Fitted communication cost functions for a network."""

    comm: dict[tuple[str, str], CommCostFunction] = field(default_factory=dict)
    router: dict[tuple[str, str], LinearByteCost] = field(default_factory=dict)
    coerce: dict[tuple[str, str], LinearByteCost] = field(default_factory=dict)
    #: Optional uniform router penalty applied to every cluster pair with
    #: no explicit ``router`` entry — the wide-area case, where thousands
    #: of sites share one backbone cost and per-pair tables would need
    #: O(K²) entries.  Explicit pairs always win over the default.
    router_default: Optional[LinearByteCost] = None
    #: Whether a multi-cluster configuration charges each cluster one extra
    #: contending station for the router (§3's ``p + 1`` form).  The paper's
    #: §6 worked composition omits the extra station; databases replicating
    #: the published constants set this to False.
    router_extra_station: bool = True

    def __post_init__(self) -> None:
        self._coeff_cache: dict[tuple[str, str], tuple] = {}

    def _invalidate_caches(self) -> None:
        self._coeff_cache.clear()

    # -- registration ----------------------------------------------------------

    def add_comm(self, fn: CommCostFunction) -> None:
        """Register an Eq 1 function for (cluster, topology)."""
        self.comm[(fn.cluster, fn.topology)] = fn
        self._invalidate_caches()

    def add_router(self, fn: LinearByteCost) -> None:
        """Register a router penalty for an ordered cluster pair."""
        self.router[(fn.src, fn.dst)] = fn
        self._invalidate_caches()

    def add_coerce(self, fn: LinearByteCost) -> None:
        """Register a coercion penalty for an ordered cluster pair."""
        self.coerce[(fn.src, fn.dst)] = fn
        self._invalidate_caches()

    # -- lookup ------------------------------------------------------------------

    def comm_coefficients(
        self, cluster: str, topology: Topology | str
    ) -> tuple[float, float, float, float, bool]:
        """The precompiled ``(c1, c2, c3, c4, abs_quirk)`` tuple for Eq 1.

        Cached so hot loops (and the vectorized fast path) skip the dict
        lookup + dataclass attribute walk per probe.
        """
        key = (cluster, str(topology))
        cached = self._coeff_cache.get(key)
        if cached is None:
            fn = self.comm.get(key)
            if fn is None:
                raise FittingError(
                    f"no fitted cost function for cluster {cluster!r}, "
                    f"topology {str(topology)!r}"
                )
            cached = (fn.c1, fn.c2, fn.c3, fn.c4, fn.abs_bandwidth_quirk)
            self._coeff_cache[key] = cached
        return cached

    def comm_cost(self, cluster: str, topology: Topology | str, b: float, p: int) -> float:
        """``T_comm[C_i, τ](b, p)`` from the fitted function."""
        c1, c2, c3, c4, quirk = self.comm_coefficients(cluster, topology)
        if p <= 1:
            return 0.0
        if b < 0:
            raise ValueError(f"message size must be non-negative, got {b}")
        per_byte = c3 + c4 * p
        if quirk:
            per_byte = abs(per_byte)
        return c1 + c2 * p + b * per_byte

    def set_router_default(self, fn: Optional[LinearByteCost]) -> None:
        """Set (or clear) the uniform fallback router penalty."""
        self.router_default = fn
        self._invalidate_caches()

    def _pair_cost(
        self, table: dict[tuple[str, str], LinearByteCost], a: str, b_name: str
    ) -> Optional[LinearByteCost]:
        fn = table.get((a, b_name)) or table.get((b_name, a))
        if fn is None and table is self.router:
            return self.router_default
        return fn

    def router_cost(self, cluster_a: str, cluster_b: str, b: float) -> float:
        """``T_router[C_i, C_j](b)``; 0 within a cluster."""
        if cluster_a == cluster_b:
            return 0.0
        fn = self._pair_cost(self.router, cluster_a, cluster_b)
        if fn is None:
            raise FittingError(
                f"no fitted router cost for clusters {cluster_a!r}/{cluster_b!r}"
            )
        return fn.evaluate(b)

    def coerce_cost(self, cluster_a: str, cluster_b: str, b: float) -> float:
        """``T_coerce[C_i, C_j](b)``; 0 within a cluster or if never fitted.

        Homogeneous-format networks (the paper's all-Sun4 testbed) simply
        have no coercion entries, and the cost is zero.
        """
        if cluster_a == cluster_b:
            return 0.0
        fn = self._pair_cost(self.coerce, cluster_a, cluster_b)
        return fn.evaluate(b) if fn is not None else 0.0

    def crossing_matrices(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The router + coercion penalty between every two of ``names``, as
        symmetric ``(K, K)`` ``(intercept_ms, slope_ms_per_byte)`` matrices.

        Built from the tables' entries, not one lookup per pair: the
        router matrices start at :attr:`router_default` (NaN without one),
        the coercion ones at 0.0, explicit entries between two of ``names``
        are scattered over them with :meth:`_pair_cost`'s precedence, and
        each cell is ``router + coerce`` in one IEEE addition.  NaN marks a
        pair with no router cost, and the diagonal.
        """
        pos = {name: k for k, name in enumerate(names)}
        if len(pos) != len(names):
            raise ValueError(f"cluster names must be unique: {list(names)}")
        default = self.router_default
        fill = (np.nan, np.nan) if default is None else (
            default.intercept_ms, default.slope_ms_per_byte
        )
        total = _pair_fields(self.router, pos, fill) + _pair_fields(self.coerce, pos, (0.0, 0.0))
        total.reshape(2, -1)[:, :: len(names) + 1] = np.nan
        return total[0], total[1]

    # -- composition (paper §3, Eq 2) -----------------------------------------------

    def topology_cost(
        self,
        topology: Topology | str,
        b: float,
        processors_per_cluster: dict[str, int],
    ) -> float:
        """``T_comm[τ]`` for a multi-cluster configuration.

        Non bandwidth-limited topologies: each participating cluster ``C_i``
        sees its own ``p_i`` (plus one extra contending station for the
        router when other clusters participate); the overall cost is the max
        over clusters plus the router (and coercion) penalty on the crossing
        messages.  Bandwidth-limited topologies (broadcast) are charged at
        the *total* processor count on the dominant cluster's function.
        """
        active = [(c, p) for c, p in processors_per_cluster.items() if p > 0]
        if not active:
            return 0.0
        names, counts = zip(*active)
        return TopologyComposition(self, topology, b).cost(names, counts)

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the database (e.g. to cache the offline phase)."""
        payload = {
            "router_extra_station": self.router_extra_station,
            "comm": [fn.as_dict() for fn in self.comm.values()],
            "router": [fn.as_dict() for fn in self.router.values()],
            "coerce": [fn.as_dict() for fn in self.coerce.values()],
        }
        if self.router_default is not None:
            payload["router_default"] = self.router_default.as_dict()
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CostDatabase":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        db = cls(router_extra_station=data.get("router_extra_station", True))
        for item in data.get("comm", []):
            db.add_comm(CommCostFunction.from_dict(item))
        for item in data.get("router", []):
            db.add_router(LinearByteCost.from_dict(item))
        for item in data.get("coerce", []):
            db.add_coerce(LinearByteCost.from_dict(item))
        if "router_default" in data:
            db.set_router_default(LinearByteCost.from_dict(data["router_default"]))
        return db


def _pair_fields(
    table: dict[tuple[str, str], LinearByteCost],
    pos: dict[str, int],
    fill: tuple[float, float],
) -> np.ndarray:
    """``(intercept_ms, slope_ms_per_byte)`` of ``table``'s entries between
    two distinct clusters of ``pos``, as a ``(2, K, K)`` stack of symmetric
    matrices holding ``fill`` elsewhere.  A forward entry (source earlier
    in ``pos``) wins over the reverse one, as ``get((a, b)) or get((b,
    a))`` does."""
    cells: dict[tuple[int, int], LinearByteCost] = {}
    for (src, dst), fn in table.items():
        i, j = pos.get(src), pos.get(dst)
        if i is None or j is None or i == j:
            continue
        if i < j:
            cells[i, j] = fn
        else:
            cells.setdefault((j, i), fn)
    k_n = len(pos)
    fields = np.empty((2, k_n, k_n))
    fields[0], fields[1] = fill
    if cells:
        rows, cols = np.array(list(cells), dtype=np.intp).T
        values = np.array(
            [(fn.intercept_ms, fn.slope_ms_per_byte) for fn in cells.values()], dtype=float
        ).T
        fields[:, rows, cols] = values
        fields[:, cols, rows] = values
    return fields


class TopologyComposition:
    """Eq 2 for one ``(topology, b)`` of one database.

    A search keeps one per communication phase: the topology is parsed and
    its table key formed once, and each probe passes the names and counts
    of its active clusters in configuration order.  A database with a
    backbone router and no per-pair router or coercion entry (the
    wide-area one) prices every crossing pair alike, so its crossing takes
    one step instead of a walk over every pair.  The §5 heuristic's prefix
    line (:class:`~repro.partition.estimator.ProbeLine`) composes the same
    terms, :meth:`eq1_routed` and :meth:`crossing`, folding the Eq 1 ones
    once per cluster.
    """

    __slots__ = ("db", "b", "_key", "pooled")

    def __init__(self, db: CostDatabase, topology: Topology | str, b: float) -> None:
        topo = topology if isinstance(topology, Topology) else Topology(topology)
        self.db = db
        self.b = b
        #: The comm-table key: the same lookups, without the enum's str().
        self._key = str(topo)
        #: Bandwidth-limited: every cluster is charged at the total count.
        self.pooled = topo.bandwidth_limited

    def eq1(self, name: str, p: int) -> float:
        """Eq 1 of cluster ``name`` at ``p`` stations."""
        return self.db.comm_cost(name, self._key, self.b, p)

    def eq1_routed(self, name: str, p: int) -> float:
        """Eq 1 of cluster ``name`` holding ``p`` processors of a
        multi-cluster configuration (not bandwidth-limited)."""
        # One more contending station for the router; a cluster whose
        # lone processor communicates across the router still sees a
        # 2-station pattern (its partner arrives via the router).
        extra = 1 if self.db.router_extra_station else 0
        return self.eq1(name, max(p + extra, 2))

    def cost(self, names: Sequence[str], counts: Sequence[int]) -> float:
        """``T_comm[τ]`` for distinct active clusters ``names`` holding
        ``counts`` processors each (all positive)."""
        total = sum(counts)
        if total <= 1:
            return 0.0
        if len(names) == 1:
            return self.eq1(names[0], counts[0])
        if self.pooled:
            # Offered load scales with the total processor count regardless
            # of segment placement (paper: broadcast gains nothing from
            # extra segments).
            per_cluster = [self.eq1(c, total) for c in names]
        else:
            per_cluster = [self.eq1_routed(c, p) for c, p in zip(names, counts)]
        return max(per_cluster) + self.crossing(names)

    def crossing(self, names: Sequence[str]) -> float:
        """The max router+coercion penalty over every pair of ``names``;
        raises for the first pair, in loop order, with no router cost."""
        db, b = self.db, self.b
        if not db.router and not db.coerce and db.router_default is not None:
            # Every pair costs the backbone router alone, and folding
            # equal costs from 0.0 is one step.
            return max(0.0, db.router_default.evaluate(b) + 0.0)
        crossing = 0.0
        for i, a in enumerate(names):
            for c in names[i + 1 :]:
                crossing = max(crossing, db.router_cost(a, c, b) + db.coerce_cost(a, c, b))
        return crossing


def build_cost_database(
    workbench: Workbench,
    clusters: Sequence[str],
    topologies: Sequence[Topology],
    *,
    p_values: Optional[Sequence[int]] = None,
    b_values: Sequence[int] = (64, 256, 1024, 2400, 4800),
    cycles: int = 5,
    include_router: bool = True,
    include_coercion: bool = False,
) -> CostDatabase:
    """Run the full offline benchmarking phase and fit every cost function.

    ``p_values`` defaults to ``2..cluster size`` per cluster.  Router
    penalties are measured for every cluster pair when ``include_router``;
    ``include_coercion`` additionally fits ``T_coerce`` for pairs whose
    data formats differ (see
    :func:`repro.benchmarking.procbench.benchmark_coercion_cost`).
    """
    db = CostDatabase()
    probe_net = workbench.network_factory()
    for cluster in clusters:
        size = len(probe_net.cluster(cluster))
        if p_values is not None:
            # Clamp the requested sweep to this cluster's actual size.
            ps = [p for p in p_values if p <= size]
        else:
            ps = list(range(2, size + 1))
        if len(ps) < 2:
            raise FittingError(
                f"cluster {cluster!r} (size {size}) leaves fewer than two "
                f"usable p values from {list(p_values or ())}"
            )
        for topology in topologies:
            samples = sweep_cluster(
                workbench, cluster, topology, ps, b_values, cycles=cycles
            )
            fn = fit_comm_cost(
                cluster, str(topology), [(s.p, s.b, s.t_ms) for s in samples]
            )
            db.add_comm(fn)
    if include_coercion:
        from repro.benchmarking.procbench import benchmark_coercion_cost

        for i, a in enumerate(clusters):
            for b_name in clusters[i + 1 :]:
                if probe_net.cluster(a).spec.data_format != probe_net.cluster(
                    b_name
                ).spec.data_format:
                    db.add_coerce(
                        benchmark_coercion_cost(workbench, a, b_name, b_values)
                    )
    if include_router:
        for i, a in enumerate(clusters):
            for b_name in clusters[i + 1 :]:
                penalty = measure_crossing_penalty(
                    workbench, a, b_name, b_values, cycles=cycles
                )
                # The end-to-end crossing measurement includes any coercion
                # the receiver paid; with a separate T_coerce fitted, remove
                # its share so router + coerce is not double counted when
                # topology_cost later sums both.
                adjusted = [
                    (b, t - db.coerce_cost(a, b_name, b)) for b, t in penalty
                ]
                db.add_router(fit_linear_byte_cost(a, b_name, "router", adjusted))
    return db
