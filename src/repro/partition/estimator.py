"""Runtime cost estimation: Eq 4, Eq 5/1, Eq 6 (paper §5).

:class:`CycleEstimator` turns a processor configuration into the per-cycle
elapsed-time estimate ``T_c`` the partitioner minimizes:

* ``T_comp[p_i] = S_i · computational_complexity · A_i``          (Eq 4)
* ``T_comm``     from the fitted topology cost functions           (Eq 1/5)
* ``T_overlap``  = ``min(T_comp, T_comm)`` when the dominant
  communication phase is overlapped with the dominant computation
  phase (the paper's STEN-2 rule), else 0
* ``T_c = T_comp + T_comm − T_overlap``                            (Eq 6)

and ``T_elapsed = I·T_c + T_startup``.  Every ``T_c`` computation counts as
one "recompute of Equations 3 and 6" toward the paper's ``K·log₂P``
overhead claim.

An estimator serves one search, so it keeps what the search's probes
share: it reads each node's rate once, on the first probe that uses the
node, and sets up one
:class:`~repro.benchmarking.database.TopologyComposition` per
communication phase.

:class:`ProbeLine` evaluates the §5 heuristic's probes.  Each of them
saturates the clusters before some ``k``, holds ``p`` nodes of cluster
``k`` and none after it: the first ``m = offset[k] + p`` nodes of the pool
in cluster order.  So a probe is a prefix length, not a configuration.
The line keeps one flat speed array, filled as the rates are read (Eq 4's
share sums its first ``m`` entries), and folds each saturated cluster's
Eq 1 term once, left to right.  It builds no configuration per probe; a
search builds one, for its winner.  Its values are the estimator's, bit
for bit, and it shares the estimator's memo and evaluation count.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Optional, Sequence

import numpy as np

from repro.benchmarking.database import CostDatabase, TopologyComposition
from repro.errors import PartitionError
from repro.model.computation import DataParallelComputation
from repro.model.vector import PartitionVector
from repro.partition.available import ClusterResources
from repro.partition.config import ProcessorConfiguration
from repro.partition.decompose import (
    balanced_partition_vector,
    balanced_shares,
    positive_rates,
)
from repro.units import ops_time_ms

__all__ = ["CycleEstimate", "CycleEstimator", "ProbeLine"]


@dataclass(frozen=True)
class CycleEstimate:
    """The Eq 4-6 breakdown for one processor configuration."""

    t_comp_ms: float
    t_comm_ms: float
    t_overlap_ms: float

    @property
    def t_cycle_ms(self) -> float:
        """Eq 6: ``T_c = T_comp + T_comm − T_overlap``."""
        return self.t_comp_ms + self.t_comm_ms - self.t_overlap_ms


class CycleEstimator:
    """Evaluates ``T_c`` for candidate configurations of one computation."""

    def __init__(
        self,
        computation: DataParallelComputation,
        cost_db: CostDatabase,
        *,
        startup_ms: float = 0.0,
        all_phases: bool = False,
        memo: Optional[dict[tuple[int, ...], CycleEstimate]] = None,
    ) -> None:
        """``all_phases=True`` extends the paper's dominant-phase model:
        every communication phase contributes its own (rounds × topology)
        cost, and the overlap credit applies only to phases annotated as
        overlapped.  The default reproduces the paper exactly.

        ``memo`` injects a shared estimate dictionary (see
        :class:`~repro.partition.warmstart.SearchCache`): estimates found
        there are served without counting an evaluation, so repeated
        searches over overlapping spaces only pay for counts tuples they
        never probed before.  The caller owns the memo's validity — entries
        must have been computed for the same computation, cost database and
        per-cluster rates."""
        self.computation = computation
        self.cost_db = cost_db
        self.startup_ms = startup_ms
        comp_phase = computation.dominant_computation_phase()
        comm_phase = computation.dominant_communication_phase()
        self.op_kind = comp_phase.op_kind
        self.comp_complexity = comp_phase.complexity_value(computation.problem)
        self.comm_phase = comm_phase
        self.comm_bytes = (
            comm_phase.complexity_value(computation.problem) if comm_phase else 0.0
        )
        self.num_pdus = computation.num_pdus_value()
        self.overlapped = computation.overlapped_with_dominant()
        self.all_phases = all_phases
        #: Number of T_c evaluations performed (the paper's overhead metric).
        #: Memo hits — including warm-start hits from an injected memo —
        #: do not count.
        self.evaluations = 0
        self._memo: dict[tuple[int, ...], CycleEstimate] = (
            memo if memo is not None else {}
        )
        #: The pool whose rates ``_rates`` holds, recognised by identity:
        #: a search builds every configuration on one ordered tuple.
        self._pool: Optional[tuple[ClusterResources, ...]] = None
        #: Cluster position → its effective ``S_i``, read so far for the
        #: first ``len(rates)`` nodes.
        self._rates: dict[int, list[float]] = {}
        #: The pool's cluster names, in pool order.
        self._names: tuple[str, ...] = ()
        #: One Eq 2 composition per communication phase, keyed by its name.
        self._eq2: dict[str, TopologyComposition] = {}

    def _bind(self, pool: tuple[ClusterResources, ...]) -> None:
        """Serve ``pool``; a new pool drops what was read from the last one."""
        if pool is not self._pool:
            self._pool, self._rates = pool, {}
            self._names = tuple([res.name for res in pool])

    def _cluster_rates(self, k: int, count: int) -> list[float]:
        """At least the first ``count`` rates of the bound pool's cluster
        ``k``, each node read once."""
        known = self._rates.setdefault(k, [])
        if count > len(known):
            res = self._pool[k]  # type: ignore[index]
            known += [res.rate_of(p, self.op_kind) for p in res.take(count)[len(known) :]]
        return known

    def _config_rates(self, config: ProcessorConfiguration) -> list[float]:
        """Effective ``S_i`` per chosen node, in placement order (what
        :meth:`ProcessorConfiguration.per_processor_rates` reads)."""
        self._bind(config.resources)
        rates: list[float] = []
        for k, count in enumerate(config.counts):
            if count:
                rates += self._cluster_rates(k, count)[:count]
        return rates

    # -- decomposition (Eq 3) ----------------------------------------------------

    def partition_vector(self, config: ProcessorConfiguration) -> PartitionVector:
        """The integer load-balanced partition vector for this configuration."""
        return balanced_partition_vector(self._config_rates(config), self.num_pdus)

    # -- component estimates ---------------------------------------------------------

    def t_comp(self, config: ProcessorConfiguration) -> float:
        """Eq 4 with the real-valued balanced shares (equal on every node)."""
        if config.total < 1:
            raise PartitionError("configuration has no processors")
        rates = self._config_rates(config)
        # The speeds array balanced_shares builds and sums: the same bits,
        # without the other shares.
        return self._eq4(rates[0], float((1.0 / positive_rates(rates)).sum()))

    def _eq4(self, rate: float, speed_sum: float) -> float:
        """Eq 4 on the first node, whose rate is ``rate`` and whose Eq 3
        share is its speed over ``speed_sum``.  Load balanced:
        ``S_i · complexity · A_i`` is the same for all ``i``."""
        share = 1.0 / rate / speed_sum * self.num_pdus
        return ops_time_ms(self.comp_complexity * share, rate)

    def t_comp_with_vector(
        self, config: ProcessorConfiguration, vector: PartitionVector
    ) -> float:
        """Eq 4 under an arbitrary (possibly imbalanced) integer vector.

        Completion is governed by the slowest node: the max over processors.
        Used to cost the equal-decomposition baseline.
        """
        rates = self._config_rates(config)
        if vector.size != len(rates):
            raise PartitionError(
                f"vector has {vector.size} entries for {len(rates)} processors"
            )
        return max(
            ops_time_ms(self.comp_complexity * a, s) for a, s in zip(vector, rates)
        )

    def _composition(
        self, phase, rates: Callable[[], Sequence[float]]
    ) -> TopologyComposition:
        """The phase's Eq 2: one per estimator, or one per probe when the
        phase declares ``per_config_complexity`` (the paper's "b ... may
        depend on A_i" case) and ``b`` comes from the balanced shares of
        ``rates()``."""
        problem = self.computation.problem
        if phase.per_config_complexity is not None:
            shares = balanced_shares(rates(), self.num_pdus)
            b = phase.complexity_for_shares(problem, shares)
            return TopologyComposition(self.cost_db, phase.topology, b)
        eq2 = self._eq2.get(phase.name)
        if eq2 is None:
            b = phase.complexity_value(problem)
            eq2 = self._eq2[phase.name] = TopologyComposition(self.cost_db, phase.topology, b)
        return eq2

    def _phase_comm_cost(self, phase, config: ProcessorConfiguration) -> float:
        """One communication phase's per-cycle cost: rounds x topology cost."""
        eq2 = self._composition(phase, lambda: self._config_rates(config))
        rounds = phase.rounds_value(self.computation.problem, config.total)
        self._bind(config.resources)
        counts = config.counts
        names = compress(self._names, counts)
        return rounds * eq2.cost(tuple(names), tuple(filter(None, counts)))

    def t_comm(self, config: ProcessorConfiguration) -> float:
        """Eq 5 for the dominant phase — or, with ``all_phases``, the sum of
        every communication phase's cost."""
        if self.comm_phase is None or config.total <= 1:
            return 0.0
        if not self.all_phases:
            return self._phase_comm_cost(self.comm_phase, config)
        return sum(
            self._phase_comm_cost(phase, config)
            for phase in self.computation.communication_phases
        )

    def _comm_breakdown(
        self, total: int, phase_cost: Callable[..., float]
    ) -> tuple[float, float]:
        """``(T_comm, overlappable portion)`` of ``total`` processors in a
        single pass, one ``phase_cost(phase)`` per phase.

        Each phase's cost is computed exactly once — the overlappable share
        reuses it instead of re-walking the topology composition.
        """
        if self.comm_phase is None or total <= 1:
            return 0.0, 0.0
        if not self.all_phases:
            t_comm = phase_cost(self.comm_phase)
            return t_comm, (t_comm if self.overlapped else 0.0)
        t_comm = 0.0
        overlappable = 0.0
        for phase in self.computation.communication_phases:
            cost = phase_cost(phase)
            t_comm += cost
            if phase.overlap is not None:
                overlappable += cost
        return t_comm, overlappable

    # -- the objective ------------------------------------------------------------------

    def estimate(self, config: ProcessorConfiguration) -> CycleEstimate:
        """Full Eq 4-6 breakdown; memoized per configuration."""
        key = tuple(config.counts)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if config.total < 1:
            raise PartitionError("cannot estimate an empty configuration")
        t_comp = self.t_comp(config)
        t_comm, overlappable = self._comm_breakdown(
            config.total, lambda phase: self._phase_comm_cost(phase, config)
        )
        t_overlap = min(t_comp, overlappable)
        self.evaluations += 1
        result = CycleEstimate(t_comp_ms=t_comp, t_comm_ms=t_comm, t_overlap_ms=t_overlap)
        self._memo[key] = result
        return result

    def t_cycle(self, config: ProcessorConfiguration) -> float:
        """Eq 6 for one configuration."""
        return self.estimate(config).t_cycle_ms

    def t_elapsed(self, config: ProcessorConfiguration) -> float:
        """``T_elapsed = I·T_c + T_startup``."""
        return self.computation.cycles * self.t_cycle(config) + self.startup_ms

    def t_elapsed_profiled(self, config: ProcessorConfiguration) -> float:
        """``T_elapsed`` summed cycle by cycle for non-uniform complexity.

        When the dominant phases supply ``per_cycle_complexity`` callbacks
        (the paper's Gaussian elimination case), each cycle's ``T_c`` is
        computed from that cycle's exact operation count and message size;
        otherwise this equals :meth:`t_elapsed`.
        """
        comp_phase = self.computation.dominant_computation_phase()
        comm_phase = self.comm_phase
        has_profile = comp_phase.per_cycle_complexity is not None or (
            comm_phase is not None and comm_phase.per_cycle_complexity is not None
        )
        if not has_profile:
            return self.t_elapsed(config)
        problem = self.computation.problem
        rates = self._config_rates(config)
        if not rates:
            raise PartitionError("configuration has no processors")
        shares = balanced_shares(rates, self.num_pdus)
        total = self.startup_ms
        for cycle in range(self.computation.cycles):
            comp_c = comp_phase.complexity_at_cycle(problem, cycle)
            t_comp = ops_time_ms(comp_c * shares[0], rates[0])
            t_comm = 0.0
            if comm_phase is not None and config.total > 1:
                bytes_c = comm_phase.complexity_at_cycle(problem, cycle)
                t_comm = self.cost_db.topology_cost(
                    comm_phase.topology, bytes_c, config.counts_by_name()
                )
            t_overlap = min(t_comp, t_comm) if self.overlapped else 0.0
            total += t_comp + t_comm - t_overlap
        return total


class _Eq2Line:
    """One phase's Eq 2 along a line (constant ``b``, not bandwidth-limited).

    A probe's active clusters are the first ``n`` of the pool's clusters
    with nodes, the last one holding ``last`` of them.  The Eq 1 max over
    the saturated ones is folded once per cluster, left to right, as
    ``max(list)`` folds it in
    :meth:`~repro.benchmarking.database.TopologyComposition.cost`; so NaN
    and ±0 come out as they do there, and so do errors.  The crossing is
    priced per probe, as ``cost`` prices it (one step on a backbone-only
    database).
    """

    __slots__ = ("eq2", "names", "sizes", "eq1")

    def __init__(
        self, eq2: TopologyComposition, names: tuple[str, ...], sizes: tuple[int, ...]
    ) -> None:
        self.eq2, self.names, self.sizes = eq2, names, sizes
        #: ``eq1[i]``: the Eq 1 max over the first ``i + 1`` clusters, saturated.
        self.eq1: list[float] = []

    def cost(self, n: int, last: int) -> float:
        """``T_comm[τ]`` of the first ``n`` active clusters, the last one
        holding ``last`` processors."""
        eq2, names = self.eq2, self.names
        if n == 1:
            return eq2.eq1(names[0], last)
        eq1 = self.eq1
        while len(eq1) < n - 1:
            term = eq2.eq1_routed(names[len(eq1)], self.sizes[len(eq1)])
            eq1.append(term if not eq1 or term > eq1[-1] else eq1[-1])
        term, acc = eq2.eq1_routed(names[n - 1], last), eq1[n - 2]
        return (term if term > acc else acc) + eq2.crossing(names[:n])


class ProbeLine:
    """``T_c`` along one pool's prefix line, through one estimator.

    :meth:`along` gives cluster ``k``'s probe, ``p ↦ T_c`` of the counts
    ``(N_0, …, N_{k-1}, p, 0, …)``, with ``0 <= p <= N_k``.  A probe reads
    the estimator's memo under that counts tuple; a fresh one counts an
    evaluation and stores its estimate there, as
    :meth:`CycleEstimator.estimate` does.  :attr:`trace` gets one
    ``(describe, T_c)`` row per prefix, on the first probe of that prefix,
    if that probe was a fresh evaluation.  ``pool`` is the ordered tuple
    every configuration of the search is built on.
    """

    def __init__(self, estimator: CycleEstimator, pool: tuple[ClusterResources, ...]) -> None:
        estimator._bind(pool)
        self.estimator = estimator
        self.pool = pool
        self._sizes = tuple([res.n_available for res in pool])
        self._offsets = list(accumulate(self._sizes, initial=0))
        #: Positions of the clusters with nodes: a probe's active clusters
        #: are a prefix of them.
        self._active = [k for k, size in enumerate(self._sizes) if size]
        self._active_names = tuple([estimator._names[k] for k in self._active])
        self._active_sizes = tuple([self._sizes[k] for k in self._active])
        #: The first nodes' rates in line order, as read, and their speeds.
        self._rates: list[float] = []
        self._speeds = np.empty(self._offsets[-1])
        #: How many of the first rates read are all > 0.
        self._positive = 0
        #: One Eq 2 fold per communication phase, keyed by its name.
        self._folds: dict[str, _Eq2Line] = {}
        #: Prefix length → counts tuple, for every prefix probed so far.
        self._keys: dict[int, tuple[int, ...]] = {}
        #: The saturated active clusters' ``name:count`` parts, and the
        #: last joined head (active count, string).
        self._parts: list[str] = []
        self._head = (0, "")
        self.trace: list[tuple[str, float]] = []

    def along(self, k: int) -> Callable[[int], float]:
        """Cluster ``k``'s probe: ``p ↦ T_c`` of the first ``offset[k] + p``
        nodes."""
        name, size, offset = self.estimator._names[k], self._sizes[k], self._offsets[k]
        head, tail = self._sizes[:k], (0,) * (len(self._sizes) - k - 1)
        before = bisect_left(self._active, k)
        estimator, keys = self.estimator, self._keys
        memo = estimator._memo

        def t_cycle(p: int) -> float:
            if p < 0 or p > size:
                raise PartitionError(f"cluster {name!r}: count {p} outside [0, {size}]")
            m = offset + p
            key = keys.get(m)
            first = key is None
            if first:
                key = keys[m] = head + (p,) + tail
            cached = memo.get(key)
            if cached is not None:
                return cached.t_cycle_ms
            estimate = self._estimate(m, before + 1 if p else before, p)
            estimator.evaluations += 1
            memo[key] = estimate
            if first:
                self.trace.append((self._describe(before, name, p), estimate.t_cycle_ms))
            return estimate.t_cycle_ms

        return t_cycle

    def configuration(self, k: int, p: int) -> ProcessorConfiguration:
        """The configuration of cluster ``k``'s probe at ``p``."""
        counts = self._sizes[:k] + (p,) + (0,) * (len(self._sizes) - k - 1)
        return ProcessorConfiguration(self.pool, counts)

    def _estimate(self, m: int, n: int, p: int) -> CycleEstimate:
        """Eq 4-6 of the first ``m`` nodes, on ``n`` active clusters, the
        last holding ``p`` nodes (0: all of them)."""
        if m < 1:
            raise PartitionError("cannot estimate an empty configuration")
        est = self.estimator
        self._read(m)
        if m > self._positive:
            positive_rates(self._rates[:m])  # raises, naming the probe's rates
        t_comp = est._eq4(self._rates[0], float(self._speeds[:m].sum()))
        last = p or self._active_sizes[n - 1]
        t_comm, overlappable = est._comm_breakdown(
            m, lambda phase: self._phase_cost(phase, m, n, last)
        )
        return CycleEstimate(t_comp, t_comm, min(t_comp, overlappable))

    def _read(self, m: int) -> None:
        """Read rates, cluster by cluster, until the first ``m`` nodes'
        speeds are known."""
        rates, offsets = self._rates, self._offsets
        first = len(rates)
        if first >= m:
            return
        self.estimator._bind(self.pool)
        new: list[float] = []
        while first + len(new) < m:
            have = first + len(new)
            k = bisect_right(offsets, have) - 1
            start = offsets[k]
            count = min(m, offsets[k + 1]) - start
            new += self.estimator._cluster_rates(k, count)[have - start : count]
        # Elementwise, the same float conversion and division as
        # CycleEstimator.t_comp's.  The rates join the line once their
        # speeds are stored, so a rate read that raises leaves both as
        # they were.
        speeds = self._speeds[first:m]
        speeds[:] = new
        np.divide(1.0, speeds, out=speeds)
        rates += new
        if self._positive == first:
            self._positive = next((first + i for i, rate in enumerate(new) if not rate > 0), m)

    def _phase_cost(self, phase, m: int, n: int, last: int) -> float:
        """One phase's rounds x ``T_comm[τ]``, as
        :meth:`CycleEstimator._phase_comm_cost` prices it."""
        est = self.estimator
        eq2 = est._composition(phase, lambda: self._rates[:m])
        rounds = phase.rounds_value(est.computation.problem, m)
        if phase.per_config_complexity is None and not eq2.pooled:
            fold = self._folds.get(phase.name)
            if fold is None:
                fold = self._folds[phase.name] = _Eq2Line(
                    eq2, self._active_names, self._active_sizes
                )
            return rounds * fold.cost(n, last)
        counts = self._active_sizes[: n - 1] + (last,)
        return rounds * eq2.cost(self._active_names[:n], counts)

    def _describe(self, before: int, name: str, p: int) -> str:
        """:meth:`ProcessorConfiguration.describe` of a probe."""
        parts = self._parts
        while len(parts) < before:
            i = len(parts)
            parts.append(f"{self._active_names[i]}:{self._active_sizes[i]}")
        if self._head[0] != before:
            self._head = (before, "+".join(parts[:before]))
        head = self._head[1]
        if not p:
            return head
        return f"{head}+{name}:{p}" if head else f"{name}:{p}"
