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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Optional

import numpy as np

from repro.benchmarking.database import CostDatabase, TopologyComposition
from repro.errors import PartitionError
from repro.model.computation import DataParallelComputation
from repro.model.vector import PartitionVector
from repro.partition.available import ClusterResources
from repro.partition.config import ProcessorConfiguration
from repro.partition.decompose import balanced_partition_vector, balanced_shares
from repro.units import ops_time_ms

__all__ = ["CycleEstimate", "CycleEstimator"]


@dataclass(frozen=True)
class CycleEstimate:
    """The Eq 4-6 breakdown for one processor configuration."""

    config: ProcessorConfiguration
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

    def _bind(self, config: ProcessorConfiguration) -> tuple[ClusterResources, ...]:
        """The configuration's pool; a new pool drops what was read from the
        last one."""
        pool = config.resources
        if pool is not self._pool:
            self._pool, self._rates = pool, {}
            self._names = tuple([res.name for res in pool])
        return pool

    def _config_rates(self, config: ProcessorConfiguration) -> list[float]:
        """Effective ``S_i`` per chosen node, in placement order (what
        :meth:`ProcessorConfiguration.per_processor_rates` reads)."""
        pool = self._bind(config)
        rates: list[float] = []
        for k, count in enumerate(config.counts):
            if count:
                known = self._rates.setdefault(k, [])
                if count > len(known):
                    res = pool[k]
                    known += [res.rate_of(p, self.op_kind) for p in res.take(count)[len(known) :]]
                rates += known[:count]
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
        # Eq 3's share of the first node, from the speeds array
        # balanced_shares builds and sums: the same bits, without the
        # other shares.  Load balanced: S_i · complexity · A_i is the same
        # for all i.
        speeds = 1.0 / np.array(rates, dtype=float)
        share = 1.0 / rates[0] / float(speeds.sum()) * self.num_pdus
        return ops_time_ms(self.comp_complexity * share, rates[0])

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

    def _phase_comm_cost(self, phase, config: ProcessorConfiguration) -> float:
        """One communication phase's per-cycle cost: rounds x topology cost.

        When the phase declares ``per_config_complexity`` (the paper's
        "b ... may depend on A_i" case), the message size is derived from
        this configuration's balanced shares.
        """
        problem = self.computation.problem
        if phase.per_config_complexity is not None:
            shares = balanced_shares(self._config_rates(config), self.num_pdus)
            b = phase.complexity_for_shares(problem, shares)
            eq2 = TopologyComposition(self.cost_db, phase.topology, b)
        else:
            eq2 = self._eq2.get(phase.name)
            if eq2 is None:
                b = phase.complexity_value(problem)
                eq2 = self._eq2[phase.name] = TopologyComposition(
                    self.cost_db, phase.topology, b
                )
        rounds = phase.rounds_value(problem, config.total)
        self._bind(config)
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

    def _comm_breakdown(self, config: ProcessorConfiguration) -> tuple[float, float]:
        """``(T_comm, overlappable portion)`` in a single pass.

        Each phase's cost is computed exactly once — the overlappable share
        reuses it instead of re-walking the topology composition.
        """
        if self.comm_phase is None or config.total <= 1:
            return 0.0, 0.0
        if not self.all_phases:
            t_comm = self._phase_comm_cost(self.comm_phase, config)
            return t_comm, (t_comm if self.overlapped else 0.0)
        t_comm = 0.0
        overlappable = 0.0
        for phase in self.computation.communication_phases:
            cost = self._phase_comm_cost(phase, config)
            t_comm += cost
            if phase.overlap is not None:
                overlappable += cost
        return t_comm, overlappable

    def _overlappable_comm(self, config: ProcessorConfiguration) -> float:
        """The portion of T_comm eligible for overlap credit."""
        return self._comm_breakdown(config)[1]

    # -- the objective ------------------------------------------------------------------

    def estimate(self, config: ProcessorConfiguration) -> CycleEstimate:
        """Full Eq 4-6 breakdown; memoized per configuration."""
        key = tuple(config.counts)
        cached = self._memo.get(key)
        if cached is not None:
            if cached.config is not config:
                # A warm-start hit from an earlier epoch: the numbers are
                # exact, but the stored config may reference a stale
                # availability snapshot — re-bind to the caller's current
                # configuration so downstream ``estimate.config.processors()``
                # can never resurrect a dead node.
                cached = replace(cached, config=config)
                self._memo[key] = cached
            return cached
        if config.total < 1:
            raise PartitionError("cannot estimate an empty configuration")
        t_comp = self.t_comp(config)
        t_comm, overlappable = self._comm_breakdown(config)
        t_overlap = min(t_comp, overlappable)
        self.evaluations += 1
        result = CycleEstimate(
            config=config, t_comp_ms=t_comp, t_comm_ms=t_comm, t_overlap_ms=t_overlap
        )
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
