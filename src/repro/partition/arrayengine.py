"""The array engine: one streamed, in-place Eq 3-6 kernel and the one
exact search built on it.

:class:`ArraySearchEngine` is the engine behind every exact search
(:func:`~repro.partition.heuristic.exhaustive_partition` and the
:class:`~repro.partition.engine.DecisionEngine` exact path, which the
decision server and the wide-area bench share).  The scalar
:class:`~repro.partition.estimator.CycleEstimator` stays the reference
specification and re-estimates every winner.

* :class:`ArrayWorkspace` — every buffer the kernel touches, allocated once
  per (estimator, max-batch) pair and reused for the engine's lifetime.
  Count columns are stored **per cluster** (a ``(K, max_rows)`` layout), so
  every kernel op runs over a contiguous 1-D slice — axis-1 reductions over
  tiny ``(M, K)`` matrices are an order of magnitude slower than ``K``
  contiguous passes at these sizes.
* :class:`ArrayCycleEstimator` — lowers one computation + ordered cluster
  list into flat arrays (per-cluster speed prefix sums for Eq 3/4, the
  fitted ``c1..c4`` Eq 1 coefficients, the pairwise router/coercion
  intercept and slope matrices) and scores blocks with one in-place
  (``out=``-style) kernel, :meth:`~ArrayCycleEstimator.score_block`.
  With a constant message size ``b`` and at most ``_MAX_LUT_CLUSTERS``
  clusters, ``b`` is folded into per-cluster ``alpha + beta·p`` lines and
  the crossing penalty becomes a lookup table indexed by the row's
  active-cluster bit pattern; without that table (more clusters, or a
  share-dependent ``b`` written per row into a workspace buffer) Eq 1
  stays unfolded and the crossing is a max over active pairs.  The rounds
  multiplier is a lookup table over row totals.  No per-row allocations
  unless ``b`` depends on the shares.
* canonical streaming — every search scores the canonical rows of a
  :class:`~repro.partition.collapse.CollapsePlan` (per equivalence class
  of interchangeable clusters, one count multiset per orbit), streamed
  block by block by :func:`~repro.partition.collapse.iter_canonical_blocks`.
  The trivial one-class-per-cluster plan's canonical rows *are* the
  ordered space, so one enumerator and one block loop serve every mode.
  Past a size cutoff a branch-and-bound prune cuts every count prefix
  whose ``T_comp`` lower bound (remaining classes fully allocated)
  already exceeds the cluster-prefix incumbent, which is exact because
  ``T_c >= T_comp`` and ``T_comp`` is non-increasing in every count.
* engine reuse — :class:`~repro.partition.warmstart.SearchCache` carries
  a lowered :class:`ArraySearchEngine` (workspace and detected plan)
  across decides, so an availability *shrink* (node loss — the
  supervisor's common case) searches the shrunk space without lowering
  or detecting again.  A search keeps no scored rows, only its winner.

``tests/partition/test_fastpath_equivalence.py`` pins the kernel to the
scalar reference component by component,
``tests/partition/test_cold_path_oracles.py`` pins its table-less blocks
to the ``(n, K)``-matrix fallback kernel it replaced, bit for bit,
``tests/partition/test_array_engine.py`` pins decision parity and
shrink-vs-cold equality, and ``tests/partition/test_collapse.py`` the
collapsed modes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.benchmarking.database import CostDatabase
from repro.errors import FittingError, PartitionError
from repro.model.computation import DataParallelComputation
from repro.partition import collapse
from repro.partition.available import ClusterResources
from repro.spmd.topology import Topology
from repro.units import US_PER_MS

__all__ = [
    "ArrayWorkspace",
    "ArrayCycleEstimator",
    "ArraySearchResult",
    "ArraySearchEngine",
    "EXACT_BUDGET",
    "exact_search",
    "prefix_count_matrix",
]

#: Rows per streamed block — the workspace's batch capacity.
DEFAULT_MAX_ROWS = 8192

#: A full scan beats the branch-and-bound prune until the space exceeds
#: this many blocks: the streamed kernel is cheaper per row than the
#: prune's prefix expansion until the space dwarfs the block size.
_AUTO_PRUNE_BLOCKS = 4

#: Canonical spaces up to this many rows are streamed; beyond it the
#: level sweep takes over (or, when its gates fail, the stream anyway).
EXACT_BUDGET = 200_000

#: Crossing lookup tables are ``2^K``; beyond this many clusters the
#: kernel takes the max over active pairs instead of a table.
_MAX_LUT_CLUSTERS = 16

#: Relative + absolute slack applied to the prune bound so floating-point
#: noise can never discard the true optimum.
_PRUNE_SLACK = 1e-12

#: The symmetry-savings telemetry counter is capped here — full spaces at
#: wide-area scale overflow anything resembling a counter.
_SAVINGS_CAP = 10**18


def prefix_count_matrix(limits: Sequence[int]) -> np.ndarray:
    """The §5 cluster-prefix candidate rows under ``limits``, in the
    scalar oracle's order: clusters before ``k`` fully allocated, cluster
    ``k`` sweeping ``1..N_k``."""
    rows = []
    prefix = [0] * len(limits)
    for k, limit in enumerate(limits):
        for p in range(1, int(limit) + 1):
            rows.append(prefix[:k] + [p] + prefix[k + 1 :])
        prefix[k] = int(limit)
    return np.array(rows, dtype=np.int64).reshape(-1, len(limits))


class ArrayWorkspace:
    """Preallocated buffers for one (estimator, max-batch) pair.

    The kernel writes into slices of these arrays; nothing here is ever
    reallocated after construction.  ``counts[k, :n]`` is cluster ``k``'s
    contiguous count column for the current block.
    """

    __slots__ = (
        "max_rows",
        "n_clusters",
        "counts",
        "active",
        "inactive",
        "totals",
        "pattern",
        "iwork",
        "nact",
        "speed_sums",
        "t_comp",
        "t_comm",
        "t_overlap",
        "t_cycle",
        "fwork",
        "fwork2",
        "mask",
        "bwork",
    )

    def __init__(self, n_clusters: int, max_rows: int) -> None:
        if n_clusters < 1 or max_rows < 1:
            raise PartitionError(
                f"workspace needs >=1 cluster and >=1 row, got "
                f"({n_clusters}, {max_rows})"
            )
        self.max_rows = int(max_rows)
        self.n_clusters = int(n_clusters)
        k, m = self.n_clusters, self.max_rows
        self.counts = np.empty((k, m), dtype=np.int64)
        self.active = np.empty((k, m), dtype=bool)
        self.inactive = np.empty((k, m), dtype=bool)
        self.totals = np.empty(m, dtype=np.int64)
        self.pattern = np.empty(m, dtype=np.int64)
        self.iwork = np.empty(m, dtype=np.int64)
        self.nact = np.empty(m, dtype=np.int64)
        self.speed_sums = np.empty(m)
        self.t_comp = np.empty(m)
        self.t_comm = np.empty(m)
        self.t_overlap = np.empty(m)
        self.t_cycle = np.empty(m)
        self.fwork = np.empty(m)
        self.fwork2 = np.empty(m)
        self.mask = np.empty(m, dtype=bool)
        self.bwork = np.empty(m, dtype=bool)

    def nbytes(self) -> int:
        """Total bytes held by the workspace (for telemetry/debugging)."""
        return sum(
            getattr(self, name).nbytes
            for name in self.__slots__
            if isinstance(getattr(self, name), np.ndarray)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ArrayWorkspace K={self.n_clusters} max_rows={self.max_rows} "
            f"{self.nbytes() / 1024:.0f} KiB>"
        )


@dataclass(frozen=True)
class ArraySearchResult:
    """Outcome of one exact search, streamed or level sweep: the winner,
    its ``T_c``, the rows or cells scored and the mode's label."""

    counts: tuple[int, ...]
    t_cycle_ms: float
    evaluations: int
    method: str


class ArrayCycleEstimator:
    """The in-place Eq 3-6 kernel over a reusable :class:`ArrayWorkspace`.

    Parameters
    ----------
    computation:
        The annotated computation (dominant-phase model, like the scalar
        estimator's default; ``all_phases`` is not supported here).
    resources:
        The *ordered* cluster list; every workspace row is interpreted
        column-for-column against it.
    cost_db:
        The fitted :class:`~repro.benchmarking.CostDatabase`.
    max_rows:
        The workspace's block capacity.
    """

    def __init__(
        self,
        computation: DataParallelComputation,
        resources: Sequence[ClusterResources],
        cost_db: CostDatabase,
        *,
        max_rows: int = DEFAULT_MAX_ROWS,
    ) -> None:
        self.computation = computation
        self.ordered: tuple[ClusterResources, ...] = tuple(resources)
        self.cost_db = cost_db
        if not self.ordered:
            raise PartitionError("no clusters to evaluate over")

        comp_phase = computation.dominant_computation_phase()
        self.op_kind = comp_phase.op_kind
        self.comp_complexity = comp_phase.complexity_value(computation.problem)
        self.comm_phase = computation.dominant_communication_phase()
        self.num_pdus = computation.num_pdus_value()
        self.overlapped = computation.overlapped_with_dominant()

        # -- Eq 3/4 lowering: per-cluster speed prefix sums -------------------
        # One flat rate array over every available node; cluster k owns
        # rates[ends[k] - N_k : ends[k]] and, after a leading 0.0, the
        # prefix slots shifted by k.
        k_n = len(self.ordered)
        self.limits = np.array([r.n_available for r in self.ordered], dtype=np.int64)
        rates = np.array(
            [
                res.rate_of(proc, self.op_kind)
                for res in self.ordered
                for proc in res.take(res.n_available)
            ],
            dtype=float,
        )
        sizes = self.limits.tolist()
        ends = list(accumulate(sizes))
        starts = [end - size for end, size in zip(ends, sizes)]
        bad = ~(rates > 0)  # NaN too
        if bad.any():
            k = bisect_right(ends, int(np.argmax(bad)))
            raise PartitionError(
                f"instruction rates must be positive: {rates[starts[k] : ends[k]].tolist()}"
            )
        speeds = 1.0 / rates
        prefix = np.zeros(rates.size + k_n)
        for k, (start, end) in enumerate(zip(starts, ends)):
            np.add.accumulate(speeds[start:end], out=prefix[start + k + 1 : end + k + 1])
        self._cluster_rates = [rates[start:end] for start, end in zip(starts, ends)]
        self._speed_prefix = [
            prefix[start + k : end + k + 1]
            for k, (start, end) in enumerate(zip(starts, ends))
        ]

        # -- Eq 1 lowering: per-cluster coefficients for the dominant topology
        self._c1 = np.full(k_n, np.nan)
        self._c2 = np.full(k_n, np.nan)
        self._c3 = np.full(k_n, np.nan)
        self._c4 = np.full(k_n, np.nan)
        self._quirk = np.zeros(k_n, dtype=bool)
        self._have_comm = np.zeros(k_n, dtype=bool)
        self.topology: Optional[Topology] = None
        if self.comm_phase is not None:
            topo = self.comm_phase.topology
            self.topology = topo if isinstance(topo, Topology) else Topology(topo)
            for k, res in enumerate(self.ordered):
                try:
                    c1, c2, c3, c4, quirk = cost_db.comm_coefficients(
                        res.name, self.topology
                    )
                except FittingError:
                    continue
                self._c1[k], self._c2[k], self._c3[k], self._c4[k] = c1, c2, c3, c4
                self._quirk[k] = quirk
                self._have_comm[k] = True

        # -- crossing lowering: pairwise router+coercion linear penalties;
        # NaN marks a missing router fit, raised only if a candidate needs it.
        self._cross_intercept, self._cross_slope = cost_db.crossing_matrices(
            [res.name for res in self.ordered]
        )

        self.workspace = ArrayWorkspace(k_n, max_rows)
        #: ``(plan, keep_at, n)`` when the workspace holds a plan's whole
        #: canonical space as one block (see
        #: :func:`~repro.partition.collapse.iter_canonical_blocks`).
        self._resident: Optional[tuple] = None
        self._prepare_fast_path()

    # -- construction-time folding ----------------------------------------------

    def _prepare_fast_path(self) -> None:
        k_n = len(self.ordered)
        phase = self.comm_phase
        #: Eq 4 numerator: ``T_comp = numer / Σ P_j/S_j / US_PER_MS``.
        self._comp_numer = self.comp_complexity * self.num_pdus
        self._b_const: Optional[float] = None
        self._rounds_lut: Optional[np.ndarray] = None
        self._rounds_const = 0.0
        self._alpha = np.zeros(k_n)
        self._beta = np.zeros(k_n)
        self._cross_lut: Optional[np.ndarray] = None
        self._bad_lut: Optional[np.ndarray] = None
        self._pop_lut: Optional[np.ndarray] = None
        if phase is None:
            return
        if phase.per_config_complexity is None:
            self._b_const = float(phase.complexity_value(self.computation.problem))
            # Fold b into per-cluster linear coefficients: Eq 1 becomes
            # alpha_k + beta_k * p for the quirk-free clusters.
            self._alpha = self._c1 + self._b_const * self._c3
            self._beta = self._c2 + self._b_const * self._c4
        total_max = int(self.limits.sum())
        if callable(phase.rounds):
            self._rounds_lut = np.array(
                [
                    phase.rounds_value(self.computation.problem, total)
                    for total in range(total_max + 1)
                ]
            )
        else:
            self._rounds_const = float(
                phase.rounds_value(self.computation.problem, 0)
            )
        if self._b_const is not None and k_n <= _MAX_LUT_CLUSTERS:
            # Subset-max doubling: lut[2^i + S] = max(lut[S], row[S]) with
            # row[S] = max_{j in S} cost[j, i] (from -inf, NaN pairs only
            # marked); ``row > lut`` keeps a max chain's +0.0 floor.
            size = 1 << k_n
            lut = self._cross_lut = np.zeros(size)
            bad = self._bad_lut = np.zeros(size, dtype=bool)
            pop = self._pop_lut = np.zeros(size, dtype=np.int64)
            row, row_bad = np.empty(size), np.empty(size, dtype=bool)
            pair_cost = self._cross_intercept + self._cross_slope * self._b_const
            for i in range(k_n):
                row[0], row_bad[0] = -np.inf, False
                for j in range(i):
                    cost, h = pair_cost[j, i], 1 << j
                    nan = bool(np.isnan(cost))
                    np.maximum(row[:h], -np.inf if nan else cost, out=row[h : 2 * h])
                    np.logical_or(row_bad[:h], nan, out=row_bad[h : 2 * h])
                h = 1 << i
                lut[h : 2 * h] = np.where(row[:h] > lut[:h], row[:h], lut[:h])
                bad[h : 2 * h] = bad[:h] | row_bad[:h]
                pop[h : 2 * h] = pop[:h] + 1

    # -- block loading -----------------------------------------------------------

    def load_rows(self, rows: np.ndarray) -> int:
        """Copy an ``(n, K)`` row matrix into the workspace count columns."""
        n = rows.shape[0]
        if n > self.workspace.max_rows:
            raise PartitionError(
                f"block of {n} rows exceeds workspace capacity "
                f"{self.workspace.max_rows}"
            )
        self._resident = None
        for k in range(rows.shape[1]):
            np.copyto(self.workspace.counts[k, :n], rows[:, k])
        return n

    # -- the in-place kernel -----------------------------------------------------

    def score_block(self, n: int) -> np.ndarray:
        """Eq 4-6 over the first ``n`` workspace rows; returns the
        ``t_cycle`` view.

        Eq 1 keeps one IEEE form per case, and each form pins decision
        bits (``tests/partition/test_cold_path_oracles.py``):

        * with the crossing table (constant ``b``, at most
          :data:`_MAX_LUT_CLUSTERS` clusters), folded as
          ``p_eff·beta + alpha``, or ``((c2·p_eff) + b·|c4·p_eff + c3|) + c1``
          for a quirk fit, and the crossing read off the table by the
          row's bit pattern;
        * without it, unfolded as ``(c1 + c2·p_eff) + b·(c3 + c4·p_eff)``
          (``abs`` on the per-byte term for a quirk fit), and the crossing
          a max from 0.0 over the active pairs in ``(i, j)`` order.

        A share-dependent ``b`` is one callback per row, made only when a
        row has more than one processor, and written into Eq 4's spent
        speed sums.  :func:`repro.partition.collapse._score_row` replays
        these operations for one row, so the two change together or not
        at all.
        """
        ws = self.workspace
        if n < 1 or n > ws.max_rows:
            raise PartitionError(f"block size {n} outside workspace capacity")
        k_n = len(self.ordered)
        # The bit pattern only indexes the table, and 1 << k overflows
        # int64 past 62 clusters; without it, count active clusters.
        table = self._cross_lut is not None
        tot = ws.totals[:n]
        patt = ws.pattern[:n]
        nact = ws.nact[:n]
        sums = ws.speed_sums[:n]
        f1 = ws.fwork[:n]
        i1 = ws.iwork[:n]
        t_comp = ws.t_comp[:n]
        t_comm = ws.t_comm[:n]
        tot.fill(0)
        (patt if table else nact).fill(0)
        sums.fill(0.0)
        for k in range(k_n):
            ck = ws.counts[k, :n]
            np.add(tot, ck, out=tot)
            np.take(self._speed_prefix[k], ck, out=f1)
            np.add(sums, f1, out=sums)
            ak = ws.active[k, :n]
            np.greater(ck, 0, out=ak)
            np.less_equal(ck, 0, out=ws.inactive[k, :n])
            if table:
                np.multiply(ak, 1 << k, out=i1)
                np.add(patt, i1, out=patt)
            else:
                np.add(nact, ak, out=nact)
        np.divide(self._comp_numer, sums, out=t_comp)
        np.divide(t_comp, US_PER_MS, out=t_comp)
        if self.comm_phase is None:
            t_comm.fill(0.0)
            ws.t_overlap[:n].fill(0.0)
            np.copyto(ws.t_cycle[:n], t_comp)
            # Documented borrow contract (see score_block docstring).
            return ws.t_cycle[:n]  # repro: noqa[workspace-escape]
        mask = ws.mask[:n]
        bwork = ws.bwork[:n]
        multi = bwork  # alias: bwork holds `multi` through the cost loop
        np.greater(tot, 1, out=mask)
        if table:
            np.take(self._pop_lut, patt, out=nact)
        np.greater(nact, 1, out=multi)
        b = self._b_const
        if b is None:
            b = sums  # Eq 4 is done with the speed sums
            if mask.any():
                # The paper's "b may depend on A_i" case needs the
                # per-processor share list: one callback per row.
                for m in range(n):
                    rates = np.concatenate(
                        [self._cluster_rates[k][: ws.counts[k, m]] for k in range(k_n)]
                    )
                    speeds = 1.0 / rates
                    shares = (speeds / speeds.sum() * self.num_pdus).tolist()
                    b[m] = self.comm_phase.complexity_for_shares(
                        self.computation.problem, shares
                    )
        t_comm.fill(-np.inf)
        bandwidth = self.topology.bandwidth_limited
        extra_station = bool(self.cost_db.router_extra_station)
        for k in range(k_n):
            ck = ws.counts[k, :n]
            if not self._have_comm[k]:
                # Raise only if a row in this block actually needs the
                # missing fit (active + multi-proc).
                np.logical_and(ws.active[k, :n], mask, out=ws.inactive[k, :n])
                if ws.inactive[k, :n].any():
                    raise FittingError(
                        f"no fitted cost function for cluster "
                        f"{self.ordered[k].name!r}, topology "
                        f"{str(self.topology)!r}"
                    )
                continue
            if bandwidth:
                p_eff: np.ndarray = tot
            elif extra_station:
                # multi rows: max(c+1, 2) == c+1 for active clusters, and
                # inactive clusters are masked out below — so c + multi.
                np.add(ck, multi, out=i1)
                p_eff = i1
            else:
                np.multiply(multi, 2, out=i1)
                np.maximum(ck, i1, out=i1)
                p_eff = i1
            if table and not self._quirk[k]:
                np.multiply(p_eff, self._beta[k], out=f1)
                np.add(f1, self._alpha[k], out=f1)
            else:
                f2 = ws.fwork2[:n]
                np.multiply(p_eff, self._c4[k], out=f2)
                np.add(f2, self._c3[k], out=f2)
                if self._quirk[k]:
                    np.abs(f2, out=f2)
                np.multiply(f2, b, out=f2)
                np.multiply(p_eff, self._c2[k], out=f1)
                if table:
                    np.add(f1, f2, out=f1)
                    np.add(f1, self._c1[k], out=f1)
                else:
                    np.add(f1, self._c1[k], out=f1)
                    np.add(f1, f2, out=f1)
            np.copyto(f1, -np.inf, where=ws.inactive[k, :n])
            np.maximum(t_comm, f1, out=t_comm)
        if table:
            if self._bad_lut.any():
                bad = ws.inactive[0, :n]  # scratch: cost loop is done with it
                np.take(self._bad_lut, patt, out=bad)
                np.logical_and(bad, mask, out=bad)
                if bad.any():
                    self._raise_missing_router(patt[int(np.argmax(bad))])
            np.take(self._cross_lut, patt, out=f1)
            np.add(t_comm, f1, out=t_comm)
        else:
            np.logical_and(multi, mask, out=multi)
            if multi.any():
                self._add_crossing(n, b)
        if self._rounds_lut is not None:
            np.take(self._rounds_lut, tot, out=f1)
            np.multiply(t_comm, f1, out=t_comm)
        else:
            np.multiply(t_comm, self._rounds_const, out=t_comm)
        np.logical_not(mask, out=bwork)  # `multi` no longer needed
        np.copyto(t_comm, 0.0, where=bwork)
        t_cycle = ws.t_cycle[:n]
        np.add(t_comp, t_comm, out=t_cycle)
        if self.overlapped:
            t_over = ws.t_overlap[:n]
            np.minimum(t_comp, t_comm, out=t_over)
            np.subtract(t_cycle, t_over, out=t_cycle)
        else:
            ws.t_overlap[:n].fill(0.0)
        # Documented borrow contract (see docstring): the view is consumed
        # (copied or reduced) by the streamed search before the next block.
        return t_cycle  # repro: noqa[workspace-escape]

    def _add_crossing(self, n: int, b) -> None:
        """Add the crossing penalty to ``t_comm`` where no table holds it:
        per row, the max from 0.0 over its active pairs of router +
        coercion ``intercept + slope·b``, visiting pairs in ``(i, j)``
        order and raising at the first active pair without a router fit.
        """
        ws = self.workspace
        needed = ws.inactive  # the cost loop is done with it
        for k in range(len(self.ordered)):
            np.logical_and(ws.active[k, :n], ws.mask[:n], out=needed[k, :n])
        live = [k for k in range(len(self.ordered)) if needed[k, :n].any()]
        crossing = ws.fwork[:n]
        crossing.fill(0.0)
        rows = ws.bwork[:n]
        for a, i in enumerate(live):
            for j in live[a + 1 :]:
                np.logical_and(needed[i, :n], needed[j, :n], out=rows)
                if not rows.any():
                    continue
                if np.isnan(self._cross_intercept[i, j]):
                    raise FittingError(
                        f"no fitted router cost for clusters "
                        f"{self.ordered[i].name!r}/{self.ordered[j].name!r}"
                    )
                if self._b_const is not None:
                    pair = self._cross_intercept[i, j] + self._cross_slope[i, j] * b
                else:
                    pair = ws.fwork2[:n]
                    np.multiply(b, self._cross_slope[i, j], out=pair)
                    np.add(pair, self._cross_intercept[i, j], out=pair)
                np.maximum(crossing, pair, out=crossing, where=rows)
        np.add(ws.t_comm[:n], crossing, out=ws.t_comm[:n])

    # -- branch-and-bound support ------------------------------------------------

    def t_comp_lower_bound(self, partial_speed_sum, max_rest_speed) -> np.ndarray:
        """Lowest reachable ``T_comp`` for count prefixes.

        ``partial_speed_sum`` holds each prefix's ``Σ P_j/S_j`` over the
        fixed clusters; ``max_rest_speed`` is the remaining clusters' speed
        sum at full allocation.  Since ``T_c >= T_comp`` and ``T_comp``
        shrinks as counts grow, this bounds every completion of the prefix.
        """
        denom = np.asarray(partial_speed_sum, dtype=float) + max_rest_speed
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.comp_complexity * self.num_pdus / denom / US_PER_MS

    def _raise_missing_router(self, pattern: int) -> None:
        pair_cost = self._cross_intercept
        for i in range(len(self.ordered)):
            if not pattern >> i & 1:
                continue
            for j in range(i + 1, len(self.ordered)):
                if pattern >> j & 1 and np.isnan(pair_cost[i, j]):
                    raise FittingError(
                        f"no fitted router cost for clusters "
                        f"{self.ordered[i].name!r}/{self.ordered[j].name!r}"
                    )
        raise FittingError("missing router cost in candidate block")

    # -- block argmin ------------------------------------------------------------

    def block_best(self, n: int) -> tuple[float, tuple[int, ...]]:
        """The block's minimal ``T_c`` and its lex-smallest counts row."""
        ws = self.workspace
        t = ws.t_cycle[:n]
        best = int(np.argmin(t))
        t_best = float(t[best])
        if np.count_nonzero(t == t_best) > 1:
            tied = np.flatnonzero(t == t_best)
            rows = np.stack(
                [ws.counts[k, tied] for k in range(len(self.ordered))], axis=1
            )
            order = np.lexsort(rows.T[::-1])
            best = int(tied[order[0]])
        return t_best, tuple(
            int(ws.counts[k, best]) for k in range(len(self.ordered))
        )


def _better(
    t: float, counts: tuple[int, ...], best_t: float, best: Optional[tuple[int, ...]]
) -> bool:
    """The search's ordering: strictly smaller T_c, lex on exact ties."""
    if best is None or t < best_t:
        return True
    return t == best_t and counts < best


def _stream_search(
    est: ArrayCycleEstimator,
    plan: collapse.CollapsePlan,
    lim: np.ndarray,
    *,
    metrics,
) -> ArraySearchResult:
    """Score ``plan``'s canonical rows under ``lim``, keeping only the
    running winner.

    Once the space spans more than :data:`_AUTO_PRUNE_BLOCKS` workspace
    blocks the prune is on: the cluster-prefix scan runs first through
    the same workspace, and its best ``T_c`` (plus slack) is the
    threshold :func:`~repro.partition.collapse.iter_canonical_blocks`
    prunes at.
    """
    from repro.telemetry import NULL_REGISTRY

    registry = metrics if metrics is not None else NULL_REGISTRY
    m_chunks = registry.counter(
        "decide.array.chunks", domain="host", help="candidate blocks streamed"
    )
    m_rows = registry.counter(
        "decide.array.rows", domain="host", help="candidate rows scored"
    )
    m_block_rows = registry.histogram(
        "decide.array.block_rows",
        domain="host",
        buckets=(64, 256, 1024, 4096, 8192),
        help="rows per streamed workspace block",
    )
    max_rows = est.workspace.max_rows
    prune = plan.collapsed_space() - 1 > _AUTO_PRUNE_BLOCKS * max_rows
    best: Optional[tuple[int, ...]] = None
    best_t = np.inf
    evaluations = 0
    chunks = 0

    def take(n: int) -> float:
        nonlocal best, best_t, evaluations, chunks
        est.score_block(n)
        evaluations += n
        chunks += 1
        m_block_rows.observe(n)
        t_blk, counts_blk = est.block_best(n)
        if _better(t_blk, counts_blk, best_t, best):
            best_t, best = t_blk, counts_blk
        return t_blk

    keep_at = np.inf
    with np.errstate(invalid="ignore", divide="ignore"):
        if prune:
            prefix_rows = prefix_count_matrix(lim)
            incumbent = np.inf
            for start in range(0, prefix_rows.shape[0], max_rows):
                block = prefix_rows[start : start + max_rows]
                incumbent = min(incumbent, take(est.load_rows(block)))
            keep_at = incumbent * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK
        for n in collapse.iter_canonical_blocks(est, plan, keep_at):
            take(n)
    if best is None:
        raise PartitionError("no candidate configurations")
    m_chunks.inc(chunks)
    m_rows.inc(evaluations)
    if plan.collapses:
        method = "collapse-exact"
    else:
        method = "array-pruned" if prune else "array-scan"
    return ArraySearchResult(
        counts=best,
        t_cycle_ms=best_t,
        evaluations=evaluations,
        method=method,
    )


class ArraySearchEngine:
    """The exact search engine: lowering + collapse plan + workspace,
    reused across decides.

    Construction lowers the pool once and detects its equivalence classes
    (:func:`~repro.partition.collapse.detect_equivalence_classes`; the
    trivial one-class-per-cluster plan when detection proves nothing).
    :meth:`decide_counts` then answers each availability by one rule:
    plan, level sweep, canonical stream.  :meth:`search` is the ordered
    reference scan.
    """

    def __init__(
        self,
        computation: DataParallelComputation,
        resources: Sequence[ClusterResources],
        cost_db: CostDatabase,
        *,
        metrics=None,
    ) -> None:
        from repro.telemetry import NULL_REGISTRY

        self.estimator = ArrayCycleEstimator(computation, resources, cost_db)
        self._trivial = collapse.CollapsePlan.singletons(self.estimator.limits)
        self.plan = (
            collapse.detect_equivalence_classes(self.estimator) or self._trivial
        )
        self.metrics = metrics
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_savings = registry.counter(
            "decide.collapse.symmetry_savings",
            domain="host",
            help="candidate configurations skipped via orbit symmetry (capped)",
        )
        registry.gauge(
            "decide.collapse.logical_clusters",
            domain="host",
            help="equivalence classes the physical clusters collapsed to",
        ).set(len(self.plan.classes))
        multiplicity = registry.histogram(
            "decide.collapse.class_multiplicity",
            domain="host",
            buckets=(1, 2, 4, 8, 16, 64, 256),
            help="interchangeable clusters per equivalence class",
        )
        for cls in self.plan.classes:
            multiplicity.observe(cls.multiplicity)

    def compatible(self, ordered: Sequence[ClusterResources]) -> bool:
        """Whether this engine's lowering is still valid for the pool:
        same clusters in the same order, availability within the lowered
        bounds (shrinks reuse; growth needs fresh speed prefixes)."""
        est = self.estimator
        if len(est.ordered) != len(ordered):
            return False
        for built, now in zip(est.ordered, ordered):
            if built.name != now.name or built.load_adjusted != now.load_adjusted:
                return False
        limits = np.array([r.n_available for r in ordered], dtype=np.int64)
        return bool(np.all(limits <= est.limits))

    def search(self) -> ArraySearchResult:
        """The ordered scan at the lowered limits: the trivial plan
        streamed, pruned past the size cutoff — the reference the
        collapsed paths are checked against."""
        est = self.estimator
        return _stream_search(est, self._trivial, est.limits, metrics=self.metrics)

    def decide_counts(
        self, limits: Optional[Sequence[int]] = None
    ) -> ArraySearchResult:
        """The optimum under ``limits`` (default: full availability).

        1. **Plan** — the detected plan if uniform at ``limits``, else the
           trivial plan, both at ``limits``.
        2. **Level sweep** — when the plan's canonical space exceeds
           :data:`EXACT_BUDGET` rows, unless a level-mode gate fails.
        3. **Stream** — the plan's canonical rows through
           :meth:`ArrayCycleEstimator.score_block`.
        """
        est = self.estimator
        lim = est.limits if limits is None else np.asarray(limits, dtype=np.int64)
        if np.any(lim < 0) or np.any(lim > est.limits):
            raise PartitionError("limits outside the lowered availability bounds")
        plan = (self.plan if self.plan.uniform(lim) else self._trivial).at_limits(lim)
        if plan.collapsed_space() - 1 > EXACT_BUDGET:
            level = collapse.level_search(est, plan, lim)
            if level is not None:
                counts, t, evaluations = level
                self._record_savings(plan, evaluations)
                return ArraySearchResult(
                    counts=counts,
                    t_cycle_ms=t,
                    evaluations=evaluations,
                    method="collapse-level",
                )
        result = _stream_search(est, plan, lim, metrics=self.metrics)
        if plan.collapses:
            self._record_savings(plan, result.evaluations)
        return result

    def _record_savings(self, plan: collapse.CollapsePlan, evaluations: int) -> None:
        if plan.log10_full_space() > 18.5:
            saved = _SAVINGS_CAP
        else:
            saved = min(_SAVINGS_CAP, max(0, plan.full_space() - 1 - evaluations))
        self._m_savings.inc(saved)


def exact_search(
    computation: DataParallelComputation,
    ordered: Sequence[ClusterResources],
    cost_db: CostDatabase,
    *,
    cache=None,
    metrics=None,
) -> ArraySearchResult:
    """The exact optimum over the ordered clusters.

    With a :class:`~repro.partition.warmstart.SearchCache`, the lowered
    engine persists across calls under the cache's estimate namespace: an
    availability shrink with unchanged per-cluster terms searches the
    shrunk space on it, without lowering or detecting classes again.
    """
    if cache is None:
        return ArraySearchEngine(
            computation, ordered, cost_db, metrics=metrics
        ).decide_counts()
    namespace = cache.estimate_namespace(ordered)
    engine = cache.array_engine(namespace)
    if engine is not None and engine.compatible(ordered):
        limits = np.array([r.n_available for r in ordered], dtype=np.int64)
        return engine.decide_counts(limits)
    engine = ArraySearchEngine(computation, ordered, cost_db, metrics=metrics)
    cache.store_array_engine(namespace, engine)
    return engine.decide_counts()
