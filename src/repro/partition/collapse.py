"""Equivalence-class collapsed search over interchangeable clusters.

Wide-area pools (see :mod:`repro.hardware.topology`) contain hundreds of
logical clusters drawn from a handful of site *templates*: many clusters
share the same processor rates, the same availability, the same fitted
Eq 1 coefficients, and the same crossing costs to everybody else.  Such
clusters are **interchangeable**: permuting the per-cluster counts of a
candidate configuration among them cannot change any term of Eq 3-6
(speed sums, the max over per-cluster Eq 1 costs, and the max over active
pair crossings are all symmetric in the members of a class).  The ordered
search space — ``Π (N_i + 1)`` rows over physical clusters — therefore
splits into orbits, and it suffices to score one canonical member per
orbit: per class, the **multiset** of member counts, i.e. a
combination-with-repetition.  The space collapses from ``Π (N_j + 1)^m_j``
to ``Π C(N_j + m_j, m_j)`` — up to ``m!`` per class.

Two collapsed modes, behind one engine:

* **exact mode** — enumerate canonical rows (per-class count multisets,
  ascending within the class so each row is its orbit's lex-smallest
  member), stream them through the real
  :class:`~repro.partition.arrayengine.ArrayCycleEstimator` kernels with
  the same prefix-scan incumbent and ``T_comp`` lower-bound prune, and
  keep the :class:`~repro.partition.arrayengine.FrontierState` contract so
  availability shrinks are answered incrementally.  Because the canonical
  set contains the lex-smallest member of every orbit, the lex-min over
  canonical rows *is* the global lex-min — the collapsed decision matches
  the uncollapsed one (``tests/partition/test_collapse.py`` pins this
  bit-exactly; see the float-order caveat in docs/performance.md).
* **level mode** — for the wide-area scale where even the collapsed space
  is astronomic: under the gates checked by :meth:`CollapsedSearchEngine`
  (constant per-PDU complexity, constant rounds, no bandwidth-limited
  topology, no fitted-quirk clusters, ``beta_k >= 0``), a class's optimal
  configurations are *balanced* — every selected member runs the same
  count — so a candidate is a per-class activation pattern (off / one
  member / all members) plus per-class counts, and for a fixed pattern
  the comm term depends only on the max per-cluster Eq 1 value ``v``.
  Sweeping the sorted per-class Eq-1 levels ``v`` and taking each class's
  largest count with ``f_j(k) <= v`` yields an upper-bounding grid whose
  minimum provably equals the true optimum value (the bound is tight at
  the optimum's own level).  Cost: ``O(3^C · levels)`` for ``C`` classes —
  independent of the physical cluster count, which is what turns the
  1000-cluster decision interactive.

The expansion back to a physical decision vector places ascending counts
at ascending member positions (σ=1 activates the *last* member), so every
returned row is its orbit's lex-smallest member, matching the engines'
shared tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb, log10
from typing import Optional, Sequence

import numpy as np

from repro.benchmarking.database import CostDatabase
from repro.errors import PartitionError
from repro.model.computation import DataParallelComputation
from repro.partition.arrayengine import (
    _AUTO_PRUNE_BLOCKS,
    _PRUNE_SLACK,
    DEFAULT_MAX_ROWS,
    ArrayCycleEstimator,
    ArraySearchResult,
    FrontierState,
    _better,
    _streamed_search,
    engine_compatible,
)
from repro.partition.available import ClusterResources
from repro.units import US_PER_MS

__all__ = [
    "EquivalenceClass",
    "CollapsePlan",
    "detect_equivalence_classes",
    "CollapsedSearchEngine",
    "collapsed_exhaustive_search",
]

#: Collapsed spaces up to this many canonical rows run exact mode (the
#: streamed kernel scan); beyond it the level-mode analytic sweep takes
#: over (or, when its gates fail, the uncollapsed search).
DEFAULT_EXACT_BUDGET = 200_000

#: Level mode enumerates 3^C activation patterns; cap C so the sweep
#: itself stays interactive.
_MAX_LEVEL_CLASSES = 8

#: The symmetry-savings telemetry counter is capped here — full spaces at
#: wide-area scale overflow anything resembling a counter.
_SAVINGS_CAP = 10**18

#: Above this many physical clusters the level-mode winner is re-scored
#: through the closed-form replay instead of the kernel fallback (whose
#: Python crossing loop is O(K²) per row).
_ANALYTIC_MIN_CLUSTERS = 32


@dataclass(frozen=True)
class EquivalenceClass:
    """One group of interchangeable clusters (positions in search order)."""

    indices: tuple[int, ...]  #: ascending positions in the ordered list.
    limit: int  #: shared availability ``N_j`` of every member.

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class CollapsePlan:
    """The detected partition of the ordered clusters into classes."""

    classes: tuple[EquivalenceClass, ...]
    n_clusters: int

    def collapsed_space(self) -> int:
        """Canonical rows (count multisets per class), incl. the empty row."""
        space = 1
        for cls in self.classes:
            space *= comb(cls.limit + cls.multiplicity, cls.multiplicity)
        return space

    def full_space(self) -> int:
        """Ordered rows the uncollapsed search would enumerate."""
        space = 1
        for cls in self.classes:
            space *= (cls.limit + 1) ** cls.multiplicity
        return space

    def log10_full_space(self) -> float:
        total = 0.0
        for cls in self.classes:
            total += cls.multiplicity * log10(cls.limit + 1)
        return total

    def at_limits(self, limits: np.ndarray) -> "CollapsePlan":
        """The plan under uniformly shrunk availability (caller checks
        uniformity within each class)."""
        return CollapsePlan(
            classes=tuple(
                EquivalenceClass(cls.indices, int(limits[cls.indices[0]]))
                for cls in self.classes
            ),
            n_clusters=self.n_clusters,
        )

    def uniform(self, limits: np.ndarray) -> bool:
        """Whether ``limits`` shrink every class uniformly (the condition
        under which class members stay interchangeable)."""
        for cls in self.classes:
            first = limits[cls.indices[0]]
            for i in cls.indices[1:]:
                if limits[i] != first:
                    return False
        return True

    def expand(self, class_values: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Map per-class count multisets to the canonical physical row:
        ascending counts at ascending member positions (the orbit's
        lex-smallest member)."""
        row = [0] * self.n_clusters
        for cls, values in zip(self.classes, class_values):
            for pos, value in zip(cls.indices, sorted(values)):
                row[pos] = int(value)
        return tuple(row)


def _pair_signature(
    intercept: np.ndarray, slope: np.ndarray, k: int, members: np.ndarray
) -> tuple:
    """The set of (intercept, slope) crossing values cluster ``k`` sees
    toward ``members`` (itself excluded); used by partition refinement."""
    others = members[members != k]
    if others.size == 0:
        return ()
    pairs = np.stack([intercept[k, others], slope[k, others]], axis=1)
    uniq = np.unique(pairs, axis=0)
    return tuple(map(tuple, uniq))


def detect_equivalence_classes(
    est: ArrayCycleEstimator, *, rtol: float = 0.0, atol: float = 0.0
) -> Optional[CollapsePlan]:
    """Partition the lowered clusters into interchangeability classes.

    Two clusters land in one class only when every Eq 3-6 input is
    identical: availability, the per-node rate vector (covers
    load-adjustment), the fitted Eq 1 coefficients ``c1..c4`` (with the
    quirk and have-comm flags), and — via partition refinement to a fixed
    point — the router/coercion crossing costs toward every other class
    *and* within the class itself.  ``rtol``/``atol`` loosen only the
    rate/coefficient comparison (measured fits never reproduce exactly);
    crossing consistency stays exact.  Returns ``None`` when refinement
    cannot make every class-pair crossing uniform — the caller must then
    run the uncollapsed search.
    """
    k_n = len(est.ordered)
    coeffs = np.stack([est._c1, est._c2, est._c3, est._c4], axis=1)
    reps: list[dict] = []
    labels = np.empty(k_n, dtype=np.int64)
    for k in range(k_n):
        rates = est._cluster_rates[k]
        for g, rep in enumerate(reps):
            if (
                rep["limit"] == int(est.limits[k])
                and rep["quirk"] == bool(est._quirk[k])
                and rep["have_comm"] == bool(est._have_comm[k])
                and rep["rates"].shape == rates.shape
                and np.allclose(rep["rates"], rates, rtol=rtol, atol=atol)
                and np.allclose(
                    rep["coeffs"], coeffs[k], rtol=rtol, atol=atol, equal_nan=True
                )
            ):
                labels[k] = g
                break
        else:
            labels[k] = len(reps)
            reps.append(
                {
                    "limit": int(est.limits[k]),
                    "quirk": bool(est._quirk[k]),
                    "have_comm": bool(est._have_comm[k]),
                    "rates": rates,
                    "coeffs": coeffs[k],
                }
            )

    # Refine on crossing costs until stable: a cluster's signature is its
    # current label plus, per class, the set of crossing values it sees
    # toward that class.  Interchangeable members must see identical sets.
    intercept = np.where(np.isnan(est._cross_intercept), np.inf, est._cross_intercept)
    slope = np.where(np.isnan(est._cross_slope), np.inf, est._cross_slope)
    for _ in range(k_n):
        members_of = {
            g: np.flatnonzero(labels == g) for g in np.unique(labels)
        }
        sig_to_label: dict[tuple, int] = {}
        new_labels = np.empty_like(labels)
        for k in range(k_n):
            sig = (int(labels[k]),) + tuple(
                _pair_signature(intercept, slope, k, members_of[g])
                for g in sorted(members_of)
            )
            new_labels[k] = sig_to_label.setdefault(sig, len(sig_to_label))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    # Stability check: every within- and cross-class block must now be a
    # single crossing value (otherwise members are *not* interchangeable).
    members = [np.flatnonzero(labels == g) for g in np.unique(labels)]
    for a, idx_a in enumerate(members):
        for idx_b in members[a:]:
            seen: set[tuple] = set()
            for k in idx_a:
                sig = _pair_signature(intercept, slope, int(k), idx_b)
                if len(sig) > 1:
                    return None
                seen.update(sig)
            if len(seen) > 1:
                return None

    order = sorted(members, key=lambda idx: int(idx[0]))
    classes = tuple(
        EquivalenceClass(
            indices=tuple(int(i) for i in idx),
            limit=int(est.limits[idx[0]]),
        )
        for idx in order
    )
    return CollapsePlan(classes=classes, n_clusters=k_n)


def _limited_prefix_rows(limits: np.ndarray) -> np.ndarray:
    """The §5 cluster-prefix scan rows under explicit limits (clusters
    before ``k`` fully allocated, cluster ``k`` sweeping ``1..N_k``)."""
    k_n = len(limits)
    rows: list[np.ndarray] = []
    base = np.zeros(k_n, dtype=np.int64)
    for k in range(k_n):
        for p in range(1, int(limits[k]) + 1):
            row = base.copy()
            row[k] = p
            rows.append(row)
        base[k] = limits[k]
    if not rows:
        return np.empty((0, k_n), dtype=np.int64)
    return np.stack(rows, axis=0)


class CollapsedSearchEngine:
    """A persistent collapsed engine: lowering + plan + frontier, reused
    across decides.

    Drop-in for :class:`~repro.partition.arrayengine.ArraySearchEngine`
    (same ``decide_counts`` contract, same frontier semantics); detection
    happens once at construction, and every decide picks the cheapest
    sound mode: frontier hit, exact canonical scan, level sweep, or the
    uncollapsed streamed search when no collapse applies.
    """

    def __init__(
        self,
        computation: DataParallelComputation,
        resources: Sequence[ClusterResources],
        cost_db: CostDatabase,
        *,
        startup_ms: float = 0.0,
        max_rows: int = DEFAULT_MAX_ROWS,
        metrics=None,
        exact_budget: int = DEFAULT_EXACT_BUDGET,
        rtol: float = 0.0,
        atol: float = 0.0,
    ) -> None:
        from repro.telemetry import NULL_REGISTRY

        self.estimator = ArrayCycleEstimator(
            computation, resources, cost_db, startup_ms=startup_ms, max_rows=max_rows
        )
        self.plan = detect_equivalence_classes(self.estimator, rtol=rtol, atol=atol)
        self.exact_budget = exact_budget
        self.metrics = metrics
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_logical = registry.gauge(
            "decide.collapse.logical_clusters",
            domain="host",
            help="equivalence classes the physical clusters collapsed to",
        )
        self._m_mult = registry.histogram(
            "decide.collapse.class_multiplicity",
            domain="host",
            buckets=(1, 2, 4, 8, 16, 64, 256),
            help="interchangeable clusters per equivalence class",
        )
        self._m_savings = registry.counter(
            "decide.collapse.symmetry_savings",
            domain="host",
            help="candidate configurations skipped via orbit symmetry (capped)",
        )
        self._m_hits = registry.counter(
            "decide.collapse.frontier_hits",
            domain="host",
            help="collapsed decides served by the incremental frontier",
        )
        self.frontier: Optional[FrontierState] = None
        if self.plan is not None:
            self._m_logical.set(len(self.plan.classes))
            for cls in self.plan.classes:
                self._m_mult.observe(cls.multiplicity)

    # -- decide ------------------------------------------------------------------

    def decide_counts(
        self,
        limits: Optional[Sequence[int]] = None,
        *,
        prune: str | bool = "auto",
    ) -> ArraySearchResult:
        est = self.estimator
        lim = est.limits if limits is None else np.asarray(limits, dtype=np.int64)
        if np.any(lim < 0) or np.any(lim > est.limits):
            raise PartitionError("limits outside the lowered availability bounds")
        uniform = self.plan is not None and self.plan.uniform(lim)
        if self.frontier is not None and (self.plan is None or uniform):
            hit = self.frontier.shrink_best(lim)
            if hit is not None:
                self._m_hits.inc()
                counts, t = hit
                return ArraySearchResult(
                    counts=counts,
                    t_cycle_ms=t,
                    evaluations=0,
                    chunks=0,
                    frontier_hit=True,
                    method="collapse-frontier",
                )
        if self.plan is None or not uniform:
            # No sound collapse under these limits: uncollapsed semantics.
            return self._uncollapsed(lim, prune)
        plan = self.plan.at_limits(lim)
        space = plan.collapsed_space() - 1  # minus the empty row
        if space <= self.exact_budget:
            result, frontier = self._exact_search(plan, lim, prune=prune)
            self.frontier = frontier
            self._record_savings(plan, result.evaluations)
            return result
        result = self._level_search(plan, lim)
        if result is not None:
            self._record_savings(plan, result.evaluations)
            return result
        return self._uncollapsed(lim, prune)

    def _record_savings(self, plan: CollapsePlan, evaluations: int) -> None:
        if plan.log10_full_space() > 18.5:
            saved = _SAVINGS_CAP
        else:
            saved = min(_SAVINGS_CAP, max(0, plan.full_space() - 1 - evaluations))
        self._m_savings.inc(saved)

    def _uncollapsed(
        self, lim: np.ndarray, prune: str | bool
    ) -> ArraySearchResult:
        est = self.estimator
        if np.array_equal(lim, est.limits):
            result, frontier = _streamed_search(
                est, prune=prune, collect_frontier=True, metrics=self.metrics
            )
            self.frontier = frontier
            return result
        best: Optional[tuple[int, ...]] = None
        best_t = np.inf
        evaluations = 0
        chunks = 0
        with np.errstate(invalid="ignore", divide="ignore"):
            for n in est.iter_full_blocks(lim):
                est.score_block(n)
                evaluations += n
                chunks += 1
                t_blk, counts_blk = est.block_best(n)
                if _better(t_blk, counts_blk, best_t, best):
                    best_t, best = t_blk, counts_blk
        if best is None:
            raise PartitionError("no candidate configurations")
        est.evaluations += evaluations
        return ArraySearchResult(
            counts=best,
            t_cycle_ms=best_t,
            evaluations=evaluations,
            chunks=chunks,
            frontier_hit=False,
            method="array-scan",
        )

    # -- exact mode --------------------------------------------------------------

    def _exact_search(
        self, plan: CollapsePlan, lim: np.ndarray, *, prune: str | bool
    ) -> tuple[ArraySearchResult, Optional[FrontierState]]:
        """Stream the canonical rows through the array kernels.

        Same structure as the uncollapsed streamed search — prefix-scan
        incumbent, per-level ``T_comp`` lower-bound prune with the shared
        slack, lex tie-break through ``block_best`` — except the
        enumeration walks per-class count multisets instead of ordered
        tuples.
        """
        est = self.estimator
        ws = est.workspace
        k_n = len(est.ordered)
        classes = plan.classes
        combos: list[np.ndarray] = []
        combo_speed: list[np.ndarray] = []
        combo_total: list[np.ndarray] = []
        for cls in classes:
            arr = np.array(
                list(
                    combinations_with_replacement(
                        range(cls.limit + 1), cls.multiplicity
                    )
                ),
                dtype=np.int64,
            )
            prefix = est._speed_prefix[cls.indices[0]]
            combos.append(arr)
            combo_speed.append(prefix[arr].sum(axis=1))
            combo_total.append(arr.sum(axis=1))
        space = 1
        for arr in combos:
            space *= arr.shape[0]
        if prune == "auto":
            do_prune = space - 1 > _AUTO_PRUNE_BLOCKS * ws.max_rows
        else:
            do_prune = bool(prune)

        best: Optional[tuple[int, ...]] = None
        best_t = np.inf
        evaluations = 0
        chunks = 0
        frontier_rows: list[np.ndarray] = []
        frontier_t: list[np.ndarray] = []
        keep_at = np.inf
        with np.errstate(invalid="ignore", divide="ignore"):
            if do_prune:
                incumbent = np.inf
                prefix_rows = _limited_prefix_rows(lim)
                for start in range(0, prefix_rows.shape[0], ws.max_rows):
                    block = prefix_rows[start : start + ws.max_rows]
                    n = est.load_rows(block)
                    t = est.score_block(n)
                    evaluations += n
                    chunks += 1
                    t_blk, counts_blk = est.block_best(n)
                    incumbent = min(incumbent, t_blk)
                    if _better(t_blk, counts_blk, best_t, best):
                        best_t, best = t_blk, counts_blk
                    frontier_rows.append(est.block_rows(n))
                    frontier_t.append(t[:n].copy())
                keep_at = incumbent * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK

            # Level-by-level product over classes, pruning each partial
            # combo by its T_comp lower bound (remaining classes fully
            # allocated — the same exactness argument as the ordered B&B).
            max_speed = np.array([s[-1] for s in combo_speed])
            rest = np.concatenate((np.cumsum(max_speed[::-1])[::-1][1:], [0.0]))
            selection = np.zeros((1, 0), dtype=np.int64)
            partial_speed = np.zeros(1)
            for j in range(len(classes)):
                idx_j = np.arange(combos[j].shape[0], dtype=np.int64)
                new_speed = (
                    partial_speed[:, None] + combo_speed[j][None, :]
                ).ravel()
                n_old = selection.shape[0]
                expanded = np.empty(
                    (n_old * idx_j.size, j + 1), dtype=np.int64
                )
                expanded[:, :j] = np.repeat(selection, idx_j.size, axis=0)
                expanded[:, j] = np.tile(idx_j, n_old)
                if do_prune:
                    bound = est.t_comp_lower_bound(new_speed, rest[j])
                    keep = ~(bound > keep_at) | np.isnan(bound)
                    selection = expanded[keep]
                    partial_speed = new_speed[keep]
                else:
                    selection = expanded
                    partial_speed = new_speed

            totals = np.zeros(selection.shape[0], dtype=np.int64)
            for j in range(len(classes)):
                totals += combo_total[j][selection[:, j]]
            selection = selection[totals >= 1]

            positions = [
                np.array(cls.indices, dtype=np.int64) for cls in classes
            ]
            for start in range(0, selection.shape[0], ws.max_rows):
                chunk = selection[start : start + ws.max_rows]
                rows = np.empty((chunk.shape[0], k_n), dtype=np.int64)
                for j, pos in enumerate(positions):
                    rows[:, pos] = combos[j][chunk[:, j]]
                n = est.load_rows(rows)
                t = est.score_block(n)
                evaluations += n
                chunks += 1
                t_blk, counts_blk = est.block_best(n)
                if _better(t_blk, counts_blk, best_t, best):
                    best_t, best = t_blk, counts_blk
                frontier_rows.append(est.block_rows(n))
                frontier_t.append(t[:n].copy())
        if best is None:
            raise PartitionError("no candidate configurations")
        est.evaluations += evaluations
        frontier = FrontierState(
            limits=tuple(int(v) for v in lim),
            rows=np.concatenate(frontier_rows, axis=0),
            t_cycle=np.concatenate(frontier_t),
            keep_at=float(keep_at),
        )
        result = ArraySearchResult(
            counts=best,
            t_cycle_ms=best_t,
            evaluations=evaluations,
            chunks=chunks,
            frontier_hit=False,
            method="collapse-exact",
        )
        return result, frontier

    # -- level mode --------------------------------------------------------------

    def _level_search(
        self, plan: CollapsePlan, lim: np.ndarray
    ) -> Optional[ArraySearchResult]:
        """The analytic per-class level sweep; ``None`` when a gate fails.

        Balanced dominance: with ``beta_k >= 0`` a class's Eq 1 value
        depends only on the *largest* member count, while the speed sum
        grows with every count — so any multi-member activation is weakly
        dominated by all members at the max count, and any single-member
        activation by the class's last member (lex).  Candidates reduce to
        activation patterns σ ∈ {off, one, all}^C with one count per
        class.  For a fixed pattern the crossing max is fixed; sweeping
        the sorted union of per-class Eq 1 levels ``v`` (each class at its
        largest count with ``f_j(k) <= v``) upper-bounds every candidate
        and is tight at the optimum's own level, so the grid minimum's
        expansion is a true optimum.  The winner is re-scored through the
        real estimator, so the reported ``t_cycle`` is engine arithmetic,
        not the sweep's.
        """
        est = self.estimator
        classes = plan.classes
        n_cls = len(classes)
        if n_cls > _MAX_LEVEL_CLASSES:
            return None
        if int(sum(cls.limit * cls.multiplicity for cls in classes)) < 1:
            raise PartitionError("no candidate configurations")
        phase = est.comm_phase
        if phase is None:
            # No comm phase: T_c falls with every added processor; the
            # unique optimum is full allocation (canonical already).
            counts = tuple(int(v) for v in lim)
            t = self._score_row(np.asarray(lim, dtype=np.int64))
            return ArraySearchResult(
                counts=counts,
                t_cycle_ms=t,
                evaluations=1,
                chunks=1,
                frontier_hit=False,
                method="collapse-level",
            )
        if est._b_const is None or callable(phase.rounds):
            return None
        if est.overlapped:
            # Overlap makes T_c = max(T_comp, T_comm): comm-bound optima sit
            # on a plateau of equal-T rows whose lex-smallest member can
            # activate *part* of a class (zeros at the early members), a
            # shape the off/one/all pattern sweep cannot represent.  Exact
            # mode (or the uncollapsed scan) owns the tie-break there.
            return None
        if est.topology.bandwidth_limited:
            return None
        if bool(est._quirk.any()) or not bool(est._have_comm.all()):
            return None
        if not bool(np.all(est._beta >= 0.0)):
            return None

        reps = [cls.indices[0] for cls in classes]
        alpha = np.array([est._alpha[r] for r in reps])
        beta = np.array([est._beta[r] for r in reps])
        mult = np.array([cls.multiplicity for cls in classes], dtype=np.int64)
        limits = np.array([cls.limit for cls in classes], dtype=np.int64)
        prefixes = [est._speed_prefix[r] for r in reps]
        b = est._b_const
        rounds = est._rounds_const
        extra_station = bool(est.cost_db.router_extra_station)

        # Class-pair crossing costs at the folded message size; a missing
        # fit anywhere the sweep could activate disables level mode (the
        # uncollapsed search would raise on those rows, and falling back
        # keeps the two paths' behaviour aligned).
        cross = np.zeros((n_cls, n_cls))
        for a in range(n_cls):
            for c in range(a, n_cls):
                if a == c:
                    if mult[a] < 2:
                        continue
                    i, j = classes[a].indices[0], classes[a].indices[1]
                else:
                    i, j = reps[a], reps[c]
                intercept = est._cross_intercept[i, j]
                if np.isnan(intercept):
                    return None
                cross[a, c] = cross[c, a] = (
                    intercept + est._cross_slope[i, j] * b
                )

        # Per class: Eq 1 levels for a *multi*-cluster pattern (p_eff has
        # the router extra station, floor 2) at counts 1..N, plus speed.
        f_multi: list[np.ndarray] = []
        speeds: list[np.ndarray] = []
        for j in range(n_cls):
            ks = np.arange(1, limits[j] + 1, dtype=np.int64)
            p_eff = ks + 1 if extra_station else ks
            p_eff = np.maximum(p_eff, 2)
            f_multi.append(alpha[j] + beta[j] * p_eff)
            speeds.append(prefixes[j][ks])

        # Candidates are kept as per-class (active members, count) tuples;
        # expansion to a K-length physical row is deferred to the min-t
        # ties only — at a thousand clusters, expanding all ~3^C patterns
        # costs more than the whole sweep.
        best_t = np.inf
        tied: list[tuple[tuple[int, int], ...]] = []
        cells = 0

        def consider(t_grid: float, class_counts: tuple[tuple[int, int], ...]):
            # class_counts: per class (active members, count each).
            nonlocal best_t, tied
            if t_grid < best_t:
                best_t, tied = t_grid, [class_counts]
            elif t_grid == best_t:
                tied.append(class_counts)

        comp_of = est.t_comp_lower_bound  # exact T_comp at a known speed sum

        # Single-station candidates: one member of one class, count k.
        # k = 1 is the totals<=1 case (comm masked to zero entirely).
        for j in range(n_cls):
            if limits[j] < 1:
                continue
            ks = np.arange(1, limits[j] + 1, dtype=np.int64)
            with np.errstate(invalid="ignore", divide="ignore"):
                comp = comp_of(speeds[j], 0.0)
            f_solo = alpha[j] + beta[j] * ks
            comm = np.where(ks > 1, rounds * f_solo, 0.0)
            t = np.maximum(comp, comm) if est.overlapped else comp + comm
            cells += int(ks.size)
            i = int(np.argmin(t))
            counts = (((0, 0),) * j) + ((1, int(ks[i])),) + (((0, 0),) * (n_cls - j - 1))
            consider(float(t[i]), counts)

        # Multi-station patterns: σ_j ∈ {off, one member, all members}.
        sigma_options = [(0, 1) if m == 1 else (0, 1, 2) for m in mult]
        active_cache: dict[tuple[int, ...], tuple] = {}
        for sigma in product(*sigma_options):
            active = tuple(j for j in range(n_cls) if sigma[j])
            if not active or any(limits[j] < 1 for j in active):
                continue
            stations = sum(1 if sigma[j] == 1 else int(mult[j]) for j in active)
            if stations < 2:
                continue  # single-station handled above
            cached = active_cache.get(active)
            if cached is None:
                levels = np.unique(np.concatenate([f_multi[j] for j in active]))
                kmax = {
                    j: np.searchsorted(f_multi[j], levels, side="right")
                    for j in active
                }
                feasible = np.ones(levels.shape[0], dtype=bool)
                speed_at = {}
                for j in active:
                    feasible &= kmax[j] >= 1
                    speed_at[j] = prefixes[j][kmax[j]]
                cached = (levels, kmax, speed_at, feasible)
                active_cache[active] = cached
            levels, kmax, speed_at, feasible = cached
            if not feasible.any():
                continue
            crossing = 0.0
            for ai, j1 in enumerate(active):
                if sigma[j1] == 2:
                    crossing = max(crossing, cross[j1, j1])
                for j2 in active[ai + 1 :]:
                    crossing = max(crossing, cross[j1, j2])
            speed = np.zeros(levels.shape[0])
            for j in active:
                speed += speed_at[j] * (int(mult[j]) if sigma[j] == 2 else 1)
            with np.errstate(invalid="ignore", divide="ignore"):
                comp = comp_of(speed, 0.0)
            comm = rounds * (levels + crossing)
            t = np.maximum(comp, comm) if est.overlapped else comp + comm
            t = np.where(feasible, t, np.inf)
            cells += int(feasible.sum())
            i = int(np.argmin(t))
            if not np.isfinite(t[i]):
                continue
            counts = tuple(
                (
                    (int(mult[j]) if sigma[j] == 2 else 1, int(kmax[j][i]))
                    if j in active
                    else (0, 0)
                )
                for j in range(n_cls)
            )
            consider(float(t[i]), counts)

        if not tied:
            raise PartitionError("no candidate configurations")
        best: Optional[tuple[int, ...]] = None
        for class_counts in tied:
            row = plan.expand(
                [
                    [count] * active + [0] * (int(mult[j]) - active)
                    for j, (active, count) in enumerate(class_counts)
                ]
            )
            if _better(best_t, row, best_t if best is not None else np.inf, best):
                best = row
        assert best is not None
        # Honest objective: the grid value upper-bounds the expanded row's
        # true T_c and is tight at the optimum level; report the engine's
        # own arithmetic for the winner.
        t_true = self._score_row(np.array(best, dtype=np.int64), analytic=True)
        return ArraySearchResult(
            counts=best,
            t_cycle_ms=t_true,
            evaluations=cells + 1,
            chunks=1,
            frontier_hit=False,
            method="collapse-level",
        )

    def _score_row(self, row: np.ndarray, *, analytic: bool = False) -> float:
        """One row through the array kernels (exact engine arithmetic).

        ``analytic=True`` (the level-mode winner) allows a closed-form
        replay of the same arithmetic when the kernel fallback's Python
        pair loop would dominate — at a thousand clusters the O(K²)
        crossing sweep inside
        :meth:`ArrayCycleEstimator._score_block_fallback` costs seconds,
        which is the whole decision budget.
        """
        est = self.estimator
        if analytic and len(est.ordered) > _ANALYTIC_MIN_CLUSTERS:
            t = self._score_row_analytic(row)
            if t is not None:
                return t
        # score_block, not the fallback directly: at K <= 16 it runs the
        # folded fast path whose rounding the array engine's own results
        # carry, and bit-parity with that engine is the contract tests pin.
        with np.errstate(invalid="ignore", divide="ignore"):
            n = est.load_rows(row[None, :].astype(np.int64))
            return float(est.score_block(n)[0])

    def _score_row_analytic(self, row: np.ndarray) -> Optional[float]:
        """Closed-form replay of the kernel fallback arithmetic for one row.

        Performs the *same IEEE operations in the same order* as
        :meth:`ArrayCycleEstimator._score_block_fallback` — per-cluster
        speed-prefix adds in cluster order, the unfolded Eq 1 form
        ``c1 + c2·p_eff + b·(c3 + c4·p_eff)``, the crossing max chained
        from 0.0 — only vectorized over clusters/pairs instead of looping
        in Python, so the result is bit-identical.  Returns ``None`` when
        any fallback branch this replay does not model could trigger
        (callable rounds, per-config b, bandwidth-limited topology, the
        bandwidth quirk, missing fits): the caller then uses the kernel.
        """
        est = self.estimator
        phase = est.comm_phase
        if phase is not None and (
            est._b_const is None
            or callable(phase.rounds)
            or est.topology.bandwidth_limited
        ):
            return None
        idx = np.flatnonzero(row > 0)
        if idx.size == 0:
            return None

        # Eq 3/4: identical accumulation order to the fallback (inactive
        # clusters add an exact 0.0, so skipping them changes nothing).
        speed = 0.0
        for k in idx:
            speed += est._speed_prefix[k][row[k]]
        t_comp = est.comp_complexity * est.num_pdus / speed / US_PER_MS

        total = int(row.sum())
        if phase is None or total <= 1:
            t_comm = 0.0
        else:
            if bool(est._quirk[idx].any()) or not bool(est._have_comm[idx].all()):
                return None
            b = est._b_const
            rounds = est._rounds_const
            multi = idx.size > 1
            extra = 1 if (multi and est.cost_db.router_extra_station) else 0
            p_eff = row[idx] + extra
            if multi:
                p_eff = np.maximum(p_eff, 2)
            per_byte = est._c3[idx] + est._c4[idx] * p_eff
            vals = est._c1[idx] + est._c2[idx] * p_eff + b * per_byte
            cost = float(vals.max())
            if multi:
                iu, ju = np.triu_indices(idx.size, k=1)
                inter = est._cross_intercept[idx[iu], idx[ju]]
                if np.isnan(inter).any():
                    return None
                pair = inter + est._cross_slope[idx[iu], idx[ju]] * b
                cost = cost + max(0.0, float(pair.max()))
            t_comm = rounds * cost

        est.evaluations += 1
        t_overlap = min(t_comp, t_comm) if est.overlapped else 0.0
        return float(t_comp + t_comm - t_overlap)


def collapsed_exhaustive_search(
    computation: DataParallelComputation,
    ordered: Sequence[ClusterResources],
    cost_db: CostDatabase,
    *,
    startup_ms: float = 0.0,
    prune: str | bool = "auto",
    cache=None,
    metrics=None,
    exact_budget: int = DEFAULT_EXACT_BUDGET,
) -> ArraySearchResult:
    """Streamed exhaustive optimum with equivalence-class collapsing.

    The collapsed twin of
    :func:`~repro.partition.arrayengine.array_exhaustive_search`: same
    decision contract, same :class:`~repro.partition.warmstart.SearchCache`
    engine persistence (under a collapsed-specific namespace slot, keyed —
    like every cache entry — by the cache's topology fingerprint), and the
    same incremental-frontier answer for availability shrinks.
    """
    if cache is not None:
        namespace = cache.estimate_namespace(ordered) + ("collapsed",)
        engine = cache.array_engine(namespace)
        limits = np.array([r.n_available for r in ordered], dtype=np.int64)
        if engine is not None and engine_compatible(engine, ordered, startup_ms):
            return engine.decide_counts(limits, prune=prune)
        engine = CollapsedSearchEngine(
            computation,
            ordered,
            cost_db,
            startup_ms=startup_ms,
            metrics=metrics,
            exact_budget=exact_budget,
        )
        cache.store_array_engine(namespace, engine)
        return engine.decide_counts(prune=prune)
    engine = CollapsedSearchEngine(
        computation,
        ordered,
        cost_db,
        startup_ms=startup_ms,
        metrics=metrics,
        exact_budget=exact_budget,
    )
    return engine.decide_counts(prune=prune)
