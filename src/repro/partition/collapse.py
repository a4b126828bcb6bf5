"""Equivalence classes of interchangeable clusters: the plan every exact
search runs on.

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

This module holds the pieces; the one exact engine,
:class:`~repro.partition.arrayengine.ArraySearchEngine`, runs them:

* :func:`detect_equivalence_classes` — partition refinement over the
  lowered estimator into a :class:`CollapsePlan`.  When it cannot prove a
  grouping sound the engine uses :meth:`CollapsePlan.singletons`, the
  trivial one-class-per-cluster plan whose canonical space *is* the
  ordered space.
* :func:`iter_canonical_blocks` — the one candidate enumerator: canonical
  rows (per-class count multisets, ascending within the class so each row
  is its orbit's lex-smallest member) streamed through the workspace with
  the ``T_comp`` lower-bound prune.  Because the canonical set contains
  the lex-smallest member of every orbit, the lex-min over canonical rows
  *is* the global lex-min — the collapsed decision matches the ordered
  one (``tests/partition/test_collapse.py`` pins this bit-exactly; see the
  float-order caveat in docs/performance.md).
* :func:`level_search` — for the wide-area scale where even the canonical
  space is astronomic: under its gates (constant per-PDU complexity,
  constant rounds, no overlap, no bandwidth-limited topology, no
  fitted-quirk clusters, ``beta_k >= 0``), a class's optimal
  configurations are *balanced* — every selected member runs the same
  count — so a candidate is a per-class activation pattern (off / one
  member / all members) plus per-class counts, and for a fixed pattern the
  comm term depends only on the max per-cluster Eq 1 value ``v``.
  Sweeping the sorted per-class Eq-1 levels ``v`` and taking each class's
  largest count with ``f_j(k) <= v`` yields an upper bound whose minimum
  provably equals the true optimum value (the bound is tight at the
  optimum's own level).  Cost: ``O(C · levels)`` for ``C`` classes when
  every crossing is one value (one row per level), else ``O(rows ·
  levels)`` over at most :data:`_MAX_LEVEL_ROWS` activation patterns —
  independent of the physical cluster count, which is what turns the
  1000-cluster decision interactive.  ``evaluations`` counts the cells
  actually scored.

The expansion back to a physical decision vector places ascending counts
at ascending member positions (σ=1 activates the *last* member), so every
returned row is its orbit's lex-smallest member, matching the engine's
lex tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, log10, prod
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.units import US_PER_MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.partition.arrayengine import ArrayCycleEstimator

__all__ = [
    "EquivalenceClass",
    "CollapsePlan",
    "detect_equivalence_classes",
    "iter_canonical_blocks",
    "level_search",
]

#: Most activation patterns level mode's grid may enumerate: the product
#: of per-class choices (3 for off / one member / all members, 2 for a
#: one-member class, 1 for a class with no processor).  3^8 is the most
#: the grid took when it was capped at eight classes.
_MAX_LEVEL_ROWS = 3**8

#: Cells per block of level mode's (patterns × levels) grid, so a large
#: grid never holds every pattern × level float at once.
_LEVEL_GRID_CELLS = 1 << 16


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
    """A partition of the ordered clusters into interchangeable classes."""

    classes: tuple[EquivalenceClass, ...]
    n_clusters: int

    @classmethod
    def singletons(cls, limits: Sequence[int]) -> "CollapsePlan":
        """The trivial plan: one class per cluster, so canonical rows are
        exactly the ordered rows."""
        return cls(
            classes=tuple(
                EquivalenceClass((k,), int(limit)) for k, limit in enumerate(limits)
            ),
            n_clusters=len(limits),
        )

    @property
    def collapses(self) -> bool:
        """Whether some class has two or more members."""
        return any(cls.multiplicity > 1 for cls in self.classes)

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


def detect_equivalence_classes(est: ArrayCycleEstimator) -> Optional[CollapsePlan]:
    """Partition the lowered clusters into interchangeability classes.

    Two clusters land in one class only when every Eq 3-6 input is
    identical: availability, the per-node rate vector (covers
    load-adjustment), the fitted Eq 1 coefficients ``c1..c4`` (with the
    quirk and have-comm flags), and — via partition refinement to a fixed
    point — the router/coercion crossing costs toward every other class
    *and* within the class itself.  Every comparison is exact.  Returns
    ``None`` when refinement cannot make every class-pair crossing
    uniform; the caller then searches the trivial plan.
    """
    k_n = len(est.ordered)
    # Groups of identical per-cluster inputs, numbered by first appearance.
    # Keys compare floats by == (a missing fit's NaN coefficients as None).
    coeffs = np.stack([est._c1, est._c2, est._c3, est._c4], axis=1)
    keys = zip(
        est.limits.tolist(),
        est._quirk.tolist(),
        est._have_comm.tolist(),
        (tuple(rates.tolist()) for rates in est._cluster_rates),
        map(tuple, np.where(np.isnan(coeffs), None, coeffs).tolist()),
    )
    groups: dict[tuple, int] = {}
    labels = np.array([groups.setdefault(key, len(groups)) for key in keys], dtype=np.int64)

    # One integer id per distinct (intercept, slope) crossing pair, by
    # float == on each field with NaN read as inf (a row-wise np.unique's
    # equality), over the upper triangle of the symmetric tables: pairs
    # sorted lexicographically, a new id wherever a field changes; -1 on
    # the diagonal.
    rows, cols = np.nonzero(np.arange(k_n)[:, None] < np.arange(k_n))
    pairs = np.stack([est._cross_intercept[rows, cols], est._cross_slope[rows, cols]])
    pairs[np.isnan(pairs)] = np.inf
    order = np.lexsort(pairs)
    ranked = pairs[:, order]
    fresh = np.ones(order.size, dtype=bool)
    np.any(ranked[:, 1:] != ranked[:, :-1], axis=0, out=fresh[1:])
    pair_ids = np.empty(order.size, dtype=np.int64)
    pair_ids[order] = np.cumsum(fresh) - 1
    n_ids = max(int(np.count_nonzero(fresh)), 1)
    ids = np.full((k_n, k_n), -1, dtype=np.int64)
    ids[rows, cols] = pair_ids
    ids[cols, rows] = pair_ids

    # Refine on crossing costs until stable: a cluster's signature is its
    # current label plus, toward each current class, the set of pair ids
    # it sees.  Interchangeable members must see identical sets.  Each
    # row's (class, pair id) codes are sorted; the first code of each run
    # is one set element (the diagonal's -1 sorts first and is dropped).
    for _ in range(k_n):
        codes = labels[None, :] * n_ids + ids
        codes.ravel()[:: k_n + 1] = -1
        codes.sort(axis=1)
        seen = codes[:, 1:]
        first = np.ones(seen.shape, dtype=bool)
        np.not_equal(seen[:, 1:], seen[:, :-1], out=first[:, 1:])
        elements = seen[first].tobytes()
        bounds = np.concatenate(([0], np.cumsum(first.sum(axis=1)))) * seen.itemsize
        sig_to_label: dict[tuple, int] = {}
        new_labels = np.array(
            [
                sig_to_label.setdefault((label, elements[lo:hi]), len(sig_to_label))
                for label, lo, hi in zip(labels.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
            ],
            dtype=np.int64,
        )
        if (new_labels == labels).all():
            break
        labels = new_labels

    # Stability check: every set must hold at most one pair id (otherwise
    # members are *not* interchangeable): no two distinct codes of one row
    # may name the same class.
    same_class = seen[:, 1:] // n_ids == seen[:, :-1] // n_ids
    if np.any(first[:, 1:] & same_class):
        return None

    members = [np.flatnonzero(labels == g) for g in range(int(labels.max()) + 1)]
    classes = tuple(
        EquivalenceClass(
            indices=tuple(idx.tolist()),
            limit=int(est.limits[idx[0]]),
        )
        for idx in members
    )
    return CollapsePlan(classes=classes, n_clusters=k_n)


# -- the canonical enumerator --------------------------------------------------


def iter_canonical_blocks(
    est: ArrayCycleEstimator, plan: CollapsePlan, keep_at: float
) -> Iterator[int]:
    """Stream ``plan``'s canonical rows into ``est``'s workspace, block by
    block, yielding each block's row count.

    Classes expand level by level; after each level every partial row
    whose ``T_comp`` lower bound (later classes fully allocated) exceeds
    ``keep_at`` is dropped with its subtree — exact because ``T_c >=
    T_comp`` and ``T_comp`` is non-increasing in every count; ``keep_at =
    inf`` keeps everything.  The last class is expanded a few prefixes at
    a time, so at most one workspace's worth of candidates exists at once,
    and the empty row is skipped.  On the trivial plan the rows are the
    ordered space in lexicographic order.  When the whole space fits one
    block and ``(plan, keep_at)`` is unchanged since that block was
    loaded, the block is yielded again without reloading.
    """
    resident = est._resident
    if resident is not None and resident[0] == plan and resident[1] == keep_at:
        yield resident[2]
        return
    max_rows = est.workspace.max_rows
    tables = [
        np.array(
            list(combinations_with_replacement(range(cls.limit + 1), cls.multiplicity)),
            dtype=np.int64,
        )
        for cls in plan.classes
    ]
    speeds = [
        est._speed_prefix[cls.indices[0]][table].sum(axis=1)
        for cls, table in zip(plan.classes, tables)
    ]
    positions = [list(cls.indices) for cls in plan.classes]
    full = np.array([speed[-1] for speed in speeds])
    rest = np.concatenate((np.cumsum(full[::-1])[::-1][1:], [0.0]))
    prune = keep_at < np.inf
    # Prefixes over every class but the last, as per-class table indices.
    selection = np.zeros((1, 0), dtype=np.int64)
    partial = np.zeros(1)
    for j in range(len(tables) - 1):
        size = tables[j].shape[0]
        partial = (partial[:, None] + speeds[j][None, :]).ravel()
        expanded = np.empty((selection.shape[0] * size, j + 1), dtype=np.int64)
        expanded[:, :j] = np.repeat(selection, size, axis=0)
        expanded[:, j] = np.tile(np.arange(size), selection.shape[0])
        selection = expanded
        if prune:
            keep = ~(est.t_comp_lower_bound(partial, rest[j]) > keep_at)
            selection, partial = selection[keep], partial[keep]
    last, last_speed = tables[-1], speeds[-1]
    # Rows per block: ``step`` prefixes times ``width`` last-class entries
    # (a last class with more entries than a block is split across blocks).
    width = min(last.shape[0], max_rows)
    step = max_rows // width
    whole = selection.shape[0] <= step and last.shape[0] <= width
    for start in range(0, selection.shape[0], step):
        chunk = selection[start : start + step]
        for lo in range(0, last.shape[0], width):
            part = last[lo : lo + width]
            # Cluster-major, like the workspace: every copy and every mask
            # runs over one contiguous column (masking a 2-D block is ~10x
            # slower).
            cols = np.empty((plan.n_clusters, chunk.shape[0] * part.shape[0]), dtype=np.int64)
            for j, pos in enumerate(positions[:-1]):
                cols[pos] = np.repeat(tables[j][chunk[:, j]].T, part.shape[0], axis=1)
            cols[positions[-1]] = np.tile(part.T, chunk.shape[0])
            first = 1 if start == lo == 0 and not chunk[0].any() else 0  # empty row
            cols = cols[:, first:]
            if prune:
                speed = partial[start : start + step, None] + last_speed[None, lo : lo + width]
                keep = ~(est.t_comp_lower_bound(speed.ravel()[first:], 0.0) > keep_at)
                cols = np.stack([col[keep] for col in cols])
            if cols.shape[1] == 0:
                continue
            n = est.load_rows(cols.T)
            if whole:
                est._resident = (plan, keep_at, n)
            yield n


# -- level mode ------------------------------------------------------------------


def level_search(
    est: ArrayCycleEstimator, plan: CollapsePlan, lim: np.ndarray
) -> Optional[tuple[tuple[int, ...], float, int]]:
    """The analytic per-class level sweep over ``plan`` (already at
    ``lim``): ``(counts, t_cycle_ms, evaluations)``, or ``None`` when a
    gate fails.

    Balanced dominance: with ``beta_k >= 0`` a class's Eq 1 value
    depends only on the *largest* member count, while the speed sum
    grows with every count — so any multi-member activation is weakly
    dominated by all members at the max count, and any single-member
    activation by the class's last member (lex).  Candidates reduce to
    activation patterns σ ∈ {off, one, all}^C with one count per
    class.  For a fixed pattern the crossing max is fixed; sweeping
    its active classes' Eq 1 levels ``v`` (each class at its largest
    count with ``f_j(k) <= v``) upper-bounds every candidate and is
    tight at the optimum's own level, so the minimum's expansion is a
    true optimum.

    The multi-station patterns are swept one of two ways over the sorted
    union of every class's levels:

    * **one row per level** when every crossing a multi-station pattern
      can read is one value (the wide-area backbone): every live pattern
      at a level then pays the same comm term, and the pattern with every
      class that reaches the level, all members on, has the largest speed
      sum, so it is the level's minimum (:func:`_row_sweep`).  Cost
      ``O(C · levels)``.
    * **the ``(patterns × levels)`` grid** for mixed crossings, and when
      the row's minimum is tied (:func:`_grid_sweep`), in blocks of
      :data:`_LEVEL_GRID_CELLS` cells.  Cost ``O(rows · levels)``, and
      more than :data:`_MAX_LEVEL_ROWS` rows return ``None``.

    ``evaluations`` counts the cells actually scored: one per
    single-station level, plus the row sweep's levels with two stations
    or more and its tie-check variants, or else the grid's live cells,
    plus one for the re-score.  Ties at the minimum resolve to the
    lex-smallest expanded row.  The winner is re-scored through
    :func:`_score_row`, so the reported ``t_cycle`` is engine arithmetic,
    not the sweep's.
    """
    classes = plan.classes
    n_cls = len(classes)
    if int(sum(cls.limit * cls.multiplicity for cls in classes)) < 1:
        raise PartitionError("no candidate configurations")
    phase = est.comm_phase
    if phase is None:
        # No comm phase: T_c falls with every added processor; the
        # unique optimum is full allocation (canonical already).
        counts = tuple(int(v) for v in lim)
        return counts, _score_row(est, np.asarray(lim, dtype=np.int64)), 1
    if est._b_const is None or callable(phase.rounds):
        return None
    if est.overlapped:
        # Overlap makes T_c = max(T_comp, T_comm): comm-bound optima sit
        # on a plateau of equal-T rows whose lex-smallest member can
        # activate *part* of a class (zeros at the early members), a
        # shape the off/one/all pattern sweep cannot represent.  The
        # canonical stream owns the tie-break there.
        return None
    if est.topology.bandwidth_limited:
        return None
    if bool(est._quirk.any()) or not bool(est._have_comm.all()):
        return None
    if not bool(np.all(est._beta >= 0.0)):
        return None

    reps = np.array([cls.indices[0] for cls in classes], dtype=np.int64)
    alpha = est._alpha[reps]
    beta = est._beta[reps]
    mult = np.array([cls.multiplicity for cls in classes], dtype=np.int64)
    limits = np.array([cls.limit for cls in classes], dtype=np.int64)
    prefixes = [est._speed_prefix[r] for r in reps]
    b = est._b_const
    rounds = est._rounds_const
    extra_station = bool(est.cost_db.router_extra_station)

    # Class-pair crossing costs at the folded message size, read at the
    # representatives from the upper triangle (classes are in search
    # order); a multi-member class's own cell from its first two members.
    # A missing fit anywhere the sweep could activate disables level mode
    # (the streamed search would raise on those rows, and falling back
    # keeps the two paths' behaviour aligned).
    lo = np.minimum.outer(reps, reps)
    hi = np.maximum.outer(reps, reps)
    hi[np.diag_indices(n_cls)] = [cls.indices[min(1, cls.multiplicity - 1)] for cls in classes]
    pair = ~np.eye(n_cls, dtype=bool) | np.diag(mult >= 2)
    intercept = est._cross_intercept[lo, hi]
    if np.isnan(intercept[pair]).any():
        return None
    cross = np.where(pair, intercept + est._cross_slope[lo, hi] * b, 0.0)
    # Crossings clamp at +0.0 like a max chain from 0.0.
    positive = np.where(cross > 0.0, cross, 0.0)

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
    # ties only — at a thousand clusters, expanding every pattern costs
    # more than the whole sweep.
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
        t = comp + comm
        cells += int(ks.size)
        i = int(np.argmin(t))
        counts = (((0, 0),) * j) + ((1, int(ks[i])),) + (((0, 0),) * (n_cls - j - 1))
        consider(float(t[i]), counts)

    # Multi-station patterns, over the sorted union of every class's Eq 1
    # levels: per class and level, the largest count with f_j(k) <= v
    # (0: the class does not reach v), whether v is one of the class's
    # own levels, and the class's speed at that count.
    levels = np.unique(np.concatenate(f_multi))
    kmax = np.stack([np.searchsorted(f, levels, side="right") for f in f_multi])
    own = np.stack(
        [np.concatenate(([np.nan], f))[k] == levels for f, k in zip(f_multi, kmax)]
    )
    speed_at = np.stack([prefix[k] for prefix, k in zip(prefixes, kmax)])
    sweep = (levels, kmax, own, speed_at, mult, rounds, comp_of)

    has = limits >= 1
    readable = positive[pair & has[:, None] & has[None, :]]
    row = None
    if readable.size == 0 or bool(np.all(readable == readable[0])):
        x = readable[0] if readable.size else 0.0
        row = _row_sweep(sweep, x, best_t)
    if row is not None:
        row_cells, winner = row
        cells += row_cells
        if winner is not None:
            consider(*winner)
    else:
        grid_cells = _grid_sweep(sweep, positive, limits, consider)
        if grid_cells is None:
            return None
        cells += grid_cells

    if not tied:
        raise PartitionError("no candidate configurations")
    best = min(
        plan.expand(
            [
                [count] * members + [0] * (int(mult[j]) - members)
                for j, (members, count) in enumerate(class_counts)
            ]
        )
        for class_counts in tied
    )
    # Honest objective: the sweep value upper-bounds the expanded row's
    # true T_c and is tight at the optimum level; report the engine's
    # own arithmetic for the winner.
    t_true = _score_row(est, np.array(best, dtype=np.int64))
    return best, t_true, cells + 1


def _row_sweep(sweep, x, best_t):
    """The multi-station minimum when every crossing a multi-station
    pattern can read is ``x``: ``(cells, (t, class_counts) or None)``, or
    ``None`` when the grid must decide.  ``sweep`` is
    :func:`level_search`'s ``(levels, kmax, own, speed_at, mult, rounds,
    comp_of)``; ``best_t`` is the best single-station value.

    At level ``v`` every live pattern pays ``rounds · (v + x)``, and each
    class term ``speed_at · w`` grows with the class weight ``w``, as do
    IEEE addition and division.  The all-reachable row (every class with
    ``f_j(1) <= v``, all members) summed class by class in class order
    therefore has the largest speed sum and the smallest ``T_c`` of every
    live pattern at ``v``; its cells are the grid's own arithmetic for
    that row.  The grid's answer is the lex-min expansion over *every*
    pattern at the minimum, so the row's winner stands only when it is
    unique: no other level's row equals it, and no live one-step-down
    variant at its level does (one class from all members to one, or a
    one-member class off — every live sub-pattern is dominated by one of
    these).  Otherwise, and when a speed or value is not finite (NaN or
    infinite node rates, overflow), the monotone argument does not hold
    and the grid decides.
    """
    levels, kmax, own, speed_at, mult, rounds, comp_of = sweep
    reach = kmax > 0
    if not np.all(~reach | ((speed_at > 0.0) & (speed_at < np.inf))):
        return None
    weight = np.where(reach, mult[:, None], 0)
    multi = np.flatnonzero(weight.sum(axis=0) >= 2)
    if multi.size == 0:
        return 0, None
    weight = weight[:, multi]
    speed = np.zeros(multi.size)
    for j in range(len(mult)):
        speed += speed_at[j, multi] * weight[j]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        t = comp_of(speed, 0.0) + rounds * (levels[multi] + x)
    if not np.all(np.isfinite(t)):
        return None
    at = int(np.argmin(t))
    low = t[at]
    if low > best_t:
        return multi.size, None  # a single station wins outright
    if np.count_nonzero(t == low) > 1:
        return None
    v = multi[at]
    full = weight[:, at]
    on = np.flatnonzero(full)
    variants = np.tile(full, (on.size, 1))
    variants[np.arange(on.size), on] = np.where(full[on] > 1, 1, 0)
    live = (variants.sum(axis=1) >= 2) & np.any((variants > 0) & own[:, v], axis=1)
    variants = variants[live]
    speed = np.zeros(variants.shape[0])
    for j in range(len(mult)):
        speed += speed_at[j, v] * variants[:, j]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        t_variant = comp_of(speed, 0.0) + rounds * (levels[v] + x)
    if np.any(t_variant == low):
        return None
    counts = tuple((int(m), int(kmax[j, v]) if m else 0) for j, m in enumerate(full))
    return multi.size + variants.shape[0], (float(low), counts)


def _grid_sweep(sweep, positive, limits, consider) -> Optional[int]:
    """Every multi-station pattern at every level, fed to ``consider``:
    the live cell count, or ``None`` past :data:`_MAX_LEVEL_ROWS` rows.

    One row per σ ∈ {off, one member, all members}^C with two stations or
    more (its per-class member counts), one column per level.  A cell is
    live when its level is one of the row's active classes' own levels
    and every active class reaches it.  Speeds add class by class in
    class order (a class without a processor is never active and would
    add an exact +0.0), so every live cell is the arithmetic of sweeping
    its active class set alone.
    """
    levels, kmax, own, speed_at, mult, rounds, comp_of = sweep
    free = np.flatnonzero(limits >= 1)
    choices = [sorted({0, 1, int(mult[j])}) for j in free]
    if prod(len(c) for c in choices) > _MAX_LEVEL_ROWS:
        return None
    weight = np.stack(
        [g.ravel() for g in np.meshgrid(*choices, indexing="ij")], axis=1
    ).reshape(-1, free.size)
    weight = weight[weight.sum(axis=1) >= 2]
    active = weight > 0
    sub = positive[np.ix_(free, free)]
    between = np.where(np.eye(free.size, dtype=bool), 0.0, sub)  # symmetric
    crossing = np.maximum(
        np.where(weight > 1, np.diag(sub), 0.0).max(axis=1),
        np.where(active[:, :, None] & active[:, None, :], between, 0.0).max(axis=(1, 2)),
    )
    cells = 0
    step = max(1, _LEVEL_GRID_CELLS // levels.size)
    for lo in range(0, weight.shape[0], step):
        w, on = weight[lo : lo + step], active[lo : lo + step]
        live = np.zeros((w.shape[0], levels.size), dtype=bool)
        dead = np.zeros_like(live)
        speed = np.zeros(live.shape)
        for a, j in enumerate(free):
            live |= on[:, a, None] & own[j]
            dead |= on[:, a, None] & (kmax[j] == 0)
            speed += speed_at[j] * w[:, a, None]
        live &= ~dead
        with np.errstate(invalid="ignore", divide="ignore"):
            comp = comp_of(speed, 0.0)
        comm = rounds * (levels + crossing[lo : lo + step, None])
        t = np.where(live, comp + comm, np.inf)
        cells += int(live.sum())
        at = np.argmin(t, axis=1)
        t_min = t[np.arange(w.shape[0]), at]
        low = float(t_min.min())
        if not np.isfinite(low):
            continue
        for r in np.flatnonzero(t_min == low):
            level = int(at[r])
            counts = [(0, 0)] * len(mult)
            for a, j in enumerate(free):
                n = int(w[r, a])
                counts[j] = (n, int(kmax[j, level]) if n else 0)
            consider(low, tuple(counts))
    return cells


def _score_row(est: ArrayCycleEstimator, row: np.ndarray) -> float:
    """One row through the engine's own arithmetic.

    Where :meth:`ArrayCycleEstimator.score_block` would take
    :meth:`ArrayCycleEstimator._score_block_fallback` (no folded fast
    path: more than ``_MAX_LUT_CLUSTERS`` clusters), the row goes
    through :func:`_score_row_analytic`, which performs the fallback's
    IEEE operations in the same order as array operations, without the
    fallback's O(K²) Python pair loop (seconds at a thousand clusters).
    """
    if not est.vectorized_fast_path:
        t = _score_row_analytic(est, row)
        if t is not None:
            return t
    # score_block, not the fallback directly: at K <= 16 it runs the
    # folded fast path whose rounding the streamed search's results
    # carry, and bit-parity with that search is the contract tests pin.
    with np.errstate(invalid="ignore", divide="ignore"):
        n = est.load_rows(row[None, :].astype(np.int64))
        return float(est.score_block(n)[0])


def _score_row_analytic(est: ArrayCycleEstimator, row: np.ndarray) -> Optional[float]:
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
