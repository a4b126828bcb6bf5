"""The cold exact-decision path against its loop-form oracles, bit for bit.

Array code does the work of a cold decision: the lowering of
:class:`~repro.partition.arrayengine.ArrayCycleEstimator` (crossing
matrices scattered from the database's entries, node rates and speed
prefixes in one pass), its crossing lookup tables (a subset-max
doubling), the crossing refinement of
:func:`~repro.partition.collapse.detect_equivalence_classes` (sets of
pair ids) and the ``(patterns × levels)`` grid of
:func:`~repro.partition.collapse.level_search`.  Each is checked here
against the loop it replaced, kept below as an oracle, over generated
pools: the lowered arrays and the tables must be bitwise-equal (float
arrays through their int64 views, so NaN and signed zeros sit in the
same cells), errors must carry the same text, the plans ``==``, and the
level sweep's ``(counts, t_cycle_ms)`` ``==`` to one sweep per active
class set whose winner the kernels score (its ``evaluations`` too where
the pattern grid ran).  Digests of a decision grid's ``(counts,
t_cycle_ms)``, recorded with the per-pattern loop, and of its
``(counts, t_cycle_ms, evaluations)`` pin all of them end to end.
"""

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.errors import PartitionError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.presets import (
    ETHERNET_10MBPS,
    PAPER_ROUTER,
    wide_area_cost_database,
    wide_area_network,
)
from repro.model.computation import DataParallelComputation
from repro.model.phases import CommunicationPhase, ComputationPhase
from repro.partition.arrayengine import ArrayCycleEstimator, ArraySearchEngine
from repro.partition import collapse
from repro.partition.available import ClusterResources, gather_available_resources
from repro.partition.collapse import (
    CollapsePlan,
    EquivalenceClass,
    detect_equivalence_classes,
    level_search,
)
from repro.partition.heuristic import order_by_power
from repro.partition.wideareabench import _loaded_pool

from tests.partition.test_collapse import (
    _COEFFS,
    _SPECS,
    _crossed_router_case,
    _wide_area_case,
)

#: Router intercepts drawn from a short list, so equal crossings recur.
_INTERCEPTS = (0.5, 0.9, 2.5)

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
_SYNTHETIC = settings(derandomize=True, deadline=None, max_examples=80)
_LEVEL = settings(derandomize=True, deadline=None, max_examples=200)


# -- the oracles: the loops the array recurrences replaced ------------------------


def crossing_oracle(est: ArrayCycleEstimator):
    """``(intercept, slope)`` crossing matrices by the pairwise loop: two
    :meth:`CostDatabase._pair_cost` lookups per pair, router + coercion
    (0.0 without one) per field, NaN where no router exists and on the
    diagonal."""
    cost_db = est.cost_db
    k_n = len(est.ordered)
    intercept = np.full((k_n, k_n), np.nan)
    slope = np.full((k_n, k_n), np.nan)
    for i in range(k_n):
        for j in range(i + 1, k_n):
            a, b_name = est.ordered[i].name, est.ordered[j].name
            router = cost_db._pair_cost(cost_db.router, a, b_name)
            if router is None:
                continue
            coerce = cost_db._pair_cost(cost_db.coerce, a, b_name)
            intercept[i, j] = intercept[j, i] = router.intercept_ms + (
                coerce.intercept_ms if coerce is not None else 0.0
            )
            slope[i, j] = slope[j, i] = router.slope_ms_per_byte + (
                coerce.slope_ms_per_byte if coerce is not None else 0.0
            )
    return intercept, slope


def rates_oracle(ordered, op_kind):
    """``(per-cluster rates, per-cluster speed prefixes)`` by the
    per-cluster loop, raising for the first cluster with a rate that is
    not positive (NaN included)."""
    rates_of, prefixes = [], []
    for res in ordered:
        rates = np.array(
            [res.rate_of(proc, op_kind) for proc in res.take(res.n_available)], dtype=float
        )
        if not np.all(rates > 0):
            raise PartitionError(f"instruction rates must be positive: {rates.tolist()}")
        rates_of.append(rates)
        prefixes.append(np.concatenate(([0.0], np.cumsum(1.0 / rates))))
    return rates_of, prefixes


def lut_oracle(est: ArrayCycleEstimator):
    """``(crossing LUT, NaN markers, popcounts)`` by the pairwise loop: per
    pattern, a max chain from 0.0 over its active pairs, NaN pairs marked
    instead of chained."""
    k_n = len(est.ordered)
    pair_cost = (est._cross_intercept + est._cross_slope * est._b_const).tolist()
    size = 1 << k_n
    lut = [0.0] * size
    bad = [False] * size
    for patt in range(size):
        worst = 0.0
        for i in range(k_n):
            if not patt >> i & 1:
                continue
            for j in range(i + 1, k_n):
                if not patt >> j & 1:
                    continue
                cost = pair_cost[i][j]
                if math.isnan(cost):
                    bad[patt] = True
                else:
                    worst = max(worst, cost)
        lut[patt] = worst
    pop = [bin(p).count("1") for p in range(size)]
    return np.array(lut), np.array(bad), np.array(pop, dtype=np.int64)


def _pair_signature(intercept, slope, k, members):
    """The set of (intercept, slope) crossing values cluster ``k`` sees
    toward ``members`` (itself excluded), as sorted unique float pairs."""
    others = members[members != k]
    if others.size == 0:
        return ()
    pairs = np.stack([intercept[k, others], slope[k, others]], axis=1)
    return tuple(map(tuple, np.unique(pairs, axis=0)))


def detect_oracle(est: ArrayCycleEstimator):
    """Equivalence detection with per-cluster, per-class float-pair
    signatures."""
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
                and np.array_equal(rep["rates"], rates)
                and np.array_equal(rep["coeffs"], coeffs[k], equal_nan=True)
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
    intercept = np.where(np.isnan(est._cross_intercept), np.inf, est._cross_intercept)
    slope = np.where(np.isnan(est._cross_slope), np.inf, est._cross_slope)
    for _ in range(k_n):
        members_of = {g: np.flatnonzero(labels == g) for g in np.unique(labels)}
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
    return CollapsePlan(
        classes=tuple(
            EquivalenceClass(
                indices=tuple(int(i) for i in idx), limit=int(est.limits[idx[0]])
            )
            for idx in order
        ),
        n_clusters=k_n,
    )


def level_oracle(est: ArrayCycleEstimator, plan: CollapsePlan, lim: np.ndarray):
    """:func:`level_search` for pools with a communication phase and at
    least one processor, its multi-station patterns swept as one
    ``(variants × levels)`` grid per active class set over that set's own
    levels, and its winner scored by
    :meth:`ArrayCycleEstimator.score_block` (the kernel fallback above 16
    clusters).  Its ``evaluations`` count every live cell of those grids,
    the count the pattern grid reports."""
    classes = plan.classes
    n_cls = len(classes)
    if (
        est._b_const is None
        or callable(est.comm_phase.rounds)
        or est.overlapped
        or est.topology.bandwidth_limited
        or est._quirk.any()
        or not est._have_comm.all()
        or not np.all(est._beta >= 0.0)
    ):
        return None
    reps = [cls.indices[0] for cls in classes]
    alpha, beta = est._alpha[reps], est._beta[reps]
    mult = [cls.multiplicity for cls in classes]
    limits = [cls.limit for cls in classes]
    prefixes = [est._speed_prefix[r] for r in reps]
    b, rounds = est._b_const, est._rounds_const
    cross = np.zeros((n_cls, n_cls))
    for a in range(n_cls):
        for c in range(a, n_cls):
            if a == c and mult[a] < 2:
                continue
            i, j = (classes[a].indices[0], classes[a].indices[1]) if a == c else (reps[a], reps[c])
            if np.isnan(est._cross_intercept[i, j]):
                return None
            cross[a, c] = cross[c, a] = est._cross_intercept[i, j] + est._cross_slope[i, j] * b
    f_multi, speeds = [], []
    for j in range(n_cls):
        ks = np.arange(1, limits[j] + 1, dtype=np.int64)
        p_eff = np.maximum(ks + 1 if est.cost_db.router_extra_station else ks, 2)
        f_multi.append(alpha[j] + beta[j] * p_eff)
        speeds.append(prefixes[j][ks])

    best_t, tied, cells = np.inf, [], 0

    def consider(t_grid, class_counts):
        nonlocal best_t, tied
        if t_grid < best_t:
            best_t, tied = t_grid, [class_counts]
        elif t_grid == best_t:
            tied.append(class_counts)

    comp_of = est.t_comp_lower_bound
    for j in range(n_cls):
        if limits[j] < 1:
            continue
        ks = np.arange(1, limits[j] + 1, dtype=np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            comp = comp_of(speeds[j], 0.0)
        t = comp + np.where(ks > 1, rounds * (alpha[j] + beta[j] * ks), 0.0)
        cells += int(ks.size)
        i = int(np.argmin(t))
        consider(float(t[i]), ((0, 0),) * j + ((1, int(ks[i])),) + ((0, 0),) * (n_cls - j - 1))

    positive = np.where(cross > 0.0, cross, 0.0)
    between = np.where(np.eye(n_cls, dtype=bool), 0.0, positive)
    eligible = [j for j in range(n_cls) if limits[j] >= 1]
    for size in range(1, len(eligible) + 1):
        for active in combinations(eligible, size):
            levels = np.unique(np.concatenate([f_multi[j] for j in active]))
            kmax = [np.searchsorted(f_multi[j], levels, side="right") for j in active]
            feasible = np.logical_and.reduce([k >= 1 for k in kmax])
            weight = np.array(
                list(product(*[sorted({1, mult[j]}) for j in active])), dtype=np.int64
            )
            weight = weight[weight.sum(axis=1) >= 2]
            own = np.where(weight > 1, positive[active, active], 0.0).max(axis=1)
            crossing = np.maximum(own, between[np.ix_(active, active)].max())
            speed = np.zeros((weight.shape[0], levels.shape[0]))
            for a, j in enumerate(active):
                speed += prefixes[j][kmax[a]] * weight[:, a, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                comp = comp_of(speed, 0.0)
            t = np.where(feasible, comp + rounds * (levels + crossing[:, None]), np.inf)
            cells += int(feasible.sum()) * weight.shape[0]
            at = np.argmin(t, axis=1)
            t_min = t[np.arange(weight.shape[0]), at]
            for r in np.flatnonzero(np.isfinite(t_min) & (t_min <= best_t)):
                counts = [(0, 0)] * n_cls
                for a, j in enumerate(active):
                    counts[j] = (int(weight[r, a]), int(kmax[a][at[r]]))
                consider(float(t_min[r]), tuple(counts))

    best = min(
        plan.expand([[k] * m + [0] * (mult[j] - m) for j, (m, k) in enumerate(class_counts)])
        for class_counts in tied
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        n = est.load_rows(np.array([best], dtype=np.int64))
        return best, float(est.score_block(n)[0]), cells + 1


# -- generated pools ----------------------------------------------------------------


def _wide_area_estimator(sites: int, seed: int) -> ArrayCycleEstimator:
    return ArrayCycleEstimator(*_wide_area_case(sites, seed=seed, n=6000))


@st.composite
def synthetic_estimators(draw, max_sites: int = 8):
    """Pools stamped from 1-3 templates (duplicates on purpose), with quirk
    and unfitted clusters, explicit router and coercion entries drawn from a short value
    list, sometimes crossed between two template pairs, and, without a
    router default, missing (NaN) router pairs."""
    n_templates = draw(st.integers(1, 3))
    sites = draw(st.lists(st.integers(0, n_templates - 1), min_size=2, max_size=max_sites))
    counts = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    quirks = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    fitted = draw(st.lists(st.sampled_from((True, True, True, False)), min_size=3, max_size=3))
    net = HeterogeneousNetwork(seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER)
    db = CostDatabase()
    names = []
    for i, t in enumerate(sites):
        name = f"s{i}-t{t}"
        names.append(name)
        net.add_cluster(name, _SPECS[t], count=counts[t])
        if not fitted[t]:
            continue  # no Eq 1 fit: NaN coefficients
        c1, c2, c3, c4 = _COEFFS[t]
        db.add_comm(
            CommCostFunction(
                cluster=name, topology="1-D", c1=c1, c2=c2, c3=c3, c4=c4,
                abs_bandwidth_quirk=quirks[t],
            )
        )
    net.validate(strict=False)
    if draw(st.booleans()):
        db.set_router_default(
            LinearByteCost("*", "*", "router", intercept_ms=0.9, slope_ms_per_byte=0.0008)
        )
    pair = st.tuples(
        st.integers(0, len(sites) - 1),
        st.integers(0, len(sites) - 1),
        st.sampled_from(_INTERCEPTS),
    )
    routers = draw(st.lists(pair, max_size=2 * len(sites)))
    twins = [[i for i, t in enumerate(sites) if t == tpl][:2] for tpl in range(n_templates)]
    twins = [members for members in twins if len(members) == 2]
    if len(twins) >= 2 and draw(st.booleans()):
        # The crossed-router shape: a1-b1 = a2-b2 != a1-b2 = a2-b1.
        (a1, a2), (b1, b2) = twins[:2]
        routers = [(a1, b1, 0.5), (a2, b2, 0.5), (a1, b2, 2.5), (a2, b1, 2.5)] + routers
    for a, b, intercept in routers:
        if a != b:
            db.add_router(
                LinearByteCost(names[a], names[b], "router", intercept_ms=intercept,
                               slope_ms_per_byte=0.0008)
            )
    for a, b, intercept in draw(st.lists(pair, max_size=2)):
        if a != b:
            db.add_coerce(
                LinearByteCost(names[a], names[b], "coerce", intercept_ms=intercept / 10,
                               slope_ms_per_byte=0.0001)
            )
    comp = stencil_computation(draw(st.sampled_from((200, 600))), overlap=False)
    ordered = order_by_power(gather_available_resources(net), "fp")
    return ArrayCycleEstimator(comp, ordered, db)


def _nudge_fits(db: CostDatabase, names) -> None:
    """Every site's Eq 1 fit nudged apart: one class per site."""
    for i, name in enumerate(names):
        fit = db.comm[(name, "1-D")]
        db.add_comm(replace(fit, c1=fit.c1 + i / 1000))


def _price_within_templates(db: CostDatabase, names) -> None:
    """Explicit router entries at a fifth of the backbone between sites of
    one template: a class's own crossing differs from the one between
    classes."""
    backbone = db.router_default
    for a, b in combinations(names, 2):
        if a.split("-")[1] == b.split("-")[1]:
            db.add_router(
                replace(backbone, src=a, dst=b, intercept_ms=backbone.intercept_ms / 5)
            )


def _estimator(net, db, n=600, overlap=False, load_adjusted=False) -> ArrayCycleEstimator:
    ordered = order_by_power(gather_available_resources(net, load_adjusted=load_adjusted), "fp")
    return ArrayCycleEstimator(stencil_computation(n, overlap=overlap), ordered, db)


#: The level-mode gates :func:`gated_estimator` fails on purpose.
LEVEL_GATES = ("overlap", "broadcast", "quirk", "rows", "router")


def gated_estimator(gate: str, sites: int, seed: int) -> ArrayCycleEstimator:
    """A wide-area pool built to fail one level-mode gate: an overlapped
    workload, a bandwidth-limited (broadcast) topology, one quirk fit,
    mixed crossings over more than 3^8 patterns (every site's fit nudged
    apart and one pair priced off the backbone; needs 13+ sites), or one
    router pair missing (explicit pairs, no default)."""
    net = wide_area_network(sites, seed=seed)
    db = wide_area_cost_database(net)
    names = [cluster.name for cluster in net.clusters]
    comp = stencil_computation(600, overlap=gate == "overlap")
    if gate == "broadcast":
        comp = DataParallelComputation(
            name="broadcast",
            problem=None,
            num_pdus=600,
            computation_phases=[ComputationPhase("comp", complexity=100.0, op_kind="fp")],
            communication_phases=[
                CommunicationPhase("comm", topology="broadcast", complexity=800.0, rounds=1)
            ],
        )
    elif gate == "quirk":
        fit = db.comm[(names[seed % sites], "1-D")]
        db.add_comm(replace(fit, abs_bandwidth_quirk=True))
    elif gate == "rows":
        _nudge_fits(db, names)
        backbone = db.router_default
        db.add_router(replace(backbone, src=names[0], dst=names[1], intercept_ms=0.5))
    elif gate == "router":
        backbone = db.router_default
        db.set_router_default(None)
        skip = sorted(np.random.default_rng(seed).choice(sites, size=2, replace=False).tolist())
        for a, b in combinations(range(sites), 2):
            if [a, b] != skip:
                db.add_router(replace(backbone, src=names[a], dst=names[b]))
    ordered = order_by_power(gather_available_resources(net), "fp")
    return ArrayCycleEstimator(comp, ordered, db)


#: The pool kinds :func:`level_cases` draws besides the gates.
LEVEL_KINDS = ("wide",) * 5 + ("loaded",) * 3 + ("classes", "mixed") * 2


@st.composite
def level_cases(draw):
    """``(estimator, plan at limits, limits, kind)``, by kind:

    * ``wide`` — a wide-area pool of 2-64 sites (a third each of 2-16,
      17-32 and 33-64) at STEN-1 N = 600, 6000 or 60000;
    * ``loaded`` — 4-12 sites with 5-15% of the nodes loaded, gathered
      with load adjustment (a site with a loaded node is a class of its
      own);
    * ``classes`` — 9-12 sites with every fit nudged apart (9-12
      classes);
    * ``mixed`` — 7-16 sites whose within-template crossings differ from
      the backbone (some class has two members), so the pattern grid
      must run;
    * a :data:`LEVEL_GATES` entry — a pool built to fail that gate.

    At full availability or a uniform per-class shrink; ``mixed`` and
    ``rows`` pools stay whole, so their crossings stay mixed."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(LEVEL_KINDS + LEVEL_GATES))
    if kind == "wide":
        sites = draw(st.one_of(st.integers(2, 16), st.integers(17, 32), st.integers(33, 64)))
        n = draw(st.sampled_from((600, 6000, 60000)))
        est = ArrayCycleEstimator(*_wide_area_case(sites, seed=seed, n=n))
    elif kind == "loaded":
        share = draw(st.sampled_from((0.05, 0.1, 0.15)))
        ordered, db = _loaded_pool(draw(st.integers(4, 12)), seed, share)
        est = ArrayCycleEstimator(stencil_computation(6000, overlap=False), ordered, db)
    elif kind in ("classes", "mixed"):
        net = wide_area_network(
            draw(st.integers(9, 12) if kind == "classes" else st.integers(7, 16)), seed=seed
        )
        db = wide_area_cost_database(net)
        names = [cluster.name for cluster in net.clusters]
        (_nudge_fits if kind == "classes" else _price_within_templates)(db, names)
        est = _estimator(net, db, n=draw(st.sampled_from((600, 6000))))
    else:
        sites = draw(st.integers(13, 16) if kind == "rows" else st.integers(2, 8))
        est = gated_estimator(kind, sites, seed)
    plan = detect_equivalence_classes(est) or CollapsePlan.singletons(est.limits)
    lim = est.limits.copy()
    if kind not in ("mixed", "rows") and draw(st.booleans()):
        for cls in plan.classes:
            lim[list(cls.indices)] = draw(st.integers(0, cls.limit))
        if not lim.any():
            lim = est.limits.copy()
    return est, plan.at_limits(lim), lim, kind


#: Crossing field values, signed zeros included: ``-0.0 + 0.0`` is +0.0.
_FIELD_VALUES = (0.5, 0.9, 2.5, 0.0, -0.0)


@st.composite
def lowering_pools(draw):
    """``(ordered resources, database)``: 1-8 clusters of 1-4 nodes, some
    loaded or failed (a cluster may have no available node), gathered
    with or without load adjustment; router and coercion entries in
    either direction, some pairs in both with different values, some
    naming a cluster outside the pool or pairing a cluster with itself;
    with or without a router default."""
    n_sites = draw(st.integers(1, 8))
    net = HeterogeneousNetwork(seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER)
    names = [f"s{i}" for i in range(n_sites)]
    for name in names:
        spec, count = draw(st.sampled_from(_SPECS)), draw(st.integers(1, 4))
        cluster = net.add_cluster(name, spec, count=count)
        for proc in cluster.processors:
            proc.set_load(draw(st.sampled_from((0.0, 0.0, 0.25, 0.5))))
            if draw(st.integers(0, 5)) == 0:
                proc.fail()
    net.validate(strict=False)
    db = CostDatabase()
    endpoint = st.sampled_from(names + ["outside"])
    entry = st.tuples(
        endpoint, endpoint, st.sampled_from(_FIELD_VALUES), st.sampled_from(_FIELD_VALUES)
    )
    for kind, add in (("router", db.add_router), ("coerce", db.add_coerce)):
        entries = draw(st.lists(entry, max_size=2 * n_sites))
        for src, dst, intercept, slope in list(entries):
            if draw(st.booleans()):
                # The same pair the other way round, priced differently.
                entries.append((dst, src, intercept + 1.0, slope + 1.0))
        for src, dst, intercept, slope in entries:
            add(LinearByteCost(src, dst, kind, intercept_ms=intercept, slope_ms_per_byte=slope))
    if draw(st.booleans()):
        db.set_router_default(
            LinearByteCost(
                "*", "*", "router",
                intercept_ms=draw(st.sampled_from(_FIELD_VALUES)),
                slope_ms_per_byte=draw(st.sampled_from(_FIELD_VALUES)),
            )
        )
    resources = gather_available_resources(net, load_adjusted=draw(st.booleans()))
    # Fastest first, like order_by_power, but empty clusters stay.
    return sorted(resources, key=lambda res: res.instruction_rate("fp")), db


@dataclass(frozen=True)
class _RatedResources(ClusterResources):
    """A cluster whose nodes report the given rates, by rank, whatever
    their spec says (specs reject non-positive rates)."""

    rates: tuple[float, ...] = ()

    def rate_of(self, proc, kind="fp"):
        return self.rates[proc.rank_in_cluster]


def assert_lowering_matches(est: ArrayCycleEstimator) -> None:
    intercept, slope = crossing_oracle(est)
    assert np.array_equal(est._cross_intercept.view(np.int64), intercept.view(np.int64))
    assert np.array_equal(est._cross_slope.view(np.int64), slope.view(np.int64))
    rates, prefixes = rates_oracle(est.ordered, est.op_kind)
    assert len(est._cluster_rates) == len(est._speed_prefix) == len(est.ordered)
    for k in range(len(est.ordered)):
        assert np.array_equal(est._cluster_rates[k].view(np.int64), rates[k].view(np.int64))
        assert np.array_equal(est._speed_prefix[k].view(np.int64), prefixes[k].view(np.int64))


def assert_luts_match(est: ArrayCycleEstimator) -> None:
    lut, bad, pop = lut_oracle(est)
    assert np.array_equal(est._cross_lut.view(np.int64), lut.view(np.int64))
    assert np.array_equal(est._bad_lut, bad)
    assert np.array_equal(est._pop_lut, pop)


# -- lowering ---------------------------------------------------------------------------


@_PROPERTY
@given(
    sites=st.one_of(st.integers(1, 16), st.integers(17, 64), st.integers(65, 256)),
    seed=st.integers(0, 10_000),
)
def test_wide_area_lowering_equals_the_loops(sites, seed):
    assert_lowering_matches(_wide_area_estimator(sites, seed))


@_SYNTHETIC
@given(pool=lowering_pools(), n=st.sampled_from((200, 600)))
def test_synthetic_lowering_equals_the_loops(pool, n):
    ordered, db = pool
    comp = stencil_computation(n, overlap=False)
    assert_lowering_matches(ArrayCycleEstimator(comp, ordered, db))


@_PROPERTY
@given(
    rates=st.lists(
        st.lists(st.sampled_from((0.3, 0.6, 1.7, 0.0, -0.5, math.nan)), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rate_lowering_raises_like_the_loop(rates):
    """Rates that are not positive, NaN included, raise the loop's text for
    the first bad cluster."""
    net = HeterogeneousNetwork(seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER)
    ordered = []
    for i, cluster_rates in enumerate(rates):
        cluster = net.add_cluster(f"r{i}", _SPECS[0], count=len(cluster_rates))
        ordered.append(
            _RatedResources(
                cluster=cluster, available=tuple(cluster.processors), rates=tuple(cluster_rates)
            )
        )
    comp = stencil_computation(600, overlap=False)
    try:
        rates_oracle(ordered, "fp")
    except PartitionError as exc:
        with pytest.raises(PartitionError) as got:
            ArrayCycleEstimator(comp, ordered, CostDatabase())
        assert str(got.value) == str(exc)
    else:
        assert_lowering_matches(ArrayCycleEstimator(comp, ordered, CostDatabase()))


# -- crossing lookup tables -----------------------------------------------------------


@_PROPERTY
@given(sites=st.integers(1, 16), seed=st.integers(0, 10_000))
def test_wide_area_luts_equal_the_pairwise_loop(sites, seed):
    assert_luts_match(_wide_area_estimator(sites, seed))


@_SYNTHETIC
@given(est=synthetic_estimators())
def test_synthetic_luts_equal_the_pairwise_loop(est):
    assert_luts_match(est)


def test_injected_nan_pairs_mark_every_pattern_holding_them():
    """Missing router fits at both ends of the order, and a negative
    crossing the +0.0 floor must absorb."""
    est = _wide_area_estimator(12, seed=7)
    for i, j in ((0, 2), (1, 11), (10, 11)):
        est._cross_intercept[i, j] = est._cross_intercept[j, i] = np.nan
    est._cross_intercept[3, 4] = est._cross_intercept[4, 3] = -5.0
    est._prepare_fast_path()
    assert_luts_match(est)
    assert est._bad_lut[(1 << 10) | (1 << 11)] and not est._bad_lut[1 << 11]


# -- equivalence detection ------------------------------------------------------------


@_PROPERTY
@given(sites=st.integers(1, 64), seed=st.integers(0, 10_000))
def test_wide_area_detection_equals_float_pair_refinement(sites, seed):
    est = _wide_area_estimator(sites, seed)
    assert detect_equivalence_classes(est) == detect_oracle(est)


@_SYNTHETIC
@given(est=synthetic_estimators())
def test_synthetic_detection_equals_float_pair_refinement(est):
    assert detect_equivalence_classes(est) == detect_oracle(est)


def test_crossed_routers_are_rejected_by_both_refinements():
    """a1-b1 = a2-b2 != a1-b2: every member sees two crossing values
    toward the other pair, so no plan is sound."""
    comp, res, db = _crossed_router_case()
    est = ArrayCycleEstimator(comp, order_by_power(res, "fp"), db)
    assert detect_oracle(est) is None
    assert detect_equivalence_classes(est) is None


def _explicit_estimator(templates, crossing, slope=lambda i, j: 0.0008) -> ArrayCycleEstimator:
    """Clusters ``s0, s1, ...`` stamped from ``templates`` (indices into
    the shared specs and fits), one explicit router entry per pair with
    intercept ``crossing(i, j)`` and slope ``slope(i, j)`` for ``i < j`` in
    that order, and no default."""
    net = HeterogeneousNetwork(seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER)
    db = CostDatabase()
    names = [f"s{i}" for i in range(len(templates))]
    for name, t in zip(names, templates):
        net.add_cluster(name, _SPECS[t], count=2)
        c1, c2, c3, c4 = _COEFFS[t]
        db.add_comm(
            CommCostFunction(
                cluster=name, topology="1-D", c1=c1, c2=c2, c3=c3, c4=c4,
                abs_bandwidth_quirk=False,
            )
        )
    net.validate(strict=False)
    for i, j in combinations(range(len(names)), 2):
        db.add_router(
            LinearByteCost(names[i], names[j], "router",
                           intercept_ms=float(crossing(i, j)), slope_ms_per_byte=slope(i, j))
        )
    ordered = order_by_power(gather_available_resources(net), "fp")
    return ArrayCycleEstimator(stencil_computation(600, overlap=False), ordered, db)


def test_sets_with_equal_min_and_max_still_split():
    """x sees {1, 2, 3} toward c1-c3 and y, z see {1, 3}; each c sees
    values 1 to 3 toward x, y, z.  Every cluster has the same min and max
    toward the other template, so only the id sets tell them apart; set
    refinement splits both templates down to singletons."""
    values = {(0, 3): 1, (0, 4): 2, (0, 5): 3, (1, 3): 3, (1, 4): 1, (1, 5): 1,
              (2, 3): 3, (2, 4): 3, (2, 5): 1}
    est = _explicit_estimator(
        (0, 0, 0, 1, 1, 1), lambda i, j: values.get((i, j), 5 if j < 3 else 6)
    )
    plan = detect_equivalence_classes(est)
    assert plan == detect_oracle(est)
    assert plan == CollapsePlan.singletons(est.limits)


def test_crossings_that_differ_only_in_slope_split():
    """Every router intercept is equal; the slopes alone (one within
    s0-s2, another within s3-s4, a third across) split the pool."""
    est = _explicit_estimator(
        (0,) * 5,
        lambda i, j: 0.9,
        slope=lambda i, j: 0.0008 if j < 3 else (0.0009 if i >= 3 else 0.001),
    )
    plan = detect_equivalence_classes(est)
    assert plan == detect_oracle(est)
    assert [cls.indices for cls in plan.classes] == [(0, 1, 2), (3, 4)]


@st.composite
def many_valued_estimators(draw):
    """2-40 clusters of one template whose explicit routers price a
    planted partition: one value per pair of planted groups, drawn from
    a wide range (so a pool can hold far more than 62 distinct
    crossings), with a few pairs perturbed to fresh values."""
    k_n = draw(st.integers(2, 40))
    groups = draw(st.lists(st.integers(0, 11), min_size=k_n, max_size=k_n))
    value = st.integers(1, 10_000)
    planted = {
        (g, h): draw(value) for g in range(12) for h in range(g, 12)
        if g in groups and h in groups
    }
    pair = st.tuples(st.integers(0, k_n - 1), st.integers(0, k_n - 1))
    perturbed = {tuple(sorted(p)): draw(value) for p in draw(st.lists(pair, max_size=4))}
    def crossing(i, j):
        g, h = sorted((groups[i], groups[j]))
        return perturbed.get((i, j), planted[g, h])

    return _explicit_estimator((0,) * k_n, crossing)


@_PROPERTY
@given(est=many_valued_estimators())
def test_many_valued_detection_equals_float_pair_refinement(est):
    assert detect_equivalence_classes(est) == detect_oracle(est)


def test_more_than_62_pair_ids_collapse_like_the_oracle():
    """Twelve planted groups of two: 78 distinct crossings, and every
    group is a class."""
    groups = [k // 2 for k in range(24)]
    est = _explicit_estimator(
        (0,) * 24,
        lambda i, j: 1 + 12 * min(groups[i], groups[j]) + max(groups[i], groups[j]),
    )
    assert np.unique(est._cross_intercept[~np.isnan(est._cross_intercept)]).size == 78
    plan = detect_equivalence_classes(est)
    assert plan == detect_oracle(est)
    assert [cls.multiplicity for cls in plan.classes] == [2] * 12


# -- the level sweep --------------------------------------------------------------------


def _sweep(est, plan, lim):
    """``(level_search result, whether the pattern grid ran)``."""
    with mock.patch.object(collapse, "_grid_sweep", wraps=collapse._grid_sweep) as grid:
        got = level_search(est, plan, lim)
    return got, grid.called


@_LEVEL
@given(case=level_cases())
def test_level_search_equals_the_per_active_set_sweep(case):
    est, plan, lim, kind = case
    got, grid_ran = _sweep(est, plan, lim)
    if kind in LEVEL_GATES:
        assert got is None, kind
        return
    want = level_oracle(est, plan, lim)
    assert got[:2] == want[:2]
    if kind == "mixed":
        assert grid_ran
    if grid_ran:
        assert got[2] == want[2]


def test_level_grid_blocks_leave_the_sweep_unchanged(monkeypatch):
    """Eight singleton classes with mixed crossings, swept in one block
    and in blocks of one or two pattern rows: the minimum and its ties
    carry across blocks exactly."""
    net = wide_area_network(8, seed=7)
    db = wide_area_cost_database(net)
    names = [cluster.name for cluster in net.clusters]
    _nudge_fits(db, names)
    db.add_router(replace(db.router_default, src=names[2], dst=names[5], intercept_ms=0.5))
    est = _estimator(net, db, n=6000)
    plan = detect_equivalence_classes(est)
    assert plan == CollapsePlan.singletons(est.limits)
    want = level_oracle(est, plan, est.limits)
    assert _sweep(est, plan, est.limits) == (want, True)
    monkeypatch.setattr(collapse, "_LEVEL_GRID_CELLS", 64)
    assert _sweep(est, plan, est.limits) == (want, True)


@pytest.mark.parametrize("n", (60, 600, 6000))
@pytest.mark.parametrize("sites", (2, 5, 12))
def test_a_negative_backbone_is_clamped_like_the_grid(sites, n):
    """A backbone priced below zero: every crossing clamps to +0.0, so the
    row sweep runs with ``x = +0.0`` and must pick what the oracle picks
    (a single station where comm outweighs the speed gained)."""
    net = wide_area_network(sites, seed=7)
    db = wide_area_cost_database(net)
    db.set_router_default(replace(db.router_default, intercept_ms=-1000.0))
    est = _estimator(net, db, n=n)
    plan = detect_equivalence_classes(est)
    got, grid_ran = _sweep(est, plan, est.limits)
    assert not grid_ran
    assert got[:2] == level_oracle(est, plan, est.limits)[:2]


def _vanishing_estimator(seed: int, fit=None) -> ArrayCycleEstimator:
    """A 6-site wide-area pool at STEN-1 N = 6000 whose slowest cluster
    runs at 1e30 µs/op, so its speed term vanishes in every float sum it
    joins; ``fit`` replaces that cluster's Eq 1 fields."""
    net = wide_area_network(6, seed=seed)
    ordered = order_by_power(gather_available_resources(net), "fp")
    slow = ordered[-1]
    ordered[-1] = _RatedResources(
        cluster=slow.cluster, available=slow.available, rates=(1e30,) * slow.n_available
    )
    db = wide_area_cost_database(net)
    if fit is not None:
        db.add_comm(replace(db.comm[(slow.name, "1-D")], **fit))
    return ArrayCycleEstimator(stencil_computation(6000, overlap=False), ordered, db)


def test_nan_rates_raise_on_every_exact_path():
    """A 6-site pool whose slowest cluster runs at NaN µs/op is rejected
    at lowering with the non-positive rates' text, so the decision paths
    (``decide_counts``), the ordered scan and the level sweep, whose input
    is the lowered estimator, cannot return three different answers."""
    net = wide_area_network(6, seed=0)
    ordered = order_by_power(gather_available_resources(net), "fp")
    slow = ordered[-1]
    ordered[-1] = _RatedResources(
        cluster=slow.cluster, available=slow.available, rates=(math.nan,) * slow.n_available
    )
    db = wide_area_cost_database(net)
    comp = stencil_computation(6000, overlap=False)
    text = f"instruction rates must be positive: {[math.nan] * slow.n_available}"
    for path in (
        lambda: ArraySearchEngine(comp, ordered, db).decide_counts(),
        lambda: ArraySearchEngine(comp, ordered, db).search(),
        lambda: ArrayCycleEstimator(comp, ordered, db),
    ):
        with pytest.raises(PartitionError) as got:
            path()
        assert str(got.value) == text
    # The same pool at finite rates still decides, on all three paths alike.
    ordered[-1] = slow
    engine = ArraySearchEngine(comp, ordered, db)
    est = engine.estimator
    level = level_search(est, detect_equivalence_classes(est), est.limits)
    assert level is not None
    assert engine.decide_counts().counts == engine.search().counts == level[0]


@pytest.mark.parametrize("seed", range(9))
def test_a_vanishing_speed_term_ties_and_the_grid_decides(seed):
    """The vanishing cluster is on at the all-reachable row's winning
    level, and the variant with it off has the same speed sum: a tie,
    which the grid resolves to the lex-min expansion."""
    est = _vanishing_estimator(seed)
    plan = detect_equivalence_classes(est)
    got, grid_ran = _sweep(est, plan, est.limits)
    assert grid_ran
    assert got == level_oracle(est, plan, est.limits)


def test_a_tie_across_levels_takes_the_grid():
    """The vanishing cluster's one Eq 1 level sits one ulp above the
    winning level ``v``, and ``rounds · (level + x)`` rounds to the same
    comm term as at ``v``: the all-reachable rows at both levels tie."""
    far = _vanishing_estimator(9, fit={"c1": 1e9, "c2": 0.0, "c3": 0.0, "c4": 0.0})
    plan = detect_equivalence_classes(far)
    counts, _, _ = level_search(far, plan, far.limits)
    on = np.flatnonzero(counts)
    assert on.size >= 2  # a multi-station winner
    p_eff = np.maximum(np.array(counts)[on] + 1, 2)  # the router's extra station
    v = (far._alpha[on] + far._beta[on] * p_eff).max()
    x = far._cross_intercept[0, 1] + far._cross_slope[0, 1] * far._b_const
    rounds = far._rounds_const
    level = np.nextafter(v, np.inf)
    assert rounds * (level + x) == rounds * (v + x)
    est = _vanishing_estimator(9, fit={"c1": float(level), "c2": 0.0, "c3": 0.0, "c4": 0.0})
    got, grid_ran = _sweep(est, plan, est.limits)
    assert grid_ran
    assert got == level_oracle(est, plan, est.limits)


# -- a decision grid pinned across the rewrites -----------------------------------------

#: 221 cold decisions: 21 pool sizes straddling the LUT cap x 5 seeds at
#: STEN-1 N=6000 and N=600, plus overlapped N=600 on 2-8 sites.
GRID_SITES = tuple(range(2, 18)) + (20, 24, 32, 48, 64)
GRID = [(k, s, n, False) for n in (6000, 600) for k in GRID_SITES for s in range(7, 12)]
GRID += [(k, 7, 600, True) for k in range(2, 9)] + [(k, 8, 600, True) for k in range(2, 6)]

#: sha256 prefix of the grid's ``repr((counts, t_cycle_ms))`` stream,
#: recorded with the per-pattern level sweep, the pairwise LUT loop and
#: float-pair refinement.
DECISION_DIGEST = "a0fec1685170663d"

#: sha256 prefix of the grid's ``repr((counts, t_cycle_ms, evaluations))``
#: stream, with level mode counting the cells it scores (one row per
#: level on the wide-area backbone).
GRID_DIGEST = "6ed7f40999968808"


def test_decision_grid_is_bit_identical_to_the_loop_forms():
    decisions, digest = hashlib.sha256(), hashlib.sha256()
    methods = set()
    for sites, seed, n, overlap in GRID:
        net = wide_area_network(sites, seed=seed)
        ordered = order_by_power(gather_available_resources(net), "fp")
        result = ArraySearchEngine(
            stencil_computation(n, overlap=overlap), ordered, wide_area_cost_database(net)
        ).decide_counts()
        decisions.update(repr((result.counts, result.t_cycle_ms)).encode())
        digest.update(repr((result.counts, result.t_cycle_ms, result.evaluations)).encode())
        methods.add(result.method)
    assert len(GRID) == 221
    # The grid reaches every exact mode, the level sweep included.
    assert methods == {"collapse-level", "collapse-exact", "array-scan"}
    assert decisions.hexdigest()[:16] == DECISION_DIGEST
    assert digest.hexdigest()[:16] == GRID_DIGEST
