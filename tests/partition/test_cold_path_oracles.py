"""The cold exact-decision path against its loop-form oracles, bit for bit.

Three array recurrences do the work of a cold decision: the crossing
lookup tables of :class:`~repro.partition.arrayengine.ArrayCycleEstimator`
(a subset-max doubling), the crossing refinement of
:func:`~repro.partition.collapse.detect_equivalence_classes` (sets of
pair ids) and the ``(patterns × levels)`` grid of
:func:`~repro.partition.collapse.level_search`.  Each is checked here
against the loop it replaced, kept below as an oracle, over generated
pools: the tables must be bitwise-equal (the float table through its
int64 view), the plans ``==``, and the level sweep's ``(counts,
t_cycle_ms, evaluations)`` ``==`` to one sweep per active class set whose
winner the kernels score.  A digest of a decision grid's ``(counts,
t_cycle_ms, evaluations)``, recorded with the per-pattern loop, pins all
three end to end.
"""

import hashlib
import math
from dataclasses import replace
from itertools import combinations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
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
from repro.partition.available import gather_available_resources
from repro.partition.collapse import (
    _MAX_LEVEL_CLASSES,
    CollapsePlan,
    EquivalenceClass,
    detect_equivalence_classes,
    level_search,
)
from repro.partition.heuristic import order_by_power

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
    clusters)."""
    classes = plan.classes
    n_cls = len(classes)
    if (
        n_cls > _MAX_LEVEL_CLASSES
        or est._b_const is None
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


#: The level-mode gates :func:`gated_estimator` fails on purpose.
LEVEL_GATES = ("overlap", "broadcast", "quirk", "classes", "router")


def gated_estimator(gate: str, sites: int, seed: int) -> ArrayCycleEstimator:
    """A wide-area pool built to fail one level-mode gate: an overlapped
    workload, a bandwidth-limited (broadcast) topology, one quirk fit,
    more than eight classes (every site's fit nudged apart; needs 9+
    sites), or one router pair missing (explicit pairs, no default)."""
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
    elif gate == "classes":
        for i, name in enumerate(names):
            fit = db.comm[(name, "1-D")]
            db.add_comm(replace(fit, c1=fit.c1 + i / 1000))
    elif gate == "router":
        backbone = db.router_default
        db.set_router_default(None)
        skip = sorted(np.random.default_rng(seed).choice(sites, size=2, replace=False).tolist())
        for a, b in combinations(range(sites), 2):
            if [a, b] != skip:
                db.add_router(replace(backbone, src=names[a], dst=names[b]))
    ordered = order_by_power(gather_available_resources(net), "fp")
    return ArrayCycleEstimator(comp, ordered, db)


@st.composite
def level_cases(draw):
    """``(estimator, plan at limits, limits, gate)``: a wide-area pool of
    2-64 sites (a third each of 2-16, 17-32 and 33-64) at STEN-1 N = 600,
    6000 or 60000, or a pool built to fail ``gate``; at full availability
    or a uniform per-class shrink."""
    seed = draw(st.integers(0, 10_000))
    gate = draw(st.sampled_from((None,) * len(LEVEL_GATES) + LEVEL_GATES))
    if gate is None:
        sites = draw(st.one_of(st.integers(2, 16), st.integers(17, 32), st.integers(33, 64)))
        n = draw(st.sampled_from((600, 6000, 60000)))
        est = ArrayCycleEstimator(*_wide_area_case(sites, seed=seed, n=n))
    else:
        sites = draw(st.integers(9, 12) if gate == "classes" else st.integers(2, 8))
        est = gated_estimator(gate, sites, seed)
    plan = detect_equivalence_classes(est) or CollapsePlan.singletons(est.limits)
    lim = est.limits.copy()
    if draw(st.booleans()):
        for cls in plan.classes:
            lim[list(cls.indices)] = draw(st.integers(0, cls.limit))
        if not lim.any():
            lim = est.limits.copy()
    return est, plan.at_limits(lim), lim, gate


def assert_luts_match(est: ArrayCycleEstimator) -> None:
    lut, bad, pop = lut_oracle(est)
    assert np.array_equal(est._cross_lut.view(np.int64), lut.view(np.int64))
    assert np.array_equal(est._bad_lut, bad)
    assert np.array_equal(est._pop_lut, pop)


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


# -- the level sweep --------------------------------------------------------------------


@_LEVEL
@given(case=level_cases())
def test_level_search_equals_the_per_active_set_sweep(case):
    est, plan, lim, gate = case
    got = level_search(est, plan, lim)
    assert got == level_oracle(est, plan, lim)
    if gate is not None:
        assert got is None, gate


def test_level_grid_blocks_leave_the_sweep_unchanged(monkeypatch):
    """Eight singleton classes (the class cap), swept in one block and in
    blocks of one or two pattern rows: the minimum and its ties carry
    across blocks exactly."""
    est = _wide_area_estimator(8, seed=7)
    plan = CollapsePlan.singletons(est.limits)
    want = level_oracle(est, plan, est.limits)
    assert level_search(est, plan, est.limits) == want
    monkeypatch.setattr(collapse, "_LEVEL_GRID_CELLS", 64)
    assert level_search(est, plan, est.limits) == want


# -- a decision grid pinned across the rewrites -----------------------------------------

#: 221 cold decisions: 21 pool sizes straddling the LUT cap x 5 seeds at
#: STEN-1 N=6000 and N=600, plus overlapped N=600 on 2-8 sites.
GRID_SITES = tuple(range(2, 18)) + (20, 24, 32, 48, 64)
GRID = [(k, s, n, False) for n in (6000, 600) for k in GRID_SITES for s in range(7, 12)]
GRID += [(k, 7, 600, True) for k in range(2, 9)] + [(k, 8, 600, True) for k in range(2, 6)]

#: sha256 prefix of the grid's ``repr((counts, t_cycle_ms, evaluations))``
#: stream, recorded with the per-pattern level sweep, the pairwise LUT
#: loop and float-pair refinement.
GRID_DIGEST = "93547a39d842a8a6"


def test_decision_grid_is_bit_identical_to_the_loop_forms():
    digest = hashlib.sha256()
    methods = set()
    for sites, seed, n, overlap in GRID:
        net = wide_area_network(sites, seed=seed)
        ordered = order_by_power(gather_available_resources(net), "fp")
        result = ArraySearchEngine(
            stencil_computation(n, overlap=overlap), ordered, wide_area_cost_database(net)
        ).decide_counts()
        digest.update(repr((result.counts, result.t_cycle_ms, result.evaluations)).encode())
        methods.add(result.method)
    assert len(GRID) == 221
    # The grid reaches every exact mode, the level sweep included.
    assert methods == {"collapse-level", "collapse-exact", "array-scan"}
    assert digest.hexdigest()[:16] == GRID_DIGEST
