"""The collapsed-search contract: symmetry reduction never changes the answer.

Equivalence-class collapsing (:mod:`repro.partition.collapse`) scores one
canonical member per permutation orbit of interchangeable clusters.  Its
whole value rests on one claim: the decision — winning counts (the shared
lex-smallest tie-break) *and* ``T_cycle``, bit-for-bit — is identical to
the ordered scan (:meth:`ArraySearchEngine.search`) on every instance
small enough to scan.  These tests pin that claim on randomized
duplicate-class instances and the wide-area presets, in both collapsed
modes (the exact canonical stream and the analytic level sweep, forced
through :func:`level_search`), plus the plan mechanics the modes rely on:
detection, canonical expansion, the engine's dispatch rule, frontier
reuse, and the fallbacks when a collapse stops being sound.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.errors import PartitionError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.presets import (
    ETHERNET_10MBPS,
    HP9000,
    IPC,
    PAPER_ROUTER,
    SPARC2,
    WIDE_AREA_SITE_TEMPLATES,
    wide_area_cost_database,
    wide_area_network,
)
from repro.model.computation import DataParallelComputation
from repro.model.phases import CommunicationPhase, ComputationPhase
from repro.partition import exhaustive_partition, gather_available_resources
from repro.partition.arrayengine import (
    ArrayCycleEstimator,
    ArraySearchEngine,
    exact_search,
)
from repro.partition.collapse import (
    CollapsePlan,
    EquivalenceClass,
    _score_row_analytic,
    detect_equivalence_classes,
    level_search,
)
from repro.partition.config import ProcessorConfiguration
from repro.partition.estimator import CycleEstimator
from repro.partition.heuristic import _scalar_exhaustive_partition, order_by_power
from repro.partition.warmstart import SearchCache

_SPECS = (SPARC2, IPC, HP9000)
_COEFFS = (
    (1.0, 1.1, 0.0005, 0.0010),
    (1.5, 1.8, 0.0008, 0.0019),
    (0.8, 0.9, 0.0004, 0.0008),
)


def _duplicate_class_case(seed: int):
    """A random pool with deliberate duplicate clusters (2-6 sites stamped
    from 1-2 templates), plus a random 1-D workload — ~30% overlapped."""
    rng = np.random.default_rng(seed)
    n_templates = int(rng.integers(1, 3))
    sites = [int(rng.integers(0, n_templates)) for _ in range(int(rng.integers(2, 7)))]
    counts = [int(rng.integers(1, 4)) for _ in range(n_templates)]
    net = HeterogeneousNetwork(
        seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER
    )
    db = CostDatabase()
    for i, t in enumerate(sites):
        name = f"s{i}-t{t}"
        net.add_cluster(name, _SPECS[t], count=counts[t])
        c1, c2, c3, c4 = _COEFFS[t]
        db.add_comm(
            CommCostFunction(
                cluster=name,
                topology="1-D",
                c1=c1,
                c2=c2,
                c3=c3,
                c4=c4,
                abs_bandwidth_quirk=False,
            )
        )
    net.validate(strict=False)
    db.set_router_default(
        LinearByteCost("*", "*", "router", intercept_ms=0.9, slope_ms_per_byte=0.0008)
    )
    comp = DataParallelComputation(
        name="rand-collapse",
        problem=None,
        num_pdus=int(rng.integers(64, 512)),
        computation_phases=[
            ComputationPhase(
                "comp", complexity=float(rng.uniform(20, 400)), op_kind="fp"
            )
        ],
        communication_phases=[
            CommunicationPhase(
                "comm",
                topology="1-D",
                complexity=float(rng.uniform(100, 4000)),
                rounds=1,
                overlap="comp" if rng.random() < 0.3 else None,
            )
        ],
    )
    ordered = order_by_power(gather_available_resources(net), "fp")
    return comp, ordered, db


def _wide_area_case(n_sites: int, *, seed: int, n: int = 600):
    net = wide_area_network(n_sites, seed=seed)
    db = wide_area_cost_database(net)
    ordered = order_by_power(gather_available_resources(net), "fp")
    return stencil_computation(n, overlap=False), ordered, db


def _both_modes(comp, ordered, db):
    """The engine's own decision and a forced level sweep (left out when a
    level-mode gate rejects the instance), as ``(method, counts, t)``."""
    engine = ArraySearchEngine(comp, ordered, db)
    decided = engine.decide_counts()
    outcomes = [(decided.method, decided.counts, decided.t_cycle_ms)]
    level = level_search(engine.estimator, engine.plan, engine.estimator.limits)
    if level is not None:
        outcomes.append(("collapse-level",) + level[:2])
    return outcomes


def _shrunk(resources, limits):
    """Resources with availability cut to ``limits`` (same cluster objects)."""
    return [
        replace(res, available=res.available[: int(m)])
        for res, m in zip(resources, limits)
    ]


def _scalar_t(comp, ordered, db, counts) -> float:
    """The scalar reference's ``T_cycle`` for one ordered counts row."""
    return CycleEstimator(comp, db).t_cycle(ProcessorConfiguration(ordered, counts))


# -- bit-exact parity with the uncollapsed engines -------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_randomized_duplicate_class_parity(seed):
    """Exact mode and level mode vs the array engine: same counts, same
    ``T_cycle`` to the bit — the collapsed set contains every orbit's
    lex-smallest member, so even ties must resolve identically."""
    comp, ordered, db = _duplicate_class_case(9200 + seed)
    reference = ArraySearchEngine(comp, ordered, db).search()
    for method, counts, t in _both_modes(comp, ordered, db):
        assert counts == reference.counts, method
        assert t == reference.t_cycle_ms, method


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_wide_area_parity_all_engines(seed):
    """On small wide-area pools the collapsed oracle matches both
    references: the scalar reference loop and the ordered array scan."""
    comp, ordered, db = _wide_area_case(3, seed=seed, n=400)
    res = gather_available_resources(
        wide_area_network(3, seed=seed)
    )
    collapsed = exhaustive_partition(comp, res, db)
    scan = ArraySearchEngine(comp, ordered, db).search()
    references = {
        "scalar": _scalar_exhaustive_partition(comp, res, db).config.counts,
        "array": scan.counts,
    }
    for engine, counts in references.items():
        assert tuple(collapsed.config.counts) == tuple(counts), engine
        assert collapsed.t_cycle_ms == _scalar_t(comp, ordered, db, counts), engine


@pytest.mark.parametrize(
    "sites, extra_station", [(17, True), (24, True), (32, True), (40, True), (32, False)]
)
def test_analytic_replay_matches_the_kernel_fallback_bit_for_bit(sites, extra_station):
    """Above 16 clusters the kernels fall back to per-row scoring, and the
    level-mode winner is re-scored by a closed-form replay of that
    fallback's arithmetic; the two agree to the bit on sparse, crossing
    and dense rows alike, with and without the router's extra station."""
    comp, ordered, db = _wide_area_case(sites, seed=7)
    db.router_extra_station = extra_station
    est = ArrayCycleEstimator(comp, ordered, db)
    assert not est.vectorized_fast_path
    rng = np.random.default_rng(sites)
    for _ in range(60):
        active = rng.random(len(ordered)) < rng.choice([0.05, 0.3, 1.0])
        row = (rng.integers(1, est.limits + 1) * active).astype(np.int64)
        if not row.any():
            continue
        replay = _score_row_analytic(est, row)
        assert replay is not None
        n = est.load_rows(row[None, :])
        assert replay == float(est.score_block(n)[0]), row


def test_level_mode_matches_exact_mode_on_wide_area_pool():
    """Forcing the analytic sweep reproduces the exact canonical stream
    bit-for-bit on a pool where both are feasible."""
    comp, ordered, db = _wide_area_case(5, seed=11)
    engine = ArraySearchEngine(comp, ordered, db)
    exact = engine.decide_counts()
    level = level_search(engine.estimator, engine.plan, engine.estimator.limits)
    assert exact.method == "collapse-exact"
    assert level is not None
    counts, t, _ = level
    assert counts == exact.counts
    assert t == exact.t_cycle_ms


def test_overlapped_instances_never_use_level_mode():
    """Overlap makes ``T_c = max(T_comp, T_comm)``: comm-bound optima form
    plateaus whose lex-min the off/one/all pattern sweep cannot represent,
    so the level gate must reject and the stream must stay bit-exact."""
    rejected = 0
    for seed in range(40):
        comp, ordered, db = _duplicate_class_case(9600 + seed)
        if not comp.communication_phases[0].overlap:
            continue
        engine = ArraySearchEngine(comp, ordered, db)
        limits = engine.estimator.limits
        assert level_search(engine.estimator, engine.plan, limits) is None
        got = engine.decide_counts()
        assert got.method != "collapse-level"
        reference = ArraySearchEngine(comp, ordered, db).search()
        assert got.counts == reference.counts
        assert got.t_cycle_ms == reference.t_cycle_ms
        rejected += 1
    assert rejected >= 5  # the ~30% overlap draw must have fired


#: Run in a child process under a 3 GiB address-space cap: cold decisions
#: on load-adjusted wide-area pools of 11-21 classes, one JSON line each.
_LOADED_POOLS_CHILD = """
import json, resource, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from repro.apps.stencil import stencil_computation
from repro.partition import exhaustive_partition
from repro.partition.arrayengine import ArraySearchEngine
from repro.partition.wideareabench import _loaded_pool
comp = stencil_computation(6000, overlap=False)
for sites, share in ((16, 0.05), (64, 0.01), (256, 0.01)):
    ordered, db = _loaded_pool(sites, 7, share)
    start = time.perf_counter()
    engine = ArraySearchEngine(comp, ordered, db)
    result = engine.decide_counts()
    wall_s = time.perf_counter() - start
    decision = exhaustive_partition(comp, ordered, db)
    print(json.dumps({
        "sites": sites, "classes": len(engine.plan.classes), "method": result.method,
        "wall_s": wall_s, "counts": result.counts, "t_cycle_ms": result.t_cycle_ms,
        "exhaustive_counts": decision.config.counts,
        "exhaustive_t_cycle_ms": decision.t_cycle_ms,
    }))
"""


def test_loaded_pools_of_many_classes_decide_under_a_memory_cap():
    """Load adjustment gives every site with a loaded node a class of its
    own.  These pools once exhausted a 3 GiB cap in the canonical stream;
    level mode now decides them in milliseconds.  The scalar re-estimate
    in ``exhaustive_partition`` agrees to the last few ulps."""
    # One BLAS thread: per-thread buffers reserve address space that
    # scales with the core count, not with the search.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_POOLS_CHILD],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["sites"] for row in rows] == [16, 64, 256]
    for row in rows:
        assert row["classes"] > 8, row["sites"]
        assert row["method"] == "collapse-level"
        assert row["wall_s"] < 1.0
        assert row["counts"] == row["exhaustive_counts"]
        assert math.isclose(row["t_cycle_ms"], row["exhaustive_t_cycle_ms"], rel_tol=1e-12)


# -- detection and plan mechanics ------------------------------------------------


def test_wide_area_pool_collapses_to_templates():
    """A 48-site pool stamped from 6 templates detects at most 6 classes,
    partitioning all sites with uniform limits per class."""
    comp, ordered, db = _wide_area_case(48, seed=7)
    engine = ArraySearchEngine(comp, ordered, db)
    plan = engine.plan
    assert plan.collapses
    assert len(plan.classes) <= len(WIDE_AREA_SITE_TEMPLATES)
    assert sum(cls.multiplicity for cls in plan.classes) == 48
    covered = sorted(i for cls in plan.classes for i in cls.indices)
    assert covered == list(range(48))
    for cls in plan.classes:
        for i in cls.indices:
            assert ordered[i].n_available == cls.limit
    # The collapse is what buys the scaling: orders of magnitude between
    # the ordered space and the canonical one.
    assert plan.log10_full_space() > 30.0
    assert math.log10(plan.collapsed_space()) < plan.log10_full_space() / 2


def test_detection_splits_on_asymmetric_crossing_costs():
    """An explicit router entry that breaks one pair's symmetry must split
    the would-be class (refinement leaves no unsound grouping behind)."""
    comp, ordered, db = _duplicate_class_case(4242)
    base = detect_equivalence_classes(ArrayCycleEstimator(comp, ordered, db))
    assert base is not None
    multi = [cls for cls in base.classes if cls.multiplicity > 1]
    if not multi:
        pytest.skip("seed produced no duplicate class")
    # Poison one member's crossing toward some other cluster.
    victim = ordered[multi[0].indices[0]].cluster.name
    other_idx = next(
        i for i in range(len(ordered)) if i not in multi[0].indices[:1]
    )
    other = ordered[other_idx].cluster.name
    db.add_router(
        LinearByteCost(victim, other, "router", intercept_ms=50.0, slope_ms_per_byte=0.01)
    )
    split = detect_equivalence_classes(ArrayCycleEstimator(comp, ordered, db))
    if split is not None:
        poisoned = next(
            cls for cls in split.classes if multi[0].indices[0] in cls.indices
        )
        assert poisoned.multiplicity < multi[0].multiplicity
    # Either way the decision stays bit-exact.
    reference = ArraySearchEngine(comp, ordered, db).search()
    got = ArraySearchEngine(comp, ordered, db).decide_counts()
    assert got.counts == reference.counts
    assert got.t_cycle_ms == reference.t_cycle_ms


def test_heterogeneous_clusters_detect_as_singletons():
    """Distinct specs and coefficients per cluster: detection still returns
    a plan, but no class has two members (nothing to collapse)."""
    net = HeterogeneousNetwork(
        seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER
    )
    db = CostDatabase()
    for i, (spec, coeffs) in enumerate(zip(_SPECS, _COEFFS)):
        net.add_cluster(f"c{i}", spec, count=2 + i)
        c1, c2, c3, c4 = coeffs
        db.add_comm(
            CommCostFunction(
                cluster=f"c{i}", topology="1-D", c1=c1, c2=c2, c3=c3, c4=c4,
                abs_bandwidth_quirk=False,
            )
        )
    net.validate(strict=False)
    db.set_router_default(
        LinearByteCost("*", "*", "router", intercept_ms=0.9, slope_ms_per_byte=0.0008)
    )
    comp = stencil_computation(200, overlap=False)
    ordered = order_by_power(gather_available_resources(net), "fp")
    plan = detect_equivalence_classes(ArrayCycleEstimator(comp, ordered, db))
    assert plan is not None
    assert all(cls.multiplicity == 1 for cls in plan.classes)
    assert plan.collapsed_space() == plan.full_space()
    # ... which is the trivial plan the engine would have used anyway.
    assert plan == CollapsePlan.singletons([r.n_available for r in ordered])


def test_expand_places_ascending_counts_at_ascending_positions():
    """Canonical expansion: each class's multiset sorted ascending over its
    member positions — the orbit's lex-smallest row by construction."""
    plan = CollapsePlan(
        classes=(
            EquivalenceClass(indices=(0, 2, 4), limit=3),
            EquivalenceClass(indices=(1, 3), limit=2),
        ),
        n_clusters=5,
    )
    assert plan.expand([(3, 0, 1), (2, 0)]) == (0, 0, 1, 2, 3)
    assert plan.expand([(2, 2, 2), (1, 1)]) == (2, 1, 2, 1, 2)
    # Space accounting: C(3+3,3) * C(2+2,2) vs 4^3 * 3^2.
    assert plan.collapsed_space() == 20 * 6
    assert plan.full_space() == 64 * 9


# -- frontier, fallbacks, wiring -------------------------------------------------


def test_uniform_shrink_reuses_frontier_and_matches_cold_search():
    comp, ordered, db = _wide_area_case(5, seed=11)
    engine = ArraySearchEngine(comp, ordered, db)
    full = engine.decide_counts()
    assert full.method == "collapse-exact"
    lim = np.maximum(engine.estimator.limits - 1, 0)
    warm = engine.decide_counts(lim)
    cold = ArraySearchEngine(comp, ordered, db).decide_counts(lim)
    assert warm.counts == cold.counts
    assert warm.t_cycle_ms == cold.t_cycle_ms
    if warm.frontier_hit:
        assert warm.evaluations == 0 and warm.method == "array-frontier"


def test_nonuniform_shrink_falls_back_to_uncollapsed_scan():
    """Shrinking one member of a class breaks interchangeability; the
    engine must notice and answer through the ordered scan, still exact
    against the scalar oracle on the restricted pool."""
    comp, ordered, db = _duplicate_class_case(9301)
    engine = ArraySearchEngine(comp, ordered, db)
    plan = engine.plan
    assert plan.collapses
    multi = [cls for cls in plan.classes if cls.multiplicity > 1]
    lim = engine.estimator.limits.copy()
    lim[multi[0].indices[0]] = max(0, lim[multi[0].indices[0]] - 1)
    got = engine.decide_counts(lim)
    assert got.method == "array-scan"
    cold = _scalar_exhaustive_partition(comp, _shrunk(ordered, lim), db)
    got_counts = {r.name: c for r, c in zip(ordered, got.counts) if c}
    assert got_counts == {n: c for n, c in cold.counts_by_name().items() if c}
    assert _scalar_t(comp, ordered, db, got.counts) == cold.t_cycle_ms


# -- the engine's dispatch rule ---------------------------------------------------


def test_shrunk_limit_miss_keeps_the_full_frontier():
    """Only a stream at the lowered limits records the frontier: a
    shrunk-limit search the frontier cannot answer leaves it in place, so
    a later shrink it can prove is still a zero-evaluation hit."""
    comp, ordered, db = _wide_area_case(5, seed=11)
    engine = ArraySearchEngine(comp, ordered, db)
    assert engine.decide_counts().method == "collapse-exact"
    frontier = engine.frontier
    assert frontier is not None
    limits = engine.estimator.limits
    member = next(cls for cls in engine.plan.classes if cls.multiplicity > 1)
    for shrink in (1, 2):  # non-uniform: streamed over the trivial plan
        lim = limits.copy()
        lim[member.indices[0]] -= shrink
        miss = engine.decide_counts(lim)
        assert miss.frontier_hit is False and miss.evaluations > 0
        assert engine.frontier is frontier
    uniform = limits.copy()
    uniform[list(member.indices)] -= 1
    for lim in (uniform, limits):
        again = engine.decide_counts(lim)
        assert again.frontier_hit and again.evaluations == 0
        assert again.method == "array-frontier"


def test_detected_frontier_never_answers_a_nonuniform_shrink():
    """A frontier of canonical rows is sound only while classes stay
    interchangeable: a non-uniform shrink is never a frontier hit, and its
    answer is the scalar oracle's on the restricted pool."""
    comp, ordered, db = _wide_area_case(5, seed=11)
    engine = ArraySearchEngine(comp, ordered, db)
    engine.decide_counts()
    assert engine.frontier is not None
    for member in (cls for cls in engine.plan.classes if cls.multiplicity > 1):
        lim = engine.estimator.limits.copy()
        lim[member.indices[-1]] -= 1
        got = engine.decide_counts(lim)
        assert got.frontier_hit is False
        cold = _scalar_exhaustive_partition(comp, _shrunk(ordered, lim), db)
        got_counts = {r.name: c for r, c in zip(ordered, got.counts) if c}
        assert got_counts == {n: c for n, c in cold.counts_by_name().items() if c}
        assert _scalar_t(comp, ordered, db, got.counts) == cold.t_cycle_ms


def test_level_gate_failure_streams_the_canonical_space():
    """Overlapped STEN-1 on 8 wide-area sites: the canonical space is over
    the budget, the level gate rejects overlap, so the engine streams the
    *canonical* rows (not the ordered space) — fewer evaluations than the
    canonical space itself, and the ordered scan's decision."""
    net = wide_area_network(8, seed=7)
    db = wide_area_cost_database(net)
    ordered = order_by_power(gather_available_resources(net), "fp")
    comp = stencil_computation(600, overlap=True)
    engine = ArraySearchEngine(comp, ordered, db)
    limits = engine.estimator.limits
    assert engine.plan.collapsed_space() == 207_900  # over the 200k budget
    assert level_search(engine.estimator, engine.plan, limits) is None
    got = engine.decide_counts()
    assert got.method == "collapse-exact"
    assert got.evaluations < 207_900
    scan = ArraySearchEngine(comp, ordered, db).search()
    assert got.counts == scan.counts
    assert got.t_cycle_ms == scan.t_cycle_ms


def _crossed_router_case():
    """Two pairs of identical clusters whose routers cross:
    a1-b1 = a2-b2 != a1-b2 = a2-b1.  Each member sees both crossing values
    toward the other pair, so refinement cannot split them and no uniform
    class-pair crossing exists: detection proves nothing."""
    net = HeterogeneousNetwork(
        seed=1, ethernet=ETHERNET_10MBPS, router_params=PAPER_ROUTER
    )
    db = CostDatabase()
    for name, spec, coeffs in (
        ("a1", SPARC2, _COEFFS[0]),
        ("a2", SPARC2, _COEFFS[0]),
        ("b1", IPC, _COEFFS[1]),
        ("b2", IPC, _COEFFS[1]),
    ):
        net.add_cluster(name, spec, count=3)
        c1, c2, c3, c4 = coeffs
        db.add_comm(
            CommCostFunction(
                cluster=name, topology="1-D", c1=c1, c2=c2, c3=c3, c4=c4,
                abs_bandwidth_quirk=False,
            )
        )
    net.validate(strict=False)
    db.set_router_default(
        LinearByteCost("*", "*", "router", intercept_ms=0.9, slope_ms_per_byte=0.0008)
    )
    for a, b, intercept in (
        ("a1", "b1", 0.5), ("a2", "b2", 0.5), ("a1", "b2", 2.5), ("a2", "b1", 2.5)
    ):
        db.add_router(
            LinearByteCost(a, b, "router", intercept_ms=intercept, slope_ms_per_byte=0.001)
        )
    comp = stencil_computation(300, overlap=False)
    return comp, gather_available_resources(net), db


def test_undetectable_pool_decides_through_the_trivial_plan():
    comp, res, db = _crossed_router_case()
    ordered = order_by_power(res, "fp")
    assert detect_equivalence_classes(ArrayCycleEstimator(comp, ordered, db)) is None
    engine = ArraySearchEngine(comp, ordered, db)
    assert engine.plan == CollapsePlan.singletons([r.n_available for r in ordered])
    got = engine.decide_counts()
    assert got.method == "array-scan"
    scalar = _scalar_exhaustive_partition(comp, res, db)
    assert got.counts == tuple(scalar.config.counts)
    assert _scalar_t(comp, ordered, db, got.counts) == scalar.t_cycle_ms
    assert exhaustive_partition(comp, res, db).t_cycle_ms == scalar.t_cycle_ms


def test_limits_outside_bounds_rejected():
    comp, ordered, db = _wide_area_case(3, seed=5)
    engine = ArraySearchEngine(comp, ordered, db)
    too_big = engine.estimator.limits + 1
    with pytest.raises(PartitionError):
        engine.decide_counts(too_big)


def test_collapse_requires_array_engine():
    """Collapse takes no engine choice: it always searches on the array
    engine's kernels."""
    comp, ordered, db = _wide_area_case(3, seed=5)
    res = gather_available_resources(wide_area_network(3, seed=5))
    with pytest.raises(TypeError, match="engine"):
        exhaustive_partition(comp, res, db, engine="scalar")
    cache = SearchCache()
    exhaustive_partition(comp, res, db, cache=cache)
    engine = cache.array_engine(cache.estimate_namespace(ordered))
    assert isinstance(engine, ArraySearchEngine)
    assert isinstance(engine.estimator, ArrayCycleEstimator)


def test_collapsed_search_persists_engine_in_cache():
    """Second decide through the cache reuses the lowered engine, in the
    one slot per estimate namespace (no separate collapsed slot)."""
    comp, ordered, db = _wide_area_case(4, seed=9)
    cache = SearchCache()
    first = exact_search(comp, ordered, db, cache=cache)
    namespace = cache.estimate_namespace(ordered)
    engine = cache.array_engine(namespace)
    assert isinstance(engine, ArraySearchEngine)
    assert cache.array_engine(namespace + ("collapsed",)) is None
    second = exact_search(comp, ordered, db, cache=cache)
    assert cache.array_engine(namespace) is engine
    assert second.counts == first.counts
    assert second.t_cycle_ms == first.t_cycle_ms


def test_collapse_metrics_are_recorded():
    from repro.telemetry import MetricsRegistry

    comp, ordered, db = _wide_area_case(12, seed=2)
    registry = MetricsRegistry()
    engine = ArraySearchEngine(comp, ordered, db, metrics=registry)
    engine.decide_counts()
    assert registry.gauge(
        "decide.collapse.logical_clusters", domain="host"
    ).value == len(engine.plan.classes)
    assert registry.counter(
        "decide.collapse.symmetry_savings", domain="host"
    ).value > 0
