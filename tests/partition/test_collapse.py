"""The collapsed-search contract: symmetry reduction never changes the answer.

Equivalence-class collapsing (:mod:`repro.partition.collapse`) scores one
canonical member per permutation orbit of interchangeable clusters.  Its
whole value rests on one claim: the decision — winning counts (the shared
lex-smallest tie-break) *and* ``T_cycle``, bit-for-bit — is identical to
the uncollapsed engines on every instance small enough to scan.  These
tests pin that claim on randomized duplicate-class instances and the
wide-area presets, in both collapsed modes (the exact canonical scan and
the analytic level sweep), plus the plan mechanics the modes rely on:
detection, canonical expansion, frontier reuse, and the fallbacks when a
collapse stops being sound.
"""

import math

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
from repro.partition.arrayengine import ArrayCycleEstimator, ArraySearchEngine
from repro.partition.collapse import (
    CollapsedSearchEngine,
    CollapsePlan,
    EquivalenceClass,
    collapsed_exhaustive_search,
    detect_equivalence_classes,
)
from repro.partition.heuristic import _scalar_exhaustive_partition, order_by_power
from repro.partition.warmstart import SearchCache

#: Both collapsed modes: the default budget runs the exact canonical scan
#: on these small instances; budget 0 forces the level sweep (or its
#: fallback when a gate rejects the instance).
BUDGETS = (200_000, 0)

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


# -- bit-exact parity with the uncollapsed engines -------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_randomized_duplicate_class_parity(seed):
    """Exact mode and level mode vs the array engine: same counts, same
    ``T_cycle`` to the bit — the collapsed set contains every orbit's
    lex-smallest member, so even ties must resolve identically."""
    comp, ordered, db = _duplicate_class_case(9200 + seed)
    reference = ArraySearchEngine(comp, ordered, db).decide_counts()
    for budget in BUDGETS:
        engine = CollapsedSearchEngine(comp, ordered, db, exact_budget=budget)
        got = engine.decide_counts()
        assert got.counts == reference.counts, (budget, got.method)
        assert got.t_cycle_ms == reference.t_cycle_ms, (budget, got.method)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_wide_area_parity_all_engines(seed):
    """On small wide-area pools the collapsed oracle matches both engines:
    the scalar reference loop and the plain array scan."""
    comp, ordered, db = _wide_area_case(3, seed=seed, n=400)
    res = gather_available_resources(
        wide_area_network(3, seed=seed)
    )
    collapsed = exhaustive_partition(comp, res, db, collapse=True)
    references = {
        "scalar": _scalar_exhaustive_partition(comp, res, db),
        "array": exhaustive_partition(comp, res, db),
    }
    for engine, ref in references.items():
        assert collapsed.counts_by_name() == ref.counts_by_name(), engine
        assert collapsed.t_cycle_ms == ref.t_cycle_ms, engine


def test_analytic_replay_matches_the_kernel_fallback_bit_for_bit():
    """Above 32 clusters the level-mode winner is re-scored by a closed-form
    replay of the kernel fallback's arithmetic; the two agree to the bit on
    sparse, crossing and dense rows alike."""
    comp, ordered, db = _wide_area_case(40, seed=7)
    engine = CollapsedSearchEngine(comp, ordered, db)
    est = engine.estimator
    rng = np.random.default_rng(40)
    for _ in range(60):
        active = rng.random(len(ordered)) < rng.choice([0.05, 0.3, 1.0])
        row = (rng.integers(1, est.limits + 1) * active).astype(np.int64)
        if not row.any():
            continue
        replay = engine._score_row_analytic(row)
        assert replay is not None
        n = est.load_rows(row[None, :])
        assert replay == float(est.score_block(n)[0]), row


def test_level_mode_matches_exact_mode_on_wide_area_pool():
    """Forcing the analytic sweep (budget 0) reproduces the exact canonical
    scan bit-for-bit on a pool where both are feasible."""
    comp, ordered, db = _wide_area_case(5, seed=11)
    exact = CollapsedSearchEngine(comp, ordered, db).decide_counts()
    level = CollapsedSearchEngine(comp, ordered, db, exact_budget=0).decide_counts()
    assert exact.method == "collapse-exact"
    assert level.method == "collapse-level"
    assert level.counts == exact.counts
    assert level.t_cycle_ms == exact.t_cycle_ms


def test_overlapped_instances_never_use_level_mode():
    """Overlap makes ``T_c = max(T_comp, T_comm)``: comm-bound optima form
    plateaus whose lex-min the off/one/all pattern sweep cannot represent,
    so the level gate must reject and the fallback must stay bit-exact."""
    rejected = 0
    for seed in range(40):
        comp, ordered, db = _duplicate_class_case(9600 + seed)
        if not comp.communication_phases[0].overlap:
            continue
        engine = CollapsedSearchEngine(comp, ordered, db, exact_budget=0)
        got = engine.decide_counts()
        assert got.method != "collapse-level"
        reference = ArraySearchEngine(comp, ordered, db).decide_counts()
        assert got.counts == reference.counts
        assert got.t_cycle_ms == reference.t_cycle_ms
        rejected += 1
    assert rejected >= 5  # the ~30% overlap draw must have fired


# -- detection and plan mechanics ------------------------------------------------


def test_wide_area_pool_collapses_to_templates():
    """A 48-site pool stamped from 6 templates detects at most 6 classes,
    partitioning all sites with uniform limits per class."""
    comp, ordered, db = _wide_area_case(48, seed=7)
    engine = CollapsedSearchEngine(comp, ordered, db)
    plan = engine.plan
    assert plan is not None
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
    base = detect_equivalence_classes(
        CollapsedSearchEngine(comp, ordered, db).estimator
    )
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
    split = detect_equivalence_classes(
        CollapsedSearchEngine(comp, ordered, db).estimator
    )
    if split is not None:
        poisoned = next(
            cls for cls in split.classes if multi[0].indices[0] in cls.indices
        )
        assert poisoned.multiplicity < multi[0].multiplicity
    # Either way the decision stays bit-exact.
    reference = ArraySearchEngine(comp, ordered, db).decide_counts()
    got = CollapsedSearchEngine(comp, ordered, db).decide_counts()
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
    plan = detect_equivalence_classes(
        CollapsedSearchEngine(comp, ordered, db).estimator
    )
    assert plan is not None
    assert all(cls.multiplicity == 1 for cls in plan.classes)
    assert plan.collapsed_space() == plan.full_space()


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
    comp, ordered, db = _wide_area_case(4, seed=3)
    engine = CollapsedSearchEngine(comp, ordered, db)
    full = engine.decide_counts()
    assert full.method == "collapse-exact"
    lim = np.maximum(engine.estimator.limits - 1, 0)
    warm = engine.decide_counts(lim)
    cold = ArraySearchEngine(comp, ordered, db).decide_counts(lim)
    assert warm.counts == cold.counts
    assert warm.t_cycle_ms == cold.t_cycle_ms
    if warm.frontier_hit:
        assert warm.evaluations == 0 and warm.method == "collapse-frontier"


def test_nonuniform_shrink_falls_back_to_uncollapsed_scan():
    """Shrinking one member of a class breaks interchangeability; the
    engine must notice and answer through the ordered scan, still exact."""
    comp, ordered, db = _duplicate_class_case(9301)
    engine = CollapsedSearchEngine(comp, ordered, db)
    plan = engine.plan
    assert plan is not None
    multi = [cls for cls in plan.classes if cls.multiplicity > 1]
    if not multi:
        pytest.skip("seed produced no duplicate class")
    lim = engine.estimator.limits.copy()
    lim[multi[0].indices[0]] = max(0, lim[multi[0].indices[0]] - 1)
    got = engine.decide_counts(lim)
    assert got.method == "array-scan"
    cold = ArraySearchEngine(comp, ordered, db).decide_counts(lim)
    assert got.counts == cold.counts
    assert got.t_cycle_ms == cold.t_cycle_ms


def test_limits_outside_bounds_rejected():
    comp, ordered, db = _wide_area_case(3, seed=5)
    engine = CollapsedSearchEngine(comp, ordered, db)
    too_big = engine.estimator.limits + 1
    with pytest.raises(PartitionError):
        engine.decide_counts(too_big)


def test_collapse_requires_array_engine():
    """Collapse takes no engine choice: it always searches on the array
    engine's kernels."""
    comp, ordered, db = _wide_area_case(3, seed=5)
    res = gather_available_resources(wide_area_network(3, seed=5))
    with pytest.raises(TypeError, match="engine"):
        exhaustive_partition(comp, res, db, engine="scalar", collapse=True)
    cache = SearchCache()
    exhaustive_partition(comp, res, db, collapse=True, cache=cache)
    engine = cache.array_engine(cache.estimate_namespace(ordered) + ("collapsed",))
    assert isinstance(engine, CollapsedSearchEngine)
    assert isinstance(engine.estimator, ArrayCycleEstimator)


def test_collapsed_search_persists_engine_in_cache():
    """Second decide through the cache reuses the lowered collapsed engine
    (its namespace slot is distinct from the uncollapsed array engine's)."""
    comp, ordered, db = _wide_area_case(4, seed=9)
    cache = SearchCache()
    first = collapsed_exhaustive_search(comp, ordered, db, cache=cache)
    namespace = cache.estimate_namespace(ordered) + ("collapsed",)
    engine = cache.array_engine(namespace)
    assert isinstance(engine, CollapsedSearchEngine)
    assert cache.array_engine(cache.estimate_namespace(ordered)) is None
    second = collapsed_exhaustive_search(comp, ordered, db, cache=cache)
    assert second.counts == first.counts
    assert second.t_cycle_ms == first.t_cycle_ms


def test_collapse_metrics_are_recorded():
    from repro.telemetry import MetricsRegistry

    comp, ordered, db = _wide_area_case(12, seed=2)
    registry = MetricsRegistry()
    engine = CollapsedSearchEngine(comp, ordered, db, metrics=registry)
    engine.decide_counts()
    assert registry.gauge(
        "decide.collapse.logical_clusters", domain="host"
    ).value == len(engine.plan.classes)
    assert registry.counter(
        "decide.collapse.symmetry_savings", domain="host"
    ).value > 0
