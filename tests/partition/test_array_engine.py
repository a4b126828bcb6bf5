"""The array-engine contract: the production engine agrees with the reference.

Two implementations of the Eq 3-6 objective exist — the scalar reference
:class:`CycleEstimator` and the preallocated streaming
:class:`ArrayCycleEstimator` — and every search built on them must make
the identical decision: same winning counts (lex-smallest on exact ties),
same ``T_cycle`` (bit for bit once the winner is re-estimated, within
1e-9 ms for raw kernel values).  Exact decisions are checked three ways:
the scalar product loop, the ordered scan (:meth:`ArraySearchEngine.search`),
and the engine's own decision, which collapses interchangeable clusters.
The second half exercises engine reuse: after arbitrary availability
deltas, a decision searched on one lowered engine must equal a cold
search from scratch.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.errors import FittingError, PartitionError
from repro.experiments.paper import paper_cost_database
from repro.experiments.resilience import resilience_grid, resilience_report
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.presets import paper_testbed
from repro.hardware.processor import ProcessorSpec
from repro.model.workloads import (
    random_computation,
    random_cost_database,
    random_network,
)
from repro.partition import (
    CycleEstimator,
    DecisionEngine,
    ProcessorConfiguration,
    RuntimePolicy,
    exhaustive_partition,
    gather_available_resources,
    order_by_power,
    partition,
    prefix_scan_partition,
)
from repro.partition import arrayengine, collapse
from repro.partition.arrayengine import (
    ArrayCycleEstimator,
    ArraySearchEngine,
    _stream_search,
    prefix_count_matrix,
)
from repro.partition.collapse import CollapsePlan
from repro.partition.perfbench import synthetic_database, synthetic_network
from repro.partition.heuristic import _scalar_exhaustive_partition
from repro.partition.warmstart import SearchCache
from tests.partition.test_fastpath_equivalence import (
    _allgather_computation,
    array_block_best,
    full_count_matrix,
    score_rows,
)

TOL_MS = 1e-9


def _nonzero_counts(decision) -> dict[str, int]:
    """Counts by name with zero clusters dropped (ordering-robust compare)."""
    return {name: c for name, c in decision.counts_by_name().items() if c}


def _small_random_case(seed: int):
    """A random net/db/computation kept small enough for the scalar oracle."""
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    comp = random_computation(rng)
    res = gather_available_resources(net)
    if sum(r.n_available for r in res) > 24:
        pytest.skip("keep the scalar exhaustive scan small")
    return rng, comp, res, db


def assert_oracles_agree(comp, res, db):
    """The exact optimum three ways and the prefix scan two ways.

    Exact winners are re-estimated by the scalar reference on the same
    counts, so their ``T_cycle`` must match bit for bit; the prefix scan's
    array side is a raw kernel value, within 1e-9 ms of the scalar one.
    """
    ref = _scalar_exhaustive_partition(comp, res, db)
    got = exhaustive_partition(comp, res, db)
    assert got.counts_by_name() == ref.counts_by_name()
    assert got.t_cycle_ms == ref.t_cycle_ms
    ordered_scan = ArraySearchEngine(comp, list(ref.config.resources), db).search()
    assert ordered_scan.counts == tuple(ref.config.counts)
    scan = prefix_scan_partition(comp, res, db)
    ordered = list(scan.config.resources)
    est = ArrayCycleEstimator(comp, ordered, db)
    t_best, counts = array_block_best(est, prefix_count_matrix(est.limits))
    assert counts == tuple(scan.config.counts)
    assert abs(t_best - scan.t_cycle_ms) < TOL_MS


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("n", [60, 600])
def test_paper_testbed_three_way_oracles(n, overlap):
    """Both oracles on the paper testbed: every path, one answer."""
    res = gather_available_resources(paper_testbed())
    db = paper_cost_database()
    assert_oracles_agree(stencil_computation(n, overlap=overlap), res, db)


@pytest.mark.parametrize("seed", range(12))
def test_randomized_three_way_decision_parity(seed):
    """Random topologies and annotations: the paths never disagree."""
    _rng, comp, res, db = _small_random_case(8100 + seed)
    assert_oracles_agree(comp, res, db)


@pytest.mark.parametrize("search", ["binary", "scan"])
@pytest.mark.parametrize("seed", range(10))
def test_heuristic_array_matches_scalar(seed, search):
    """The §5 heuristic probes through the scalar estimator only; every
    configuration it probed, re-scored by the array kernels, agrees
    component by component, so the exact path and the heuristic price a
    configuration the same way.  The probe memo, the evaluation count and
    the trace all describe the same probes.
    """
    rng = np.random.default_rng(8200 + seed)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    comp = random_computation(rng)
    res = gather_available_resources(net)
    cache = SearchCache()
    decision = partition(comp, res, db, search=search, cache=cache)
    ordered = list(decision.config.resources)
    probes = cache.estimator_memo(ordered)
    assert len(probes) == decision.evaluations == len(decision.trace)
    rows = np.array(sorted(probes), dtype=np.int64)
    t_comp, t_comm, t_overlap, t_cycle = score_rows(
        ArrayCycleEstimator(comp, ordered, db), rows
    )
    for m, counts in enumerate(map(tuple, rows.tolist())):
        ref = probes[counts]
        assert abs(t_comp[m] - ref.t_comp_ms) < TOL_MS, counts
        assert abs(t_comm[m] - ref.t_comm_ms) < TOL_MS, counts
        assert abs(t_overlap[m] - ref.t_overlap_ms) < TOL_MS, counts
        assert abs(t_cycle[m] - ref.t_cycle_ms) < TOL_MS, counts


def test_unknown_engine_rejected():
    """No cost-model engine selector is left anywhere: one engine per job."""
    res = gather_available_resources(paper_testbed())
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    for oracle in (partition, prefix_scan_partition, exhaustive_partition):
        with pytest.raises(TypeError, match="engine"):
            oracle(comp, res, db, engine="array")
        # T_c excludes start-up, so no search takes it.
        with pytest.raises(TypeError, match="startup_ms"):
            oracle(comp, res, db, startup_ms=0.0)
    with pytest.raises(TypeError, match="engine"):
        DecisionEngine(comp, db, engine="array")
    with pytest.raises(TypeError, match="prune"):
        DecisionEngine(comp, db).decide_exact(res, prune=False)
    # One exact engine: no collapse, prune, budget or block-size knob left.
    with pytest.raises(TypeError, match="collapse"):
        exhaustive_partition(comp, res, db, collapse=True)
    with pytest.raises(TypeError, match="prune"):
        exhaustive_partition(comp, res, db, prune=False)
    with pytest.raises(TypeError, match="collapse"):
        DecisionEngine(comp, db).decide_exact(res, collapse=True)
    ordered = order_by_power(res)
    with pytest.raises(TypeError, match="max_rows"):
        ArraySearchEngine(comp, ordered, db, max_rows=64)
    engine = ArraySearchEngine(comp, ordered, db)
    for knob in ("prune", "exact_budget", "collapse"):
        with pytest.raises(TypeError, match=knob):
            engine.decide_counts(**{knob: False})
    # The prune is a size decision, and T_c excludes start-up.
    with pytest.raises(TypeError, match="prune"):
        engine.search(prune=False)
    with pytest.raises(TypeError, match="startup_ms"):
        ArraySearchEngine(comp, ordered, db, startup_ms=0.0)
    with pytest.raises(TypeError, match="rtol"):
        collapse.detect_equivalence_classes(engine.estimator, rtol=0.0)
    for gone in ("CollapsedSearchEngine", "collapsed_exhaustive_search"):
        assert not hasattr(collapse, gone)
    for gone in ("array_exhaustive_search", "engine_compatible", "_streamed_search"):
        assert not hasattr(arrayengine, gone)
    for gone in ("iter_full_blocks", "iter_pruned_blocks", "limits_key"):
        assert not hasattr(ArrayCycleEstimator, gone)
    assert not hasattr(collapse, "_limited_prefix_rows")
    with pytest.raises(TypeError, match="engine"):
        RuntimePolicy(engine="array")
    for grid in (resilience_grid, resilience_report):
        with pytest.raises(TypeError, match="decide_engine"):
            grid(decide_engine="array")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.partition.fastpath")
    for gone in ("ArrayHeuristicEstimator", "array_prefix_search"):
        assert not hasattr(arrayengine, gone)


def test_one_pdu_floor_streamed():
    """The streamed enumeration starts past the empty config: every scored
    row allocates at least one PDU, and an unpruned scan visits exactly
    the scalar oracle's full space."""
    res = order_by_power(gather_available_resources(paper_testbed()))
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    engine = ArraySearchEngine(comp, res, db)
    result = engine.search()
    assert result.method == "array-scan"
    space = int(np.prod([r.n_available + 1 for r in res]))
    assert result.evaluations == space - 1
    assert result.evaluations == full_count_matrix(res).shape[0]
    scalar = _scalar_exhaustive_partition(comp, res, db)
    assert scalar.evaluations == result.evaluations
    assert tuple(scalar.config.counts) == result.counts


def _twin_cluster_network() -> tuple[HeterogeneousNetwork, CostDatabase]:
    """Two identical clusters => exact T_cycle ties between mirrored counts."""
    net = HeterogeneousNetwork(seed=0)
    spec = ProcessorSpec(
        name="twin", fp_usec_per_op=0.5, int_usec_per_op=0.1, comm_speed_factor=1.0
    )
    net.add_cluster("a", spec, count=4)
    net.add_cluster("b", spec, count=4)
    net.validate()
    db = CostDatabase()
    for name in ("a", "b"):
        db.add_comm(CommCostFunction(name, "1-D", 0.5, 1.0, 0.0004, 0.001))
    db.add_router(LinearByteCost("a", "b", "router", 0.2, 0.0008))
    return net, db


def test_lexicographic_tie_break_parity():
    """Mirrored configs tie exactly; both engines settle on the same one."""
    net, db = _twin_cluster_network()
    res = gather_available_resources(net)
    comp = stencil_computation(300, overlap=False)
    ref = _scalar_exhaustive_partition(comp, res, db)
    got = exhaustive_partition(comp, res, db)
    # The mirror of the winner really does tie (the scenario is symmetric).
    ordered = order_by_power(res)
    unpruned = ArraySearchEngine(comp, ordered, db).search()
    assert unpruned.method == "array-scan"
    assert unpruned.counts == tuple(ref.config.counts)
    counts = tuple(ref.config.counts)
    if counts != counts[::-1]:
        est = CycleEstimator(comp, db)
        mirrored = est.t_cycle(ProcessorConfiguration(ordered, counts[::-1]))
        assert abs(mirrored - ref.t_cycle_ms) < TOL_MS
    assert got.counts_by_name() == ref.counts_by_name()
    assert got.t_cycle_ms == ref.t_cycle_ms


def test_callback_annotations_fall_back_exactly():
    """per_config_complexity builds no crossing table — still bit-parity."""
    rng = np.random.default_rng(123)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    res = gather_available_resources(net)
    comp = _allgather_computation(480)
    est = ArrayCycleEstimator(
        comp, order_by_power(res), db
    )
    assert est._cross_lut is None
    assert_oracles_agree(comp, res, db)


def test_missing_router_raises_like_scalar():
    """Crossing rows without a router entry: FittingError through the
    streamed path exactly as through the scalar estimator; single-cluster limits
    never touch the router and still decide."""
    ordered = order_by_power(gather_available_resources(paper_testbed()))
    db = CostDatabase()
    for name in ("sparc2", "ipc"):
        db.add_comm(CommCostFunction(name, "1-D", 0.5, 1.0, 0.0004, 0.001))
    comp = stencil_computation(300, overlap=False)
    engine = ArraySearchEngine(comp, ordered, db)
    with pytest.raises(FittingError, match="router"):
        engine.search()
    # Scoped to one cluster, no crossing rows exist: matches the scalar scan.
    limits = np.zeros(len(ordered), dtype=np.int64)
    limits[0] = ordered[0].n_available
    scoped = ArraySearchEngine(comp, ordered, db).decide_counts(limits)
    scalar = CycleEstimator(comp, db)
    best = min(
        range(1, ordered[0].n_available + 1),
        key=lambda p: scalar.t_cycle(
            ProcessorConfiguration(ordered, (p,) + (0,) * (len(ordered) - 1))
        ),
    )
    assert scoped.counts[0] == best and not any(scoped.counts[1:])


def test_missing_comm_function_raises_like_scalar():
    ordered = order_by_power(gather_available_resources(paper_testbed()))
    db = CostDatabase()
    db.add_comm(CommCostFunction(ordered[0].name, "1-D", 0.5, 1.0, 0.0004, 0.001))
    for other in ordered[1:]:
        db.add_router(
            LinearByteCost(ordered[0].name, other.name, "router", 0.2, 0.0008)
        )
    comp = stencil_computation(300, overlap=False)
    with pytest.raises(FittingError, match="no fitted cost function"):
        ArraySearchEngine(comp, ordered, db).search()


# -- shrinks on one lowered engine -----------------------------------------------


def _shrunk(resources, limits):
    """Resources with availability cut to ``limits`` (same cluster objects)."""
    return [
        replace(res, available=res.available[: int(m)])
        for res, m in zip(resources, limits)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_frontier_decisions_match_cold(seed):
    """Every decide under random shrunk limits, searched on one lowered
    engine, equals a cold search of the shrunk pool: the scalar-checked
    oracle to 1e-9 ms and a fresh engine bit for bit.  (The id is kept
    from when a frontier of scored rows answered some of these shrinks.)"""
    rng, comp, res, db = _small_random_case(8300 + seed)
    kind = CycleEstimator(comp, db).op_kind
    ordered = order_by_power(res, kind)
    engine = ArraySearchEngine(comp, ordered, db)
    est, plan = engine.estimator, engine.plan
    full = engine.decide_counts()
    cold_full = exhaustive_partition(comp, ordered, db)
    assert tuple(cold_full.config.counts) == full.counts
    limits = np.array([r.n_available for r in ordered], dtype=np.int64)
    searched = 0
    for _ in range(6):
        lim = rng.integers(0, limits + 1)
        if not lim.any():
            continue
        result = engine.decide_counts(lim)
        assert result.evaluations > 0  # a shrink searches the shrunk space
        searched += 1
        cold = exhaustive_partition(comp, _shrunk(ordered, lim), db)
        got = dict(
            (r.name, int(c)) for r, c in zip(ordered, result.counts) if c
        )
        assert got == _nonzero_counts(cold)
        assert abs(result.t_cycle_ms - cold.t_cycle_ms) < TOL_MS
        fresh = ArraySearchEngine(comp, _shrunk(ordered, lim), db).decide_counts()
        assert (result.counts, result.t_cycle_ms) == (fresh.counts, fresh.t_cycle_ms)
    # The lowering and the detected plan survive every shrink.
    assert engine.estimator is est and engine.plan is plan
    again = engine.decide_counts(limits)
    assert (again.counts, again.t_cycle_ms) == (full.counts, full.t_cycle_ms)
    assert searched >= 1  # seeds are fixed; some shrink really ran


def test_shrunk_limit_miss_keeps_the_ordered_frontier():
    """24 shrinks of the ``synthetic:32,32,32`` pool through one engine:
    each searches the shrunk space and equals a cold ordered scan of the
    shrunk pool, counts and ``T_c`` bit for bit.  (The id is kept from
    when a frontier recorded at full availability answered some of them.)"""
    net = synthetic_network((32, 32, 32))
    db = synthetic_database(["c0", "c1", "c2"])
    comp = stencil_computation(600, overlap=False)
    ordered = order_by_power(gather_available_resources(net))
    engine = ArraySearchEngine(comp, ordered, db)
    assert engine.decide_counts().method == "array-pruned"
    est = engine.estimator
    limits = est.limits
    rng = np.random.default_rng(32)
    for _ in range(24):
        lim = rng.integers(1, limits + 1)
        got = engine.decide_counts(lim)
        assert engine.estimator is est and got.evaluations > 0
        cold = ArraySearchEngine(comp, _shrunk(ordered, lim), db).search()
        assert got.counts == cold.counts
        assert got.t_cycle_ms == cold.t_cycle_ms


@pytest.mark.parametrize("seed", range(8))
def test_cached_array_oracle_tracks_availability_deltas(seed):
    """exhaustive_partition(cache=...) over arbitrary delta sequences —
    shrinks, partial restores, full restores — always equals the cold
    array search and the scalar oracle on the same pool."""
    rng, comp, res, db = _small_random_case(8400 + seed)
    cache = SearchCache()
    limits = np.array([r.n_available for r in res], dtype=np.int64)
    # Start from a shrunk pool so a later restore *grows* past the first
    # lowering and forces a fresh engine in the cache slot.
    pools = [np.maximum(limits - 1, 1)]
    for _ in range(4):
        lim = rng.integers(0, limits + 1)
        if lim.any():
            pools.append(lim)
    pools.append(limits)
    for lim in pools:
        pool = _shrunk(res, lim)
        warm = exhaustive_partition(comp, pool, db, cache=cache)
        cold = exhaustive_partition(comp, pool, db)
        scalar = _scalar_exhaustive_partition(comp, pool, db)
        assert _nonzero_counts(warm) == _nonzero_counts(cold), lim
        assert _nonzero_counts(warm) == _nonzero_counts(scalar), lim
        assert warm.t_cycle_ms == cold.t_cycle_ms == scalar.t_cycle_ms


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_shrink_best_is_exact_or_abstains(seed, prune):
    """``_stream_search`` at shrunk limits, pruned and unpruned, returns
    brute force's lex-smallest optimal row and its value bit for bit; a
    shrink that selects nothing is a typed error.  The prune is a size
    decision relative to the workspace, so a one-row workspace forces it.
    (The id is kept from the frontier's masked argmin, which could
    abstain.)"""
    rng, comp, res, db = _small_random_case(8500 + seed)
    kind = CycleEstimator(comp, db).op_kind
    ordered = order_by_power(res, kind)
    max_rows = 1 if prune else arrayengine.DEFAULT_MAX_ROWS
    est = ArrayCycleEstimator(comp, ordered, db, max_rows=max_rows)
    matrix = full_count_matrix(ordered)
    t_all = score_rows(ArrayCycleEstimator(comp, ordered, db), matrix)[3]
    limits = np.array([r.n_available for r in ordered], dtype=np.int64)
    answered = pruned = 0
    for _ in range(8):
        lim = rng.integers(0, limits + 1)
        plan = CollapsePlan.singletons(lim)
        feasible = np.all(matrix <= lim[None, :], axis=1)
        if not feasible.any():
            with pytest.raises(PartitionError, match="no candidate configurations"):
                _stream_search(est, plan, lim, metrics=None)
            continue
        got = _stream_search(est, plan, lim, metrics=None)
        pruned += got.method == "array-pruned"
        t_sub = t_all[feasible]
        rows_sub = matrix[feasible]
        t_min = float(np.min(t_sub))
        tied = np.flatnonzero(t_sub == t_min)
        brute = min(tuple(int(c) for c in rows_sub[i]) for i in tied)
        assert got.counts == brute
        assert got.t_cycle_ms == t_min
        answered += 1
    assert answered >= 1
    assert bool(pruned) == prune
