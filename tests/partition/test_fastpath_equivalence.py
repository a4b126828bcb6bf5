"""The kernel contract: the array engine and the scalar estimator agree.

The preallocated :class:`ArrayCycleEstimator` must reproduce the scalar
reference :class:`CycleEstimator` decision-for-decision — same winning
counts and per-component values within 1e-9 ms — on the paper's seed
scenarios, on randomized heterogeneous networks, on the annotation corner
cases (``rounds`` callables, share-dependent message sizes, missing
database entries), and on wide-area pools too large for a crossing lookup
table.
"""

from itertools import product

import numpy as np
import pytest

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.errors import FittingError, PartitionError
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import (
    paper_testbed,
    wide_area_cost_database,
    wide_area_network,
)
from repro.model.computation import DataParallelComputation
from repro.model.phases import CommunicationPhase, ComputationPhase
from repro.model.workloads import (
    random_computation,
    random_cost_database,
    random_network,
)
from repro.partition import (
    CycleEstimator,
    ProcessorConfiguration,
    exhaustive_partition,
    gather_available_resources,
    order_by_power,
    prefix_scan_partition,
)
from repro.partition.arrayengine import (
    _PRUNE_SLACK,
    ArrayCycleEstimator,
    ArraySearchEngine,
    prefix_count_matrix,
)
from repro.partition.collapse import (
    CollapsePlan,
    EquivalenceClass,
    iter_canonical_blocks,
)
from repro.partition.heuristic import _scalar_exhaustive_partition
from repro.spmd.topology import Topology

TOL_MS = 1e-9


def full_count_matrix(ordered) -> np.ndarray:
    """Every per-cluster count combination with >= 1 processor, in
    :func:`itertools.product` order (the scalar oracle's enumeration)."""
    ranges = [range(0, r.n_available + 1) for r in ordered]
    combos = np.array(list(product(*ranges)), dtype=np.int64)
    return combos[combos.sum(axis=1) >= 1]


def score_rows(est: ArrayCycleEstimator, rows: np.ndarray) -> np.ndarray:
    """Stream ``rows`` through the kernels block by block; returns the
    ``(4, M)`` stack of ``t_comp``, ``t_comm``, ``t_overlap``, ``t_cycle``."""
    ws = est.workspace
    blocks = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, rows.shape[0], ws.max_rows):
            n = est.load_rows(rows[start : start + ws.max_rows])
            est.score_block(n)
            blocks.append(
                np.stack([ws.t_comp[:n], ws.t_comm[:n], ws.t_overlap[:n], ws.t_cycle[:n]])
            )
    return np.concatenate(blocks, axis=1)


def array_block_best(est: ArrayCycleEstimator, rows: np.ndarray):
    """``block_best`` over one block of ``rows``: ``(T_c, counts)``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        n = est.load_rows(rows)
        est.score_block(n)
    return est.block_best(n)


def assert_componentwise_match(comp, ordered, db, counts_matrix):
    """Kernel components equal the scalar estimate on every row, < 1e-9 ms."""
    est = ArrayCycleEstimator(comp, ordered, db)
    t_comp, t_comm, t_overlap, t_cycle = score_rows(est, counts_matrix)
    scalar = CycleEstimator(comp, db)
    for m in range(counts_matrix.shape[0]):
        cfg = ProcessorConfiguration(ordered, tuple(counts_matrix[m]))
        ref = scalar.estimate(cfg)
        assert abs(t_comp[m] - ref.t_comp_ms) < TOL_MS, cfg.describe()
        assert abs(t_comm[m] - ref.t_comm_ms) < TOL_MS, cfg.describe()
        assert abs(t_overlap[m] - ref.t_overlap_ms) < TOL_MS, cfg.describe()
        assert abs(t_cycle[m] - ref.t_cycle_ms) < TOL_MS, cfg.describe()
    return est, t_cycle


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("n", [60, 300, 600, 1200])
def test_seed_scenarios_componentwise(n, overlap):
    """Every paper (N, variant) cell: full combination space, all components."""
    res = gather_available_resources(paper_testbed())
    db = paper_cost_database()
    comp = stencil_computation(n, overlap=overlap)
    ordered = order_by_power(res)
    matrix = full_count_matrix(ordered)
    est, t_cycle = assert_componentwise_match(comp, ordered, db, matrix)
    # The winner is the scalar scan's winner (first-on-ties argmin, which in
    # product order is the lex-smallest tied row).
    scalar_best = min(range(len(t_cycle)), key=lambda m: (t_cycle[m], m))
    _t, counts = array_block_best(est, matrix)
    assert counts == tuple(int(c) for c in matrix[scalar_best])


@pytest.mark.parametrize("seed", range(25))
def test_randomized_networks_componentwise(seed):
    """Random 1-4 cluster networks and annotations: array == scalar."""
    rng = np.random.default_rng(7000 + seed)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    comp = random_computation(rng)
    ordered = order_by_power(gather_available_resources(net))
    matrix = full_count_matrix(ordered)
    if matrix.shape[0] > 4000:
        matrix = matrix[:: matrix.shape[0] // 2000]
        matrix = matrix[matrix.sum(axis=1) >= 1]
    assert_componentwise_match(comp, ordered, db, matrix)


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("sites", [17, 24, 40])
def test_wide_area_pools_past_the_lut_componentwise(sites, overlap):
    """Above 16 clusters no crossing lookup table is built and
    ``score_block`` takes the pairwise fallback — the path the 24-64-site
    wide-area decisions are scored on.  Seeded rows mix sparse and dense
    activation so single-cluster, crossing and full-pool rows all occur."""
    net = wide_area_network(sites, seed=7)
    db = wide_area_cost_database(net)
    comp = stencil_computation(6000, overlap=overlap)
    ordered = order_by_power(gather_available_resources(net))
    rng = np.random.default_rng(1000 * sites + overlap)
    limits = np.array([r.n_available for r in ordered], dtype=np.int64)
    density = rng.choice([0.05, 0.3, 1.0], size=(300, 1))
    active = rng.random((300, len(ordered))) < density
    rows = rng.integers(1, limits + 1, size=(300, len(ordered))) * active
    rows = rows[rows.sum(axis=1) >= 1]
    est, _ = assert_componentwise_match(comp, ordered, db, rows)
    assert not est.vectorized_fast_path


@pytest.mark.parametrize("seed", range(12))
def test_engine_decision_parity(seed):
    """Both oracles choose identical counts on the array engine and the
    scalar reference."""
    rng = np.random.default_rng(8000 + seed)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    comp = random_computation(rng)
    res = gather_available_resources(net)
    if sum(r.n_available for r in res) > 24:
        pytest.skip("keep the scalar exhaustive scan small")
    array = exhaustive_partition(comp, res, db)
    scalar = _scalar_exhaustive_partition(comp, res, db)
    assert array.counts_by_name() == scalar.counts_by_name()
    # Both winners are re-estimated by the scalar reference on one config.
    assert array.t_cycle_ms == scalar.t_cycle_ms
    scan = prefix_scan_partition(comp, res, db)
    ordered = list(scan.config.resources)
    est = ArrayCycleEstimator(comp, ordered, db)
    t_best, counts = array_block_best(est, prefix_count_matrix(est.limits))
    assert counts == tuple(scan.config.counts)
    assert abs(t_best - scan.t_cycle_ms) < TOL_MS


@pytest.mark.parametrize("seed", range(12))
def test_prune_is_exact(seed):
    """The branch-and-bound stream over the ordered (trivial) plan yields
    the full-space minimum."""
    rng = np.random.default_rng(9000 + seed)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    comp = random_computation(rng)
    ordered = order_by_power(gather_available_resources(net))
    est = ArrayCycleEstimator(comp, ordered, db)
    incumbent = float(np.min(score_rows(est, prefix_count_matrix(est.limits))[3]))
    keep_at = incumbent * (1.0 + _PRUNE_SLACK) + _PRUNE_SLACK
    pruned = []
    with np.errstate(invalid="ignore", divide="ignore"):
        plan = CollapsePlan.singletons(est.limits)
        for n in iter_canonical_blocks(est, plan, keep_at):
            pruned.append(est.score_block(n).copy())
    assert pruned
    t_full = float(np.min(score_rows(est, full_count_matrix(ordered))[3]))
    assert float(np.min(np.concatenate(pruned))) == t_full


def test_canonical_blocks_fit_a_small_workspace():
    """Every streamed block fits the workspace, even when one class has
    more canonical entries than a block holds: through a 4-row workspace
    the trivial plan still yields exactly the ordered space (lex order,
    empty row skipped) and a two-member class exactly its multisets."""
    _net, ordered = _two_cluster_env()
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    est = ArrayCycleEstimator(comp, ordered, db, max_rows=4)
    cases = (
        (CollapsePlan.singletons(est.limits), full_count_matrix(ordered)),
        (
            CollapsePlan((EquivalenceClass((0, 1), 3),), 2),
            np.array([(a, b) for a in range(4) for b in range(a, 4)][1:]),
        ),
    )
    for plan, want in cases:
        blocks = []
        for n in iter_canonical_blocks(est, plan, np.inf):
            assert 1 <= n <= 4
            blocks.append(est.block_rows(n))
        assert np.array_equal(np.concatenate(blocks), want)


def _allgather_computation(n: int) -> DataParallelComputation:
    """Ring all-gather: share-dependent message size + P-1 rounds per cycle."""

    def block_bytes(problem, shares):
        return 8.0 * max(shares)

    def ring_rounds(problem, total):
        return max(total - 1, 1)

    return DataParallelComputation(
        name="allgather",
        problem=n,
        num_pdus=n,
        computation_phases=[ComputationPhase("update", complexity=40.0 * n)],
        communication_phases=[
            CommunicationPhase(
                "gather",
                topology=Topology.RING,
                complexity=8.0 * n,
                per_config_complexity=block_bytes,
                rounds=ring_rounds,
            )
        ],
    )


def test_per_config_complexity_and_rounds_match():
    """The b(A_i) and rounds(P) callback paths agree with the scalar model."""
    rng = np.random.default_rng(123)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    ordered = order_by_power(gather_available_resources(net))
    comp = _allgather_computation(480)
    assert_componentwise_match(comp, ordered, db, full_count_matrix(ordered))


def test_per_config_complexity_and_rounds_match():
    """The b(A_i) and rounds(P) callback paths agree with the scalar model."""
    rng = np.random.default_rng(123)
    net = random_network(rng)
    db = random_cost_database(net, rng)
    ordered = order_by_power(gather_available_resources(net))
    comp = _allgather_computation(480)
    est, _ = assert_componentwise_match(comp, ordered, db, full_count_matrix(ordered))
    assert not est.vectorized_fast_path


def _two_cluster_env():
    net = paper_testbed()
    res = order_by_power(gather_available_resources(net))
    return net, res


def test_missing_router_raises_like_scalar():
    """No router entry: both paths raise FittingError, only when crossing."""
    _net, ordered = _two_cluster_env()
    db = CostDatabase()
    for name in ("sparc2", "ipc"):
        db.add_comm(CommCostFunction(name, "1-D", 0.5, 1.0, 0.0004, 0.001))
    comp = stencil_computation(300, overlap=False)
    scalar = CycleEstimator(comp, db)
    est = ArrayCycleEstimator(comp, ordered, db)
    # Single-cluster rows evaluate fine on both paths.
    single = np.array([[p, 0] for p in range(1, 7)])
    t_cycle = score_rows(est, single)[3]
    for m, p in enumerate(range(1, 7)):
        ref = scalar.t_cycle(ProcessorConfiguration(ordered, (p, 0)))
        assert abs(t_cycle[m] - ref) < TOL_MS
    # A crossing row needs the missing router entry on both paths.
    with pytest.raises(FittingError, match="router"):
        scalar.t_cycle(ProcessorConfiguration(ordered, (6, 2)))
    with pytest.raises(FittingError, match="router"):
        score_rows(est, np.array([[6, 2]]))


def test_missing_comm_function_raises_like_scalar():
    """No Eq 1 entry for an active cluster: FittingError on both paths."""
    _net, ordered = _two_cluster_env()
    db = CostDatabase()
    db.add_comm(CommCostFunction("sparc2", "1-D", 0.5, 1.0, 0.0004, 0.001))
    db.add_router(LinearByteCost("sparc2", "ipc", "router", 0.2, 0.0008))
    comp = stencil_computation(300, overlap=False)
    scalar = CycleEstimator(comp, db)
    est = ArrayCycleEstimator(comp, ordered, db)
    # Rows that never activate the unfitted cluster still evaluate.
    ok = score_rows(est, np.array([[3, 0], [6, 0]]))
    assert np.all(np.isfinite(ok[3]))
    with pytest.raises(FittingError, match="no fitted cost function"):
        scalar.t_cycle(ProcessorConfiguration(ordered, (3, 3)))
    with pytest.raises(FittingError, match="no fitted cost function"):
        score_rows(est, np.array([[3, 3]]))


def test_count_matrix_validation():
    """Blocks must fit the workspace, limits the lowered availability."""
    _net, ordered = _two_cluster_env()
    db = paper_cost_database()
    comp = stencil_computation(300, overlap=False)
    est = ArrayCycleEstimator(comp, ordered, db, max_rows=4)
    with pytest.raises(PartitionError, match="capacity"):
        est.load_rows(np.ones((5, 2), dtype=np.int64))
    with pytest.raises(PartitionError, match="capacity"):
        est.score_block(0)
    with pytest.raises(PartitionError, match="capacity"):
        est.score_block(5)
    engine = ArraySearchEngine(comp, ordered, db)
    with pytest.raises(PartitionError, match="availability"):
        engine.decide_counts(np.array([7, 0]))
    with pytest.raises(PartitionError, match="availability"):
        engine.decide_counts(np.array([-1, 2]))
    with pytest.raises(PartitionError, match="no clusters"):
        ArrayCycleEstimator(comp, [], db)
    # A block that fits is scored and argmin'd like any other.
    assert array_block_best(est, np.array([[6, 2]]))[1] == (6, 2)
