"""Array/scalar decision parity on exact ties, and search-trace hygiene.

Two argmins answer the same question — the scalar ``_best_of`` scan and
the array engine's per-block ``ArrayCycleEstimator.block_best`` — and
historically engines broke exact-cost ties by *enumeration order*, which
differs between the scalar product loop, the prefix scan, and the pruned
candidate stream.  Both prefer the lexicographically-smallest counts
tuple, so the oracles return byte-identical decisions however the
candidates were enumerated.

The trace tests pin the memoized binary search's bookkeeping: revisited
count tuples must not append duplicate trace rows, and ``evaluations``
must equal the number of unique configurations actually probed.
"""

import numpy as np
import pytest

from repro.apps.stencil import stencil_computation
from repro.experiments.paper import paper_cost_database
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.presets import paper_testbed
from repro.hardware.processor import ProcessorSpec
from repro.model.workloads import random_cost_database
from repro.partition import exhaustive_partition, gather_available_resources, partition
from repro.partition.config import ProcessorConfiguration
from repro.partition.arrayengine import ArrayCycleEstimator, ArraySearchEngine, _stream_search
from repro.partition.collapse import CollapsePlan
from repro.partition.estimator import CycleEstimator
from repro.partition.heuristic import (
    _best_of,
    _scalar_exhaustive_partition,
    order_by_power,
)
from repro.server.protocol import restrict_pool
from repro.server.service import resolve_pool
from tests.partition.test_fastpath_equivalence import full_count_matrix, score_rows


def twin_cluster_case(n=60):
    """Two byte-identical clusters: every off-diagonal cost is exactly tied."""
    net = HeterogeneousNetwork(seed=0)
    spec = ProcessorSpec(
        name="twin", fp_usec_per_op=0.5, int_usec_per_op=0.1, comm_speed_factor=1.0
    )
    net.add_cluster("a", spec, count=3)
    net.add_cluster("b", spec, count=3)
    net.validate()
    db = random_cost_database(net, np.random.default_rng(42))
    comp = stencil_computation(n, overlap=False, cycles=1)
    return comp, gather_available_resources(net), db


def test_twin_network_has_an_exact_tie_at_the_minimum():
    """The construction really produces a tied minimum (else the parity
    tests below would pass vacuously)."""
    comp, res, db = twin_cluster_case()
    ordered = order_by_power(res)
    matrix = full_count_matrix(ordered)
    t = score_rows(ArrayCycleEstimator(comp, ordered, db), matrix)[3]
    tied = matrix[t == t.min()]
    assert len(tied) >= 2
    # The tied rows are mirror images of each other across the two clusters.
    assert sorted(map(tuple, tied.tolist())) == sorted(
        tuple(reversed(row)) for row in tied.tolist()
    )


def test_array_and_scalar_exhaustive_identical_on_exact_tie():
    comp, res, db = twin_cluster_case()
    scalar = _scalar_exhaustive_partition(comp, res, db)
    array = exhaustive_partition(comp, res, db)
    ordered = order_by_power(res)
    unpruned = ArraySearchEngine(comp, ordered, db).search()
    assert unpruned.method == "array-scan"
    assert scalar.counts_by_name() == array.counts_by_name()
    assert scalar.config.counts == array.config.counts == unpruned.counts
    # The size cutoff never prunes a space this small at the default block
    # size; a two-row workspace puts it past the cutoff.
    est = ArrayCycleEstimator(comp, ordered, db, max_rows=2)
    forced = _stream_search(est, CollapsePlan.singletons(est.limits), est.limits, metrics=None)
    assert forced.method == "array-pruned"
    assert forced.counts == scalar.config.counts
    # And the common choice is the lexicographically-smallest tied tuple.
    matrix = full_count_matrix(ordered)
    t = score_rows(ArrayCycleEstimator(comp, ordered, db), matrix)[3]
    lex_smallest = min(map(tuple, matrix[t == t.min()].tolist()))
    assert scalar.config.counts == lex_smallest


@pytest.mark.xfail(
    strict=True,
    reason="the kernels' Eq 4 and overlap arithmetic break the scalar "
    "reference's plateau ties differently on the overlapped stencil",
)
def test_exact_engine_matches_the_scalar_oracle_on_a_sten2_shrink():
    """Serve-mix's STEN-2 workload (the overlapped stencil) on a shrink of
    ``synthetic:32,32,32``: the exact engine returns (2, 12, 1) at
    68.32600000000002 ms, while the scalar product loop finds (2, 12, 0)
    one ulp lower, 68.32600000000001 ms, in its own arithmetic.  The
    first counterexample to the differential parity property; strict, so
    it fails once the engine agrees."""
    net, db = resolve_pool("synthetic:32,32,32")
    pool = restrict_pool(gather_available_resources(net), {"c0": 2, "c1": 12, "c2": 1})
    comp = stencil_computation(600, overlap=True)
    engine = exhaustive_partition(comp, pool, db)
    scalar = _scalar_exhaustive_partition(comp, pool, db)
    assert engine.counts_by_name() == scalar.counts_by_name()
    assert engine.t_cycle_ms == scalar.t_cycle_ms


def test_block_best_tie_breaks_lex_regardless_of_row_order():
    """Direct unit test of the array engine's per-block rule: reversing
    the candidate order must not change the winner."""
    comp, res, db = twin_cluster_case()
    est = ArrayCycleEstimator(comp, order_by_power(res), db)
    counts = np.array([[1, 0], [0, 1], [2, 2]])
    t = np.array([5.0, 5.0, 9.0])
    for order in ([0, 1, 2], [2, 1, 0]):
        n = est.load_rows(counts[order])
        est.workspace.t_cycle[:n] = t[order]
        assert est.block_best(n) == (5.0, (0, 1))


def test_scalar_best_of_tie_breaks_lex_regardless_of_config_order():
    comp, res, db = twin_cluster_case()
    ordered = order_by_power(res)
    lex_first = ProcessorConfiguration(ordered, (0, 1))
    lex_last = ProcessorConfiguration(ordered, (1, 0))
    for configs in ([lex_first, lex_last], [lex_last, lex_first]):
        estimator = CycleEstimator(comp, db)
        decision = _best_of(estimator, configs, "test")
        assert decision.config.counts == (0, 1)


@pytest.mark.parametrize("search", ["binary", "scan"])
def test_partition_trace_is_deduplicated(search):
    """The memoized search revisits neighbouring counts; the trace must
    record each configuration once and agree with the evaluation counter."""
    comp = stencil_computation(300, overlap=False, cycles=1)
    res = gather_available_resources(paper_testbed())
    decision = partition(comp, res, paper_cost_database(), search=search)
    described = [cfg for cfg, _ in decision.trace]
    assert len(described) == len(set(described))
    assert decision.evaluations == len(decision.trace)


def test_partition_trace_dedup_on_single_point_interval():
    """A one-node first cluster makes the search interval a single point, so
    the chosen counts are never probed by the argmin — the final config must
    still land in the trace exactly once."""
    net = HeterogeneousNetwork(seed=0)
    fast = ProcessorSpec(
        name="solo", fp_usec_per_op=0.2, int_usec_per_op=0.05, comm_speed_factor=1.0
    )
    slow = ProcessorSpec(
        name="herd", fp_usec_per_op=2.0, int_usec_per_op=0.5, comm_speed_factor=1.0
    )
    net.add_cluster("solo", fast, count=1)
    net.add_cluster("herd", slow, count=4)
    net.validate()
    db = random_cost_database(net, np.random.default_rng(7))
    comp = stencil_computation(120, overlap=False, cycles=1)
    decision = partition(comp, gather_available_resources(net), db)
    described = [cfg for cfg, _ in decision.trace]
    assert len(described) == len(set(described))
    assert decision.evaluations == len(decision.trace)
    assert decision.config.describe() in described
