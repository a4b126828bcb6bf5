"""Array/scalar decision parity on exact ties, and search-trace hygiene.

Three argmins answer the same question — the scalar ``_best_of`` scan,
the array engine's per-block ``ArrayCycleEstimator.block_best``, and the
incremental ``FrontierState.shrink_best`` — and historically engines broke
exact-cost ties by *enumeration order*, which differs between the scalar
product loop, the prefix scan, and the pruned candidate stream.  All of
them prefer the lexicographically-smallest counts tuple, so the oracles
return byte-identical decisions however the candidates were enumerated.

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
from repro.partition.arrayengine import (
    ArrayCycleEstimator,
    ArraySearchEngine,
    FrontierState,
)
from repro.partition.estimator import CycleEstimator
from repro.partition.heuristic import (
    _best_of,
    _scalar_exhaustive_partition,
    order_by_power,
)
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
    unpruned = ArraySearchEngine(comp, ordered, db).search(prune=False)
    assert scalar.counts_by_name() == array.counts_by_name()
    assert scalar.config.counts == array.config.counts == unpruned.counts
    # The size cutoff never prunes a space this small; force the prune too.
    forced = ArraySearchEngine(comp, ordered, db).search(prune=True)
    assert forced.counts == scalar.config.counts
    # And the common choice is the lexicographically-smallest tied tuple.
    matrix = full_count_matrix(ordered)
    t = score_rows(ArrayCycleEstimator(comp, ordered, db), matrix)[3]
    lex_smallest = min(map(tuple, matrix[t == t.min()].tolist()))
    assert scalar.config.counts == lex_smallest


def test_block_best_tie_breaks_lex_regardless_of_row_order():
    """Direct unit test of the array engine's rule, per block and over a
    frontier: reversing the candidate order must not change the winner."""
    comp, res, db = twin_cluster_case()
    est = ArrayCycleEstimator(comp, order_by_power(res), db)
    counts = np.array([[1, 0], [0, 1], [2, 2]])
    t = np.array([5.0, 5.0, 9.0])
    for order in ([0, 1, 2], [2, 1, 0]):
        n = est.load_rows(counts[order])
        est.workspace.t_cycle[:n] = t[order]
        assert est.block_best(n) == (5.0, (0, 1))
        frontier = FrontierState(
            limits=(2, 2), rows=counts[order], t_cycle=t[order], keep_at=np.inf
        )
        assert frontier.shrink_best(np.array([2, 2])) == ((0, 1), 5.0)


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
