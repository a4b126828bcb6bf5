"""The scalar probe paths against the per-probe arithmetic they replaced.

:class:`~repro.partition.estimator.CycleEstimator` reads each node's rate
once per estimator and composes Eq 2 through one
:class:`~repro.benchmarking.database.TopologyComposition` per phase, which
prices a uniform backbone's crossing in one step.  The heuristic's probes
go through a :class:`~repro.partition.estimator.ProbeLine`, which folds
each saturated cluster's Eq 1 term once along the prefix line and builds
no configuration per probe.  The oracle below is what every probe
used to redo: the configuration's rate list, :func:`balanced_shares` and
the composition over every active cluster and every active pair.  Each
estimate must equal it bit for bit, ``(t_comp_ms, t_comm_ms,
t_overlap_ms) ==``, or raise the same error type and message, on a cold
estimator, along warm sequences through one estimator and along a line.
A digest of heuristic decisions, recorded with the per-probe arithmetic,
pins the whole search end to end, and call-count tripwires keep the line
from drifting back to per-probe work.
"""

import hashlib
import math
import random
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sor import sor_computation
from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase, TopologyComposition
from repro.errors import PartitionError
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import (
    mixed_format_network,
    paper_testbed,
    wide_area_cost_database,
    wide_area_network,
)
from repro.model.computation import DataParallelComputation
from repro.model.phases import CommunicationPhase, ComputationPhase
from repro.partition import heuristic
from repro.partition.available import gather_available_resources
from repro.partition.config import ProcessorConfiguration
from repro.partition.decompose import balanced_partition_vector, balanced_shares
from repro.partition.engine import DecisionEngine
from repro.partition.estimator import CycleEstimator, ProbeLine
from repro.partition.heuristic import order_by_power, partition, prefix_scan_partition
from repro.partition.perfbench import synthetic_network
from repro.partition.warmstart import SearchCache
from repro.spmd.topology import Topology
from repro.units import ops_time_ms

from tests.partition.test_cold_path_oracles import _RatedResources

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


# -- the oracle: one probe's arithmetic, redone from scratch -------------------------


def oracle_topology_cost(db, topology, b, processors_per_cluster):
    """Eq 2 by the loop over every active cluster and every active pair."""
    active = {c: p for c, p in processors_per_cluster.items() if p > 0}
    if not active:
        return 0.0
    topo = Topology(topology) if not isinstance(topology, Topology) else topology
    total = sum(active.values())
    if total <= 1:
        return 0.0
    names = list(active)
    if topo.bandwidth_limited:
        cost = max([db.comm_cost(c, topo, b, total) for c in names])
    else:
        extra = 1 if (len(active) > 1 and db.router_extra_station) else 0
        per_cluster = []
        for c, p in active.items():
            p_eff = p + extra
            if len(active) > 1:
                p_eff = max(p_eff, 2)
            per_cluster.append(db.comm_cost(c, topo, b, p_eff))
        cost = max(per_cluster)
    if len(active) > 1:
        crossing = 0.0
        for i, a in enumerate(names):
            for c in names[i + 1 :]:
                crossing = max(crossing, db.router_cost(a, c, b) + db.coerce_cost(a, c, b))
        cost += crossing
    return cost


def oracle_estimate(computation, db, config, *, all_phases=False):
    """``(t_comp_ms, t_comm_ms, t_overlap_ms)`` from the configuration's rate
    list and the pairwise composition."""
    problem = computation.problem
    comp_phase = computation.dominant_computation_phase()
    comm_phase = computation.dominant_communication_phase()
    kind, num_pdus = comp_phase.op_kind, computation.num_pdus_value()
    if config.total < 1:
        raise PartitionError("cannot estimate an empty configuration")
    rates = config.per_processor_rates(kind)
    shares = balanced_shares(rates, num_pdus)
    t_comp = ops_time_ms(comp_phase.complexity_value(problem) * shares[0], rates[0])

    def phase_cost(phase):
        if phase.per_config_complexity is not None:
            b = phase.complexity_for_shares(
                problem, balanced_shares(config.per_processor_rates(kind), num_pdus)
            )
        else:
            b = phase.complexity_value(problem)
        rounds = phase.rounds_value(problem, config.total)
        return rounds * oracle_topology_cost(db, phase.topology, b, config.counts_by_name())

    t_comm = overlappable = 0.0
    if comm_phase is not None and config.total > 1:
        if not all_phases:
            t_comm = phase_cost(comm_phase)
            overlappable = t_comm if computation.overlapped_with_dominant() else 0.0
        else:
            for phase in computation.communication_phases:
                cost = phase_cost(phase)
                t_comm += cost
                if phase.overlap is not None:
                    overlappable += cost
    return t_comp, t_comm, min(t_comp, overlappable)


def _outcome(fn):
    """A call's value, or its error's type and message."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return (type(exc), str(exc))


def _estimate(estimator, config):
    est = estimator.estimate(config)
    return est.t_comp_ms, est.t_comm_ms, est.t_overlap_ms


# -- generated pools, databases and workloads --------------------------------------

#: Eq 1 constants cycled over clusters, so equal terms (and max ties) recur.
_EQ1 = ((1.0, 1.1, 0.0005, 0.0010), (1.5, 1.8, 0.0008, 0.0019), (0.8, 0.9, 0.0004, 0.0008))
#: Router intercepts from a short list, so equal crossings recur.
_INTERCEPTS = (0.5, 0.9, 2.5)


def _problem(n):
    return type("Problem", (), {"n": n})()


def _broadcast(n):
    """A bandwidth-limited phase: cost at the total processor count."""
    return DataParallelComputation(
        name="BCAST",
        problem=_problem(n),
        num_pdus=lambda p: p.n,
        computation_phases=[ComputationPhase("update", complexity=lambda p: 5.0 * p.n)],
        communication_phases=[
            CommunicationPhase("bcast", Topology.BROADCAST, complexity=lambda p: 8.0 * p.n)
        ],
    )


def _collective(n):
    """Share-dependent ``b``, callable rounds and an overlapped broadcast."""
    return DataParallelComputation(
        name="COLL",
        problem=_problem(n),
        num_pdus=lambda p: p.n,
        computation_phases=[ComputationPhase("matvec", complexity=lambda p: 2.0 * p.n)],
        communication_phases=[
            CommunicationPhase(
                "allgather",
                Topology.RING,
                complexity=lambda p: 8.0 * p.n,
                per_config_complexity=lambda p, shares: 8.0 * max(shares),
                rounds=lambda p, total: max(total - 1, 1),
            ),
            CommunicationPhase(
                "norm", Topology.BROADCAST, complexity=16.0, rounds=2, overlap="matvec"
            ),
        ],
    )


def _two_phase(n):
    """Two fixed-size phases on different topologies, each with its own
    composition under ``all_phases``."""
    return DataParallelComputation(
        name="TWO",
        problem=_problem(n),
        num_pdus=lambda p: p.n,
        computation_phases=[ComputationPhase("update", complexity=lambda p: 5.0 * p.n)],
        communication_phases=[
            CommunicationPhase("halo", Topology.ONE_D, complexity=lambda p: 8.0 * p.n),
            CommunicationPhase("reduce", Topology.BROADCAST, complexity=64.0, rounds=2),
        ],
    )


WORKLOADS = {
    "sten1-600": lambda: stencil_computation(600, overlap=False),
    "sten1-6000": lambda: stencil_computation(6000, overlap=False),
    "sten1-60000": lambda: stencil_computation(60000, overlap=False),
    "sten2-600": lambda: stencil_computation(600, overlap=True),
    "sor": lambda: sor_computation(600),
    "broadcast": lambda: _broadcast(1200),
    "collective": lambda: _collective(2400),
    "two-phase": lambda: _two_phase(1200),
}


def _database(names, *, crossing, extra_station, quirk, missing, coerced):
    """Eq 1 for every topology the workloads use, plus one crossing table:

    ``pairs`` — a router entry per pair but ``missing`` of them, ``default``
    — only a uniform backbone, ``none`` — no router at all; and coercion
    entries on the first ``coerced`` pairs."""
    db = CostDatabase(router_extra_station=extra_station)
    for i, name in enumerate(names):
        c1, c2, c3, c4 = _EQ1[i % len(_EQ1)]
        if quirk and i == 0:
            # A negative per-byte slope at small p: the paper's abs() quirk.
            c3 = -0.004
        for topo in ("1-D", "ring", "broadcast"):
            db.add_comm(
                CommCostFunction(name, topo, c1, c2, c3, c4, abs_bandwidth_quirk=quirk)
            )
    pairs = [(a, c) for i, a in enumerate(names) for c in names[i + 1 :]]
    if crossing == "pairs":
        dropped = sorted({len(pairs) // 2, len(pairs) // 3, len(pairs) - 1})[:missing]
        for k, (a, c) in enumerate(pairs):
            if k not in dropped:
                db.add_router(LinearByteCost(a, c, "router", _INTERCEPTS[k % 3], 0.0009))
    elif crossing == "default":
        db.set_router_default(LinearByteCost("*", "*", "router", 2.5, 0.0012))
    for k, (a, c) in enumerate(pairs[:coerced]):
        db.add_coerce(LinearByteCost(c, a, "coerce", 0.1 * (k % 2), 0.0004))
    return db


@st.composite
def cases(draw):
    """``(computation, database, ordered pool, all_phases)``."""
    source = draw(st.sampled_from(("wide", "synthetic", "paper", "mixed")))
    if source == "wide":
        net = wide_area_network(draw(st.integers(1, 64)), seed=draw(st.integers(0, 9)))
    elif source == "synthetic":
        net = synthetic_network(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)))
    elif source == "paper":
        net = paper_testbed()
    else:
        net = mixed_format_network()
    load_adjusted = draw(st.booleans())
    if load_adjusted:
        procs = [p for cluster in net.clusters for p in cluster.processors]
        for proc in draw(st.lists(st.sampled_from(procs), max_size=8)):
            proc.set_load(draw(st.sampled_from((0.1, 0.3, 0.6, 0.9))))
    names = [c.name for c in net.clusters]
    if source == "paper" and draw(st.booleans()):
        db = paper_cost_database()  # the published constants, quirk, no extra station
        workload = draw(st.sampled_from(("sten1-600", "sten1-6000", "sten2-600", "sor")))
    elif source == "wide" and draw(st.booleans()):
        db = wide_area_cost_database(net)  # one backbone router for every pair
        workload = draw(st.sampled_from(("sten1-600", "sten1-6000", "sten1-60000", "sor")))
    else:
        db = _database(
            names,
            crossing=draw(st.sampled_from(("pairs", "pairs", "default", "none"))),
            extra_station=draw(st.booleans()),
            quirk=draw(st.booleans()),
            missing=draw(st.integers(0, 3)),
            coerced=draw(st.integers(0, 3)),
        )
        workload = draw(st.sampled_from(sorted(WORKLOADS)))
    ordered = tuple(order_by_power(gather_available_resources(net, load_adjusted=load_adjusted)))
    return WORKLOADS[workload](), db, ordered, draw(st.booleans())


def _counts(ordered):
    return st.tuples(*(st.integers(0, r.n_available) for r in ordered))


def _line(ordered):
    """The heuristic's probe line: full clusters, then one partial count."""
    line = []
    for k, res in enumerate(ordered):
        full = tuple(r.n_available for r in ordered[:k])
        line += [full + (p,) + (0,) * (len(ordered) - k - 1) for p in range(res.n_available + 1)]
    return line


def _check(computation, db, all_phases, estimator, config):
    got = _outcome(lambda: _estimate(estimator, config))
    want = _outcome(lambda: oracle_estimate(computation, db, config, all_phases=all_phases))
    assert got == want, config.counts
    if not isinstance(got[0], type):
        kind = computation.dominant_computation_phase().op_kind
        rates = config.per_processor_rates(kind)
        vector = balanced_partition_vector(rates, computation.num_pdus_value())
        assert estimator.partition_vector(config) == vector


# -- the properties --------------------------------------------------------------------


@_PROPERTY
@given(case=cases(), data=st.data())
def test_cold_probe_equals_the_per_probe_arithmetic(case, data):
    computation, db, ordered, all_phases = case
    config = ProcessorConfiguration(ordered, data.draw(_counts(ordered)))
    estimator = CycleEstimator(computation, db, all_phases=all_phases)
    _check(computation, db, all_phases, estimator, config)


@_PROPERTY
@given(case=cases(), seed=st.integers(0, 2**16))
def test_warm_line_equals_the_per_probe_arithmetic(case, seed):
    """Probes along the heuristic's line through one estimator (up to 40 of
    them, in line order), each against a fresh oracle."""
    computation, db, ordered, all_phases = case
    line = _line(ordered)
    picks = sorted(random.Random(seed).sample(range(len(line)), min(40, len(line))))
    estimator = CycleEstimator(computation, db, all_phases=all_phases)
    for i in picks:
        _check(computation, db, all_phases, estimator, ProcessorConfiguration(ordered, line[i]))


@_PROPERTY
@given(case=cases(), data=st.data())
def test_shuffled_probes_equal_the_per_probe_arithmetic(case, data):
    """Arbitrary configurations in any order, line ones among them, through
    one estimator: rates read for one probe are reused out of order."""
    computation, db, ordered, all_phases = case
    line = _line(ordered)
    drawn = data.draw(st.lists(_counts(ordered), min_size=1, max_size=20))
    drawn += data.draw(st.lists(st.sampled_from(line), max_size=10))
    order = data.draw(st.permutations(drawn))
    estimator = CycleEstimator(computation, db, all_phases=all_phases)
    for counts in order:
        _check(computation, db, all_phases, estimator, ProcessorConfiguration(ordered, counts))


def _line_positions(ordered):
    """Every ``(k, p)`` probe position of the pool's line, in line order."""
    return [(k, p) for k, res in enumerate(ordered) for p in range(res.n_available + 1)]


def _check_line_probe(computation, db, all_phases, line, memo, k, p):
    """One line probe against the oracle on its configuration: the stored
    estimate's components, the returned ``T_c``, a fresh row's text, or
    the error."""
    config = line.configuration(k, p)
    rows = len(line.trace)
    got = _outcome(lambda: line.along(k)(p))
    want = _outcome(lambda: oracle_estimate(computation, db, config, all_phases=all_phases))
    if isinstance(want[0], type):
        assert got == want, (k, p)
        return
    est = memo[config.counts]
    assert (est.t_comp_ms, est.t_comm_ms, est.t_overlap_ms) == want, (k, p)
    assert got == est.t_cycle_ms
    if len(line.trace) > rows:
        assert line.trace[rows:] == [(config.describe(), got)]


@_PROPERTY
@given(case=cases(), seed=st.integers(0, 2**16))
def test_line_probes_equal_the_per_probe_arithmetic(case, seed):
    """Up to 40 probes along one line in line order, then 10 more drawn
    out of order (repeats included), each against a fresh oracle."""
    computation, db, ordered, all_phases = case
    memo = {}
    line = ProbeLine(CycleEstimator(computation, db, all_phases=all_phases, memo=memo), ordered)
    positions = _line_positions(ordered)
    rng = random.Random(seed)
    picks = sorted(rng.sample(positions, min(40, len(positions))))
    picks += [rng.choice(positions) for _ in range(10)]
    for k, p in picks:
        _check_line_probe(computation, db, all_phases, line, memo, k, p)


#: Node rates no Eq 4 accepts.
_BAD_RATES = (0.0, -1.0, math.nan)


def _rated(res, rates):
    return _RatedResources(cluster=res.cluster, available=res.available, rates=rates)


def _error_cases():
    """``(name, estimator factory, ordered pool)`` whose line probes raise:
    a missing Eq 1 function, a missing router pair, a first and a last
    rate of the first cluster at 0.0, -1.0 and NaN, a negative
    share-dependent message size, and a negative constant one (which the
    annotation rejects before any probe, so it is put in the estimator's
    composition directly)."""
    net = wide_area_network(5, seed=2)
    ordered = tuple(order_by_power(gather_available_resources(net)))
    names = [res.name for res in ordered]
    sten1 = WORKLOADS["sten1-6000"]()
    pairs = dict(crossing="pairs", extra_station=True, quirk=False)
    no_eq1 = _database(names, **pairs, missing=0, coerced=0)
    del no_eq1.comm[(names[2], "1-D")]
    no_pair = _database(names, **pairs, missing=2, coerced=1)
    backbone = wide_area_cost_database(net)
    yield "missing eq1", lambda: CycleEstimator(sten1, no_eq1), ordered
    yield "missing router pair", lambda: CycleEstimator(sten1, no_pair), ordered
    rest = (0.5,) * (ordered[0].n_available - 1)
    for rate in _BAD_RATES:
        for where, rates in (("first", (rate,) + rest), ("last", rest + (rate,))):
            pool = (_rated(ordered[0], rates),) + ordered[1:]
            yield f"{where} rate {rate}", lambda: CycleEstimator(sten1, backbone), pool
    coll = _collective(2400)
    allgather = replace(coll.communication_phases[0], per_config_complexity=lambda p, a: -1.0)
    coll = replace(coll, communication_phases=[allgather, coll.communication_phases[1]])
    yield "negative share-dependent b", lambda: CycleEstimator(coll, backbone), ordered

    def negative_b():
        estimator = CycleEstimator(sten1, backbone)
        halo = estimator.comm_phase
        estimator._eq2[halo.name] = TopologyComposition(backbone, halo.topology, -8.0)
        return estimator

    yield "negative b", negative_b, ordered


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_line_errors_match_the_estimator():
    """Every probe of each error case's line raises, or not, as a cold
    estimator does on its configuration, with the same type and message;
    and each case raises somewhere.  A rate that is not > 0 raises
    :class:`PartitionError` naming the configuration's rates, as
    :func:`balanced_shares` does, whenever the configuration holds it."""
    for name, make, ordered in _error_cases():
        line = ProbeLine(make(), ordered)
        raised = 0
        for k, p in _line_positions(ordered):
            config = line.configuration(k, p)
            want = _outcome(lambda: make().estimate(config).t_cycle_ms)
            assert _outcome(lambda: line.along(k)(p)) == want, (name, k, p)
            raised += isinstance(want, tuple)
            if "rate" in name and config.total:
                rates = config.per_processor_rates()
                if all(rate > 0 for rate in rates):
                    assert not isinstance(want, tuple), (name, k, p)
                else:
                    text = f"instruction rates must be positive: {rates}"
                    assert want == (PartitionError, text), (name, k, p)
                    assert _outcome(lambda: balanced_shares(rates, 600)) == want
        assert raised, name


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("rate", _BAD_RATES)
def test_a_bad_rate_is_a_partition_error_on_every_heuristic_path(rate):
    """``partition`` (binary, scan, warm) and ``DecisionEngine.decide``
    reject a pool whose first node's rate is not > 0 with the typed error,
    naming the rates of the first configuration they probe."""
    net = wide_area_network(5, seed=2)
    ordered = order_by_power(gather_available_resources(net))
    first = ordered[0]
    ordered[0] = _rated(first, (rate,) + (0.5,) * (first.n_available - 1))
    db = wide_area_cost_database(net)
    computation = WORKLOADS["sten1-6000"]()
    warm = {res.name: res.n_available for res in ordered}
    for decide in (
        lambda: partition(computation, ordered, db),
        lambda: partition(computation, ordered, db, search="scan"),
        lambda: partition(computation, ordered, db, warm_start=warm),
        lambda: DecisionEngine(computation, db, cache=SearchCache()).decide(ordered),
    ):
        with pytest.raises(PartitionError) as got:
            decide()
        text = rf"instruction rates must be positive: \[{re.escape(str(rate))}(, 0\.5)*\]"
        assert re.fullmatch(text, str(got.value))


def test_a_range_error_names_the_cluster_like_the_configuration():
    net = wide_area_network(3, seed=1)
    ordered = tuple(order_by_power(gather_available_resources(net)))
    estimator = CycleEstimator(WORKLOADS["sten1-600"](), wide_area_cost_database(net))
    line = ProbeLine(estimator, ordered)
    size = ordered[1].n_available
    for p in (-1, size + 1):
        with pytest.raises(PartitionError) as got:
            line.along(1)(p)
        counts = [ordered[0].n_available, p, 0]
        with pytest.raises(PartitionError) as want:
            ProcessorConfiguration(ordered, counts)
        assert str(got.value) == str(want.value)


def test_a_rate_read_that_raises_leaves_the_line_in_step():
    """A probe into a cluster whose rate read raises has read the clusters
    before it; the line keeps no rate whose speed it has not stored, so a
    later probe of the earlier prefix equals a cold estimator."""
    net = wide_area_network(3, seed=1)
    ordered = tuple(order_by_power(gather_available_resources(net)))
    second = ordered[1]
    unreadable = _RatedResources(cluster=second.cluster, available=second.available, rates=())
    pool = (ordered[0], unreadable, ordered[2])
    computation = WORKLOADS["sten1-6000"]()
    db = wide_area_cost_database(net)
    line = ProbeLine(CycleEstimator(computation, db), pool)
    with pytest.raises(IndexError):
        line.along(1)(1)
    size = ordered[0].n_available
    want = CycleEstimator(computation, db).t_cycle(line.configuration(0, size))
    assert line.along(0)(size) == want


def test_configurations_of_two_pools_through_one_estimator():
    """Configurations of two pools, alternately through one estimator's
    component methods (``estimate`` memoizes by counts, so it serves one
    pool): the rates and names read for one pool never price the other,
    and under ``all_phases`` each phase keeps its own composition."""
    nets = [wide_area_network(6, seed=seed) for seed in (4, 5)]
    pools = [tuple(order_by_power(gather_available_resources(net))) for net in nets]
    names = list(dict.fromkeys(c.name for net in nets for c in net.clusters))
    db = _database(names, crossing="pairs", extra_station=True, quirk=False, missing=0, coerced=2)
    for computation, all_phases in ((WORKLOADS["sten1-6000"](), False), (_two_phase(1200), True)):
        estimator = CycleEstimator(computation, db, all_phases=all_phases)
        kind, num_pdus = estimator.op_kind, estimator.num_pdus
        for step in range(1, 9):
            for pool in pools:
                counts = [min(r.n_available, (step + k) % 4) for k, r in enumerate(pool)]
                config = ProcessorConfiguration(pool, counts)
                want = oracle_estimate(computation, db, config, all_phases=all_phases)
                assert (estimator.t_comp(config), estimator.t_comm(config)) == want[:2]
                vector = balanced_partition_vector(config.per_processor_rates(kind), num_pdus)
                assert estimator.partition_vector(config) == vector


def test_topology_cost_equals_the_pairwise_composition():
    """The database entry point, on per-pair router and coercion entries."""
    net = mixed_format_network()
    names = [c.name for c in net.clusters] + ["extra"]
    db = _database(names, crossing="pairs", extra_station=True, quirk=True, missing=0, coerced=2)
    for b in (0.0, 64.0, 4800.0):
        for counts in ((0, 0, 0), (1, 0, 0), (3, 1, 0), (1, 1, 1), (6, 6, 2)):
            mapping = dict(zip(names, counts))
            for topology in ("1-D", Topology.BROADCAST):
                want = oracle_topology_cost(db, topology, b, mapping)
                assert db.topology_cost(topology, b, mapping) == want


# -- more active clusters than stack frames ------------------------------------------------


def test_more_active_clusters_than_recursion_frames():
    """Every site of an 1100-site pool active: a walk over the active
    clusters that recursed once per cluster would overflow the
    interpreter's stack."""
    net = wide_area_network(1100, seed=3)
    db = wide_area_cost_database(net)
    names = [c.name for c in net.clusters]
    # One coercion entry: the crossing walks every pair instead of taking
    # the uniform-backbone shortcut.
    db.add_coerce(LinearByteCost(names[5], names[700], "coerce", 0.5, 0.0002))
    ordered = tuple(order_by_power(gather_available_resources(net)))
    config = ProcessorConfiguration(ordered, [r.n_available for r in ordered])
    assert len(ordered) > sys.getrecursionlimit()
    computation = stencil_computation(6000, overlap=False)
    estimator = CycleEstimator(computation, db)
    assert _estimate(estimator, config) == oracle_estimate(computation, db, config)


# -- heuristic decisions pinned across the rewrite ---------------------------------------

#: ``(sites, seed, load adjusted)`` wide-area pools, every workload below on each.
GRID_POOLS = [
    (k, s, load) for k in (1, 2, 3, 5, 8, 13, 16, 24) for s in (7, 8) for load in (False, True)
]
GRID_WORKLOADS = ("sten1-600", "sten1-6000", "sten1-60000", "sten2-600", "sor")

#: sha256 prefix of the grid's ``repr((counts, t_cycle_ms, evaluations, trace,
#: vector, t_elapsed_ms))`` stream, recorded with the per-probe rate list and
#: pairwise composition, and re-recorded once the warm seed stopped accepting
#: a count of 0 (three warm STEN-2 N=600 ties at 53.32 ms moved to the cold
#: search's counts).
GRID_DIGEST = "92c3adc5f01c05d2"


def _decisions(sites, seed, load_adjusted, workload):
    """Binary and scan searches, the prefix-scan oracle, then three node
    losses answered warm through one :class:`SearchCache`."""
    net = wide_area_network(sites, seed=seed)
    procs = [p for cluster in net.clusters for p in cluster.processors]
    if load_adjusted:
        for i, proc in enumerate(procs):
            if i % 3 == 1:
                proc.set_load(0.1 * (i % 7))
    db = wide_area_cost_database(net)
    computation = WORKLOADS[workload]()
    resources = gather_available_resources(net, load_adjusted=load_adjusted)
    yield partition(computation, resources, db)
    yield partition(computation, resources, db, search="scan")
    yield prefix_scan_partition(computation, resources, db)
    cache = SearchCache()
    decision = partition(computation, resources, db, cache=cache)
    yield decision
    for step in range(3):
        procs[(5 * step + 1) % len(procs)].fail()
        resources = gather_available_resources(net, load_adjusted=load_adjusted)
        if not any(r.n_available for r in resources):
            return
        decision = partition(
            computation, resources, db, cache=cache, warm_start=decision.counts_by_name()
        )
        yield decision


def test_heuristic_grid_is_bit_identical_to_the_per_probe_arithmetic():
    digest = hashlib.sha256()
    count = 0
    for pool in GRID_POOLS:
        for workload in GRID_WORKLOADS:
            for d in _decisions(*pool, workload):
                digest.update(
                    repr(
                        (
                            d.config.counts,
                            d.t_cycle_ms,
                            d.evaluations,
                            d.trace,
                            tuple(d.vector),
                            d.t_elapsed_ms,
                        )
                    ).encode()
                )
                count += 1
    assert count == 1120
    assert digest.hexdigest()[:16] == GRID_DIGEST


class _OneEntryMemo(dict):
    """An estimate memo that forgets every estimate but the last stored."""

    def __setitem__(self, key, value):
        self.clear()
        super().__setitem__(key, value)


def test_an_evicting_cache_gives_each_prefix_one_trace_row(monkeypatch):
    """Under a one-entry memo every estimate is forgotten by the next.  A
    warm start seeded one node into the last cluster probes that
    cluster's count 0, which is the previous cluster's saturated prefix,
    probed and forgotten before: it is evaluated again but adds no second
    trace row, so the trace is the search's with a memo that keeps all."""
    net = wide_area_network(3, seed=7)
    db = wide_area_cost_database(net)
    resources = gather_available_resources(net)
    computation = WORKLOADS["sten1-6000"]()
    names = [res.name for res in order_by_power(resources)]
    warm = {**partition(computation, resources, db).counts_by_name(), names[-1]: 1}
    want = partition(computation, resources, db, warm_start=warm)

    def forgetful(*args, memo=None, **kwargs):
        return CycleEstimator(*args, memo=_OneEntryMemo(), **kwargs)

    monkeypatch.setattr(heuristic, "CycleEstimator", forgetful)
    got = partition(computation, resources, db, warm_start=warm)
    assert got.evaluations > want.evaluations == len(want.trace)
    assert (got.config.counts, got.t_cycle_ms, got.trace) == (
        want.config.counts,
        want.t_cycle_ms,
        want.trace,
    )


# -- tripwires: one configuration per search, an incremental Eq 1 fold -------------------


def test_a_search_builds_one_configuration(monkeypatch):
    """A §5 decision (binary and scan) and a prefix scan on a 256-site pool
    each build one configuration, for their winner."""
    net = wide_area_network(256, seed=7)
    db = wide_area_cost_database(net)
    resources = gather_available_resources(net)
    computation = WORKLOADS["sten1-6000"]()
    built = []
    init = ProcessorConfiguration.__init__

    def counting(self, resources, counts):
        built.append(tuple(counts))
        init(self, resources, counts)

    monkeypatch.setattr(ProcessorConfiguration, "__init__", counting)
    for search in (
        lambda: partition(computation, resources, db),
        lambda: partition(computation, resources, db, search="scan"),
        lambda: prefix_scan_partition(computation, resources, db),
    ):
        built.clear()
        decision = search()
        assert built == [decision.config.counts]


@pytest.mark.parametrize("workload", ("sten1-6000", "sor"))
def test_each_fresh_probe_makes_at_most_two_eq1_calls(monkeypatch, workload):
    """On the backbone-only database a fresh probe prices at most the
    cluster it saturated last and its own cluster, and a memo hit prices
    nothing: the Eq 1 fold stays incremental.  No call happens outside a
    probe."""
    net = wide_area_network(64, seed=7)
    db = wide_area_cost_database(net)
    resources = gather_available_resources(net)
    computation = WORKLOADS[workload]()
    calls = []
    comm_cost = db.comm_cost
    monkeypatch.setattr(db, "comm_cost", lambda *args: calls.append(args) or comm_cost(*args))
    probes = []
    along = ProbeLine.along

    def counted_along(self, k):
        probe = along(self, k)

        def counted(p):
            made, evaluations = len(calls), self.estimator.evaluations
            t = probe(p)
            probes.append((self.estimator.evaluations > evaluations, len(calls) - made))
            return t

        return counted

    monkeypatch.setattr(ProbeLine, "along", counted_along)
    for search in (
        lambda: partition(computation, resources, db),
        lambda: partition(computation, resources, db, search="scan"),
        lambda: prefix_scan_partition(computation, resources, db),
    ):
        calls.clear()
        probes.clear()
        decision = search()
        assert sum(fresh for fresh, _ in probes) == decision.evaluations
        assert max(made for fresh, made in probes if fresh) <= 2
        assert all(made == 0 for fresh, made in probes if not fresh)
        assert len(calls) == sum(made for _, made in probes)
