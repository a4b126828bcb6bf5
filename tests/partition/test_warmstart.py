"""Warm-started repartition searches: the cold search's decisions (its
``T_c`` where a warm seed settles a tie), with fewer evaluations; and the
one-map cache behind them."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.stencil import stencil_computation
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import paper_testbed, wide_area_cost_database, wide_area_network
from repro.partition.available import gather_available_resources
from repro.partition.engine import DecisionEngine
from repro.partition.heuristic import exhaustive_partition, partition
from repro.partition.perfbench import synthetic_database, synthetic_network
from repro.partition.runtime import PartitionRuntime, RuntimePolicy
from repro.partition.warmstart import SearchCache
from repro.sim.failures import FailureSchedule
from repro.telemetry.metrics import MetricsRegistry
from tests.partition.test_probe_path_oracles import GRID_WORKLOADS, WORKLOADS


def _setting(n=512):
    network = paper_testbed()
    return network, stencil_computation(n, overlap=False, cycles=1), paper_cost_database()


def test_identical_pool_hits_the_decision_cache():
    network, comp, db = _setting()
    cache = SearchCache()
    resources = gather_available_resources(network)
    first = partition(comp, resources, db, cache=cache)
    assert first.evaluations == len(first.trace) > 0
    repeat = partition(comp, gather_available_resources(network), db, cache=cache)
    assert cache.decision_hits == 1
    # Decision-cache hits search nothing: zero fresh evaluations, no trace.
    assert repeat.evaluations == 0 and repeat.trace == ()
    assert tuple(repeat.config.counts) == tuple(first.config.counts)
    assert repeat.t_cycle_ms == first.t_cycle_ms


def test_warm_search_after_node_loss_is_identical_but_cheaper():
    network, comp, db = _setting()
    cache = SearchCache()
    first = partition(comp, gather_available_resources(network), db, cache=cache)

    # A worker of the chosen decomposition dies; both a cold and a warm
    # search re-decide on the survivors.
    victim = first.config.processors()[1]
    network.processor(victim.proc_id).fail()
    survivors = gather_available_resources(network)

    cold = partition(comp, survivors, db)
    warm = partition(
        comp, survivors, db, cache=cache, warm_start=first.counts_by_name()
    )
    assert tuple(warm.config.counts) == tuple(cold.config.counts)
    assert tuple(warm.vector) == tuple(cold.vector)
    assert warm.t_cycle_ms == cold.t_cycle_ms
    # The acceptance criterion: strictly fewer fresh T_c evaluations.
    assert 0 < warm.evaluations < cold.evaluations
    assert warm.evaluations == len(warm.trace)


def test_warm_decision_config_never_references_dead_nodes():
    network, comp, db = _setting()
    cache = SearchCache()
    first = partition(comp, gather_available_resources(network), db, cache=cache)
    victim = first.config.processors()[1]
    network.processor(victim.proc_id).fail()
    warm = partition(
        comp,
        gather_available_resources(network),
        db,
        cache=cache,
        warm_start=first.counts_by_name(),
    )
    assert all(p.alive for p in warm.config.processors())
    assert victim.proc_id not in {p.proc_id for p in warm.config.processors()}


class _ColdEngine(DecisionEngine):
    """Every decision a cold search: no cache, no warm seed."""

    def decide(self, resources, *, warm_start=None):
        return partition(self.computation, resources, self.cost_db)


def test_runtime_decisions_identical_with_and_without_warm_start():
    """The supervisor's warm cache and seed change none of its decisions:
    its run equals one whose every decision is a cold search."""

    def run(warm_start):
        network = paper_testbed()
        _, comp, db = _setting()
        runtime = PartitionRuntime(
            network,
            comp,
            db,
            policy=RuntimePolicy(),
            failures=FailureSchedule.fail_at(3, [network.clusters[0].processors[2].proc_id]),
        )
        if not warm_start:
            runtime.decision_engine = _ColdEngine(comp, db)
        return runtime.run(6)

    warm, cold = run(True), run(False)
    assert warm.answer == cold.answer
    assert warm.final_vector == cold.final_vector
    assert warm.final_proc_ids == cold.final_proc_ids
    assert warm.elapsed_ms == cold.elapsed_ms
    assert [e.to_record() for e in warm.audit] == [e.to_record() for e in cold.audit]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    sites=st.integers(2, 24),
    seed=st.integers(0, 99),
    load_adjusted=st.booleans(),
    workload=st.sampled_from(GRID_WORKLOADS),
    losses=st.lists(st.integers(0, 10**4), min_size=3, max_size=3),
)
# Seeded with 0 for its second cluster, the warm search once stopped at
# (7, 0), 102.95 ms, where the cold one found (7, 5), 83.70 ms.
@example(sites=2, seed=2, load_adjusted=True, workload="sten1-600", losses=[1, 6, 11])
def test_warm_decisions_match_the_cold_t_cycle(sites, seed, load_adjusted, workload, losses):
    """A wide-area pool, loaded as the heuristic grid loads it, loses three
    nodes; each loss is answered through one cache and seeded from the
    previous decision.  Every warm ``T_c`` is the cold search's to 1e-12
    relative; where ``T_c(p)`` ties, the counts may differ."""
    net = wide_area_network(sites, seed=seed)
    procs = [p for cluster in net.clusters for p in cluster.processors]
    if load_adjusted:
        for i, proc in enumerate(procs):
            if i % 3 == 1:
                proc.set_load(0.1 * (i % 7))
    db = wide_area_cost_database(net)
    computation = WORKLOADS[workload]()
    cache = SearchCache()
    resources = gather_available_resources(net, load_adjusted=load_adjusted)
    decision = partition(computation, resources, db, cache=cache)
    for loss in losses:
        procs[loss % len(procs)].fail()
        resources = gather_available_resources(net, load_adjusted=load_adjusted)
        warm = decision.counts_by_name()
        decision = partition(computation, resources, db, cache=cache, warm_start=warm)
        cold = partition(computation, resources, db)
        assert decision.t_cycle_ms == pytest.approx(cold.t_cycle_ms, rel=1e-12, abs=0)


def test_estimate_namespace_independent_of_availability_under_threshold_policy():
    network, _, _ = _setting()
    resources = gather_available_resources(network)
    cache = SearchCache()
    before = cache.estimate_namespace(resources)
    network.clusters[0].processors[3].fail()
    after = cache.estimate_namespace(gather_available_resources(network))
    # Threshold policy: rates come from the spec, so estimates survive
    # node loss — the namespace must not change.
    assert before == after


def test_decision_signature_tracks_the_exact_pool():
    network, _, _ = _setting()
    cache = SearchCache()
    sig = cache.availability_signature(
        gather_available_resources(network), search="binary", startup_ms=0.0
    )
    network.clusters[0].processors[3].fail()
    sig_after = cache.availability_signature(
        gather_available_resources(network), search="binary", startup_ms=0.0
    )
    assert sig != sig_after


def test_topology_fingerprint_scopes_every_memo_key():
    network, _, _ = _setting()
    resources = gather_available_resources(network)
    plain = SearchCache()
    scoped = SearchCache(topology_fingerprint="abcd1234ef567890")
    assert plain.estimate_namespace(resources) != scoped.estimate_namespace(resources)
    assert plain.availability_signature(
        resources, search="binary", startup_ms=0.0
    ) != scoped.availability_signature(resources, search="binary", startup_ms=0.0)
    # A re-inferred grouping (new fingerprint) must land in fresh slots even
    # when the logical cluster names it presents are identical.
    rescoped = SearchCache(topology_fingerprint="ffff0000ffff0000")
    assert scoped.estimate_namespace(resources) != rescoped.estimate_namespace(
        resources
    )


# -- bounding (max_entries LRU) ----------------------------------------------------


def _gauge_value(registry, name, domain="host"):
    for inst in registry.instruments(domain):
        if inst.name == name:
            return inst.value
    raise AssertionError(f"no {domain} instrument named {name}")


def test_unbounded_cache_counts_entries_without_lru_bookkeeping():
    """A namespace's estimate memo is one plain dict and one entry, however
    many rows it holds; an unbounded cache never evicts."""
    cache = SearchCache()
    resources = gather_available_resources(paper_testbed())
    memo = cache.estimator_memo(resources)
    assert type(memo) is dict
    memo[(1, 2)] = "e1"
    memo[(3, 4)] = "e2"
    assert cache.estimator_memo(resources) is memo
    for i in range(100):
        cache.store_decision((f"sig-{i}",), f"d{i}")
    assert cache.entries == 101
    assert cache.evictions == 0


def test_lru_bound_evicts_the_oldest_entry_first():
    cache = SearchCache(max_entries=2)
    cache.store_decision(("sig-a",), "d1")
    cache.store_decision(("sig-b",), "d2")
    assert cache.entries == 2 and cache.evictions == 0
    # Touch sig-a so sig-b becomes the LRU victim.
    assert cache.decision(("sig-a",)) == "d1"
    cache.store_decision(("sig-c",), "d3")
    assert cache.entries == 2 and cache.evictions == 1
    assert cache.decision(("sig-b",)) is None
    assert cache.decision(("sig-a",)) == "d1"
    assert cache.decision(("sig-c",)) == "d3"


def test_lru_bound_spans_estimates_decisions_and_engines():
    """Estimate memos, decisions and engines share one recency order; the
    victim of a full cache is a whole namespace's memo, and a later search
    of that namespace starts a new one."""
    cache = SearchCache(max_entries=3)
    resources = gather_available_resources(paper_testbed())
    namespace = cache.estimate_namespace(resources)
    memo = cache.estimator_memo(resources)
    memo[(10, 4)] = "estimate"
    memo[(10, 3)] = "estimate"
    cache.store_decision(("sig",), "decision")
    cache.store_array_engine(namespace, "engine")
    assert cache.entries == 3
    # A fourth entry of any kind evicts the global LRU victim: the memo.
    cache.store_decision(("sig2",), "decision2")
    assert cache.entries == 3 and cache.evictions == 1
    assert cache.decision(("sig",)) == "decision"
    assert cache.array_engine(namespace) == "engine"
    fresh = cache.estimator_memo(resources)
    assert fresh == {} and fresh is not memo
    # The new memo evicted the least recently used entry: decision2.
    assert cache.evictions == 2
    assert cache.decision(("sig2",)) is None


def test_max_entries_validation():
    with pytest.raises(ValueError):
        SearchCache(max_entries=0)


def test_eviction_telemetry_on_a_real_registry():
    registry = MetricsRegistry()
    cache = SearchCache(max_entries=2, metrics=registry)
    for i in range(5):
        cache.store_decision((f"sig-{i}",), f"d{i}")
    assert cache.evictions == 3
    assert registry.counter_values("host")["cache.evictions"] == 3
    assert _gauge_value(registry, "cache.entries") == 2


def test_eviction_never_changes_decisions():
    # A pathologically tight bound forces constant eviction; every decision
    # must still match an uncached cold search bit-exactly.
    network, comp, db = _setting()
    cache = SearchCache(max_entries=1)
    for threshold in (None, 3):
        resources = gather_available_resources(network)
        if threshold is not None:
            network.clusters[0].processors[0].fail()
            resources = gather_available_resources(network)
        warm = partition(comp, resources, db, cache=cache)
        cold = partition(comp, resources, db)
        assert tuple(warm.config.counts) == tuple(cold.config.counts)
        assert tuple(warm.vector) == tuple(cold.vector)
        assert warm.t_cycle_ms == cold.t_cycle_ms
    assert cache.evictions > 0


# -- multi-tenant parity under the batcher -----------------------------------------

_TENANTS = ("team-a", "team-b", "team-c")
_SIZES = (128, 256)
_AVAILABILITIES = (None, {"c0": 2, "c1": 6}, {"c1": 4})


@settings(max_examples=15, deadline=None)
@given(
    ticks=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(_TENANTS),
                st.sampled_from(_SIZES),
                st.sampled_from(_AVAILABILITIES),
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_concurrent_tenants_through_batcher_match_cold_search(ticks):
    """Any interleaving of tenants/pools/sizes through the shared bounded
    cache — gets, puts, and forced evictions — serves every request the
    decision a cold array search would make."""
    from repro.server.batcher import BatchItem, Coalescer, EnginePool
    from repro.server.protocol import ServeRequest, WorkloadSpec, restrict_pool

    network = synthetic_network((4, 8))
    base = gather_available_resources(network)
    db = synthetic_database(["c0", "c1"])
    # cache_entries=2 keeps each engine's shared cache churning so the
    # property also covers the evict path.
    coalescer = Coalescer(EnginePool(db, cache_entries=2, max_engines=2))

    expected = {}
    req_id = 0
    for tick in ticks:
        items = []
        for tenant, n, availability in tick:
            req_id += 1
            request = ServeRequest(
                id=f"r{req_id}",
                tenant=tenant,
                workload=WorkloadSpec(app="stencil", n=n),
                availability=availability,
            )
            items.append(
                BatchItem(request, tuple(restrict_pool(base, availability)))
            )
        for item, reply in coalescer.run(items):
            assert reply["ok"], reply
            key = (item.request.workload.n, item.pool_key())
            if key not in expected:
                direct = exhaustive_partition(
                    item.request.workload.build(),
                    list(item.resources),
                    db,
                )
                expected[key] = (
                    direct.counts_by_name(),
                    tuple(direct.vector),
                    direct.t_cycle_ms,
                )
            counts, vector, t_cycle = expected[key]
            assert reply["counts"] == counts
            assert tuple(reply["vector"]) == vector
            assert reply["t_cycle_ms"] == t_cycle


#: Three workloads the stream below cycles through, and the availabilities
#: its requests draw (the last selects no processors: a typed error reply).
_STREAM_WORKLOADS = (("stencil", 256, False), ("stencil", 600, True), ("sor", 256, False))
_STREAM_AVAILABILITIES = (
    None,
    {"c0": 4, "c1": 8},
    {"c0": 2, "c1": 8, "c2": 6},
    {"c1": 5, "c2": 6},
    {"c0": 3, "c1": 7, "c2": 2},
    {"c0": 4, "c2": 3},
    {"c0": 1, "c1": 8, "c2": 6},
    {"c1": 8},
    {"c0": 4, "c1": 6, "c2": 6},
    {"c0": 0, "c1": 0},
)
#: sha256 prefix of the stream's replies, and each engine's live entries and
#: evictions, recorded while the cache still kept a row-level estimate LRU.
STREAM_DIGEST = "617d3723bf75c95e"
STREAM_ENTRIES = [24, 24, 24]
STREAM_EVICTIONS = [46, 58, 41]


def test_a_tenant_stream_through_bounded_caches_is_pinned():
    """A fixed 150-tick stream of four tenants and three workloads through
    ``EnginePool(cache_entries=24)``: the server's caches hold decisions and
    engines, never an estimate memo, so every reply and each cache's
    entries and evictions are as pinned."""
    from repro.server.batcher import BatchItem, Coalescer, EnginePool
    from repro.server.protocol import ServeRequest, WorkloadSpec, restrict_pool

    base = gather_available_resources(synthetic_network((4, 8, 6)))
    pool = EnginePool(synthetic_database(["c0", "c1", "c2"]), cache_entries=24)
    coalescer = Coalescer(pool)
    rng = random.Random(28)
    digest = hashlib.sha256()
    req_id = 0
    for _ in range(150):
        items = []
        for _ in range(rng.randint(1, 4)):
            req_id += 1
            availability = rng.choice(_STREAM_AVAILABILITIES)
            tenant = f"t{rng.randrange(4)}"
            app, n, overlap = rng.choice(_STREAM_WORKLOADS)
            request = ServeRequest(
                id=f"r{req_id}",
                tenant=tenant,
                workload=WorkloadSpec(app=app, n=n, overlap=overlap),
                availability=availability,
            )
            items.append(BatchItem(request, tuple(restrict_pool(base, availability))))
        for _, reply in coalescer.run(items):
            digest.update(repr(sorted(reply.items())).encode())
    caches = [engine.cache for engine in pool._engines.values()]
    assert all(kind != "est" for cache in caches for kind, _ in cache._entries)
    assert [cache.entries for cache in caches] == STREAM_ENTRIES
    assert [cache.evictions for cache in caches] == STREAM_EVICTIONS
    assert digest.hexdigest()[:16] == STREAM_DIGEST
