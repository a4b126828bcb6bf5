"""The tick coalescer and engine pool: one search serves many requests,
errors stay per-group, engines stay bounded."""

from repro.partition.available import gather_available_resources
from repro.partition.heuristic import exhaustive_partition
from repro.partition.perfbench import synthetic_database, synthetic_network
from repro.server.batcher import BatchItem, Coalescer, EnginePool
from repro.server.protocol import (
    ServeRequest,
    WorkloadSpec,
    restrict_pool,
)
from repro.telemetry.metrics import MetricsRegistry


def _pool():
    net = synthetic_network((4, 8))
    return (
        gather_available_resources(net),
        synthetic_database(["c0", "c1"]),
    )


def _item(req_id, tenant, *, app="stencil", n=256, availability=None, base=None, db=None):
    workload = WorkloadSpec(app=app, n=n)
    request = ServeRequest(
        id=req_id, tenant=tenant, workload=workload, availability=availability
    )
    return BatchItem(request, tuple(restrict_pool(base, availability)))


def test_identical_requests_coalesce_to_one_search():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    items = [
        _item(f"r{i}", f"tenant{i}", base=base) for i in range(5)
    ]
    outcomes = coalescer.run(items)
    assert len(outcomes) == 5
    replies = {item.request.id: reply for item, reply in outcomes}
    assert all(reply["ok"] for reply in replies.values())
    # One fresh search, fanned out to the other four — across tenants.
    assert coalescer.stats.searches == 1
    assert coalescer.stats.fanned_out == 4
    assert replies["r0"]["served_from"] == "search"
    assert all(replies[f"r{i}"]["served_from"] == "batch" for i in range(1, 5))
    assert all(reply["batch_size"] == 5 for reply in replies.values())
    # Every reply carries the same decision.
    assert len({tuple(reply["vector"]) for reply in replies.values()}) == 1


def test_coalesced_reply_matches_direct_search():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    item = _item("r0", "a", base=base, availability={"c0": 2, "c1": 6})
    [(_, reply)] = coalescer.run([item])
    direct = exhaustive_partition(
        WorkloadSpec(app="stencil", n=256).build(),
        restrict_pool(base, {"c0": 2, "c1": 6}),
        db,
    )
    assert reply["counts"] == direct.counts_by_name()
    assert tuple(reply["vector"]) == tuple(direct.vector)
    assert reply["t_cycle_ms"] == direct.t_cycle_ms


def test_distinct_pools_group_separately():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    items = [
        _item("r0", "a", base=base),
        _item("r1", "b", base=base, availability={"c0": 4, "c1": 8}),
        _item("r2", "c", base=base, availability={"c1": 3}),
    ]
    outcomes = coalescer.run(items)
    assert all(reply["ok"] for _, reply in outcomes)
    # r0 and r1 name the same processors (full pool), so they share one
    # group; r2's restricted pool is its own.
    assert coalescer.stats.searches == 2
    assert coalescer.stats.fanned_out == 1


def test_memo_hit_serves_a_later_tick_without_searching():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    coalescer.run([_item("r0", "a", base=base)])
    [(_, reply)] = coalescer.run([_item("r1", "a", base=base)])
    assert reply["ok"] and reply["served_from"] == "memo"
    assert coalescer.stats.searches == 1
    assert coalescer.stats.memo_hits == 1
    assert coalescer.stats.coalesce_ratio == 2.0


def test_any_member_tenants_memo_answers_the_group():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    coalescer.run([_item("r0", "warm-tenant", base=base)])
    outcomes = coalescer.run(
        [
            _item("r1", "cold-tenant", base=base),
            _item("r2", "warm-tenant", base=base),
        ]
    )
    assert all(reply["ok"] for _, reply in outcomes)
    # warm-tenant's memo entry answered the whole group: no second search.
    assert coalescer.stats.searches == 1
    # And cold-tenant now has its own memo entry for next time.
    [(_, reply)] = coalescer.run([_item("r3", "cold-tenant", base=base)])
    assert reply["served_from"] == "memo"
    assert coalescer.stats.searches == 1


def test_unservable_workload_errors_only_its_group():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    outcomes = coalescer.run(
        [
            # gauss needs a broadcast cost fit the synthetic db lacks.
            _item("bad", "a", app="gauss", n=64, base=base),
            _item("good", "a", base=base),
        ]
    )
    replies = {item.request.id: reply for item, reply in outcomes}
    assert replies["bad"]["ok"] is False
    assert replies["bad"]["error"]["kind"] == "bad-request"
    assert replies["good"]["ok"] is True
    assert coalescer.stats.errors == 1


def test_server_fault_fails_only_its_group(monkeypatch):
    """A search that dies with something other than a typed error (here a
    MemoryError) answers its own group ``internal``; the other workload in
    the same tick still gets its decisions."""
    base, db = _pool()
    pool = EnginePool(db)
    coalescer = Coalescer(pool)
    doomed = pool.engine_for(WorkloadSpec(app="stencil", n=256))

    def out_of_memory(*args, **kwargs):
        raise MemoryError("search workspace")

    monkeypatch.setattr(doomed, "decide_exact", out_of_memory)
    outcomes = coalescer.run(
        [
            _item("doomed-a", "a", n=256, base=base),
            _item("fine", "a", n=300, base=base),
            _item("doomed-b", "b", n=256, base=base),
        ]
    )
    replies = {item.request.id: reply for item, reply in outcomes}
    for rid in ("doomed-a", "doomed-b"):
        assert replies[rid]["ok"] is False
        assert replies[rid]["error"]["kind"] == "internal"
        assert "MemoryError" in replies[rid]["error"]["message"]
    assert replies["fine"]["ok"] is True
    direct = exhaustive_partition(WorkloadSpec(app="stencil", n=300).build(), base, db)
    assert replies["fine"]["t_cycle_ms"] == direct.t_cycle_ms
    assert coalescer.stats.errors == 2
    assert coalescer.stats.requests == 3


def test_empty_restricted_pool_is_a_typed_error():
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    [(_, reply)] = coalescer.run(
        [_item("r0", "a", base=base, availability={"c0": 0})]
    )
    assert reply["ok"] is False
    assert reply["error"]["kind"] == "bad-request"


def test_engine_pool_reuses_and_evicts_lru():
    _, db = _pool()
    pool = EnginePool(db, max_engines=2)
    w1 = WorkloadSpec(app="stencil", n=100)
    w2 = WorkloadSpec(app="stencil", n=200)
    w3 = WorkloadSpec(app="stencil", n=300)
    e1 = pool.engine_for(w1)
    assert pool.engine_for(w1) is e1
    pool.engine_for(w2)
    assert len(pool) == 2
    pool.engine_for(w3)  # evicts w1 (least recently used)
    assert len(pool) == 2
    e1_again = pool.engine_for(w1)
    assert e1_again is not e1


def test_engine_pool_keys_on_startup_ms_too():
    _, db = _pool()
    pool = EnginePool(db)
    w = WorkloadSpec(app="stencil", n=100)
    assert pool.engine_for(w) is not pool.engine_for(w, startup_ms=5.0)
    assert len(pool) == 2


def test_batcher_metrics_flow_to_a_real_registry():
    base, db = _pool()
    registry = MetricsRegistry()
    pool = EnginePool(db, metrics=registry)
    coalescer = Coalescer(pool, metrics=registry)
    coalescer.run([_item(f"r{i}", "a", base=base) for i in range(3)])
    counters = registry.counter_values("host")
    assert counters["serve.coalesce.requests"] == 3
    assert counters["serve.coalesce.searches"] == 1
    assert counters["serve.coalesce.fanout"] == 2
    assert counters["serve.batches"] == 1
    assert counters["serve.engines.built"] == 1
