"""The tick coalescer and engine pool: one search serves many requests,
errors stay per-group, engines stay bounded."""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.available import gather_available_resources
from repro.partition.heuristic import exhaustive_partition
from repro.partition.perfbench import synthetic_database, synthetic_network
from repro.server.batcher import MAX_ENGINES, BatchItem, Coalescer, EnginePool
from repro.server.protocol import (
    ServeRequest,
    WorkloadSpec,
    decode_request,
    restrict_pool,
)
from repro.server.service import resolve_pool
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
    [(_, searched)] = coalescer.run([_item("r0", "a", base=base)])
    reply = coalescer.memo_reply(_item("r1", "a", base=base))
    assert reply["ok"] and reply["served_from"] == "memo"
    assert reply["t_cycle_ms"] == searched["t_cycle_ms"]
    assert coalescer.stats.searches == 1 and coalescer.stats.batches == 1
    assert coalescer.stats.memo_hits == 1
    assert coalescer.stats.coalesce_ratio == 2.0


def test_memo_reply_answers_only_the_tenants_own_hit():
    base, db = _pool()
    registry = MetricsRegistry()
    pool = EnginePool(db, metrics=registry)
    coalescer = Coalescer(pool, metrics=registry)
    # No engine for the workload yet: nothing to answer, nothing built.
    assert coalescer.memo_reply(_item("r0", "a", base=base)) is None
    assert len(pool) == 0
    [(_, searched)] = coalescer.run([_item("r1", "a", base=base)])
    # A miss: another tenant, or another pool.
    assert coalescer.memo_reply(_item("r2", "b", base=base)) is None
    shrunk = _item("r3", "a", base=base, availability={"c1": 3})
    assert coalescer.memo_reply(shrunk) is None
    # An ordering with no processors is left to the tick's typed error.
    empty = _item("r4", "a", base=base, availability={"c0": 0})
    assert empty.resources == ()
    assert coalescer.memo_reply(empty) is None
    assert (coalescer.stats.requests, coalescer.stats.memo_hits) == (1, 0)

    reply = coalescer.memo_reply(_item("r5", "a", base=base))
    assert reply["ok"] and reply["id"] == "r5"
    assert reply["served_from"] == "memo" and reply["batch_size"] == 1
    assert reply["evaluations"] == 0
    for key in ("counts", "vector", "t_cycle_ms", "method"):
        assert reply[key] == searched[key]
    # Counted as a memo-answered group of one, outside any tick.
    stats = coalescer.stats
    assert (stats.requests, stats.searches, stats.memo_hits) == (2, 1, 1)
    assert stats.batches == 1 and stats.fanned_out == 0
    counters = registry.counter_values("host")
    assert counters["serve.coalesce.requests"] == 2
    assert counters["serve.coalesce.memo_hits"] == 1
    assert counters["serve.batches"] == 1
    assert counters["serve.engines.built"] == 1


def test_any_member_tenants_memo_answers_the_group():
    """After one shared tick, every member tenant's repeat is answered at
    decode from its own memo entry, with the group's decision."""
    base, db = _pool()
    coalescer = Coalescer(EnginePool(db))
    tenants = ("t-first", "t-second", "t-third")
    outcomes = coalescer.run(
        [_item(f"r{i}", tenant, base=base) for i, tenant in enumerate(tenants)]
    )
    assert [reply["served_from"] for _, reply in outcomes] == ["search", "batch", "batch"]
    group = outcomes[0][1]
    for tenant in tenants:
        reply = coalescer.memo_reply(_item(f"again-{tenant}", tenant, base=base))
        assert reply["served_from"] == "memo" and reply["batch_size"] == 1
        for key in ("counts", "vector", "t_cycle_ms"):
            assert reply[key] == group[key]
    assert coalescer.memo_reply(_item("r9", "t-other", base=base)) is None
    stats = coalescer.stats
    assert (stats.searches, stats.fanned_out, stats.memo_hits) == (1, 2, 3)


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
    pool = EnginePool(db)
    workloads = [
        WorkloadSpec(app="stencil", n=100 + i) for i in range(MAX_ENGINES + 1)
    ]
    *kept, extra = workloads
    engines = [pool.engine_for(w) for w in kept]
    assert pool.engine_for(kept[0]) is engines[0]
    assert len(pool) == MAX_ENGINES
    # A lookup never builds, and refreshes recency as engine_for does.
    assert pool.lookup(extra) is None and len(pool) == MAX_ENGINES
    assert pool.lookup(kept[0]) is engines[0]
    pool.engine_for(extra)  # evicts kept[1] (least recently used)
    assert len(pool) == MAX_ENGINES
    assert pool.lookup(kept[1]) is None
    assert pool.lookup(kept[0]) is engines[0]
    assert pool.engine_for(kept[1]) is not engines[1]  # evicts kept[2]
    assert pool.lookup(kept[2]) is None
    # One engine per workload: nothing else keys it.
    with pytest.raises(TypeError, match="startup_ms"):
        pool.engine_for(kept[0], startup_ms=0.0)
    # The bound is fixed.
    with pytest.raises(TypeError, match="max_engines"):
        EnginePool(db, max_engines=2)


def test_startup_ms_request_is_served_as_the_plain_request():
    """A v1 request may carry ``startup_ms``; it is validated and dropped,
    so the request shares the plain one's group, engine and search."""
    base, db = _pool()
    pool = EnginePool(db)
    coalescer = Coalescer(pool)
    request = {"tenant": "a", "workload": {"app": "stencil", "n": 256}}
    plain = decode_request(json.dumps({"id": "plain", **request}))
    startup = decode_request(
        json.dumps({"id": "startup", "startup_ms": 5.0, **request})
    )
    outcomes = coalescer.run(
        [BatchItem(req, tuple(base)) for req in (plain, startup)]
    )
    assert coalescer.stats.searches == 1
    assert len(pool) == 1
    replies = [
        {k: v for k, v in reply.items() if k not in ("id", "served_from")}
        for _, reply in outcomes
    ]
    assert replies[0]["ok"] and replies[0] == replies[1]


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


#: ``wide:8``'s four rs6000 sites: equal instruction rates, four nodes each.
_TIED_SITES = (
    "site0001-rs6000",
    "site0004-rs6000",
    "site0005-rs6000",
    "site0006-rs6000",
)


@functools.lru_cache(maxsize=1)
def _wide8():
    net, db = resolve_pool("wide:8")
    return tuple(gather_available_resources(net)), db


@settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
    orders=st.lists(st.permutations(_TIED_SITES), min_size=2, max_size=2),
)
def test_a_reply_does_not_depend_on_the_requests_key_order(counts, orders):
    """Two tenants ask for the same tied-rate clusters, listed in two key
    orders: served alone, sharing one tick, or repeated from the memo, each
    gets the decision of the exact search on the pool in the server's
    order."""
    base, db = _wide8()
    asked = dict(zip(_TIED_SITES, counts))
    first, second = ({name: asked[name] for name in order} for order in orders)
    workload = WorkloadSpec(app="stencil", n=60)
    direct = exhaustive_partition(workload.build(), restrict_pool(base, asked), db)
    expected = (direct.counts_by_name(), list(direct.vector), direct.t_cycle_ms)

    def item(req_id, tenant, availability):
        request = ServeRequest(
            id=req_id, tenant=tenant, workload=workload, availability=availability
        )
        return BatchItem(request, tuple(restrict_pool(base, availability)))

    alone = Coalescer(EnginePool(db))
    shared = Coalescer(EnginePool(db))
    outcomes = [
        *alone.run([item("a1", "t1", first)]),
        *alone.run([item("a2", "t2", second)]),
        *shared.run([item("s1", "t1", first), item("s2", "t2", second)]),
    ]
    repeat = shared.memo_reply(item("s3", "t2", second))
    assert repeat is not None and repeat["served_from"] == "memo"
    for reply in [reply for _, reply in outcomes] + [repeat]:
        assert (reply["counts"], reply["vector"], reply["t_cycle_ms"]) == expected
