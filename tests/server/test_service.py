"""The asyncio NDJSON server: wire round trips, memo hits at decode,
shedding, drain, max-requests shutdown, and the /metrics endpoint."""

import asyncio
import json

import pytest

from repro.partition.available import gather_available_resources
from repro.partition.heuristic import exhaustive_partition
from repro.partition.perfbench import synthetic_database, synthetic_network
from repro.server.admission import AdmissionLimits
from repro.server.metricshttp import MetricsHTTPServer
from repro.server.protocol import WorkloadSpec, encode_line
from repro.server.service import PartitionServer, ServerConfig, resolve_pool
from repro.telemetry.export import validate_prometheus
from repro.telemetry.metrics import MetricsRegistry


def _server(config=None, metrics=None, clock=None):
    net = synthetic_network((4, 8))
    kwargs = {"config": config, "metrics": metrics}
    if clock is not None:
        kwargs["clock"] = clock
    return PartitionServer.for_network(
        net, synthetic_database(["c0", "c1"]), **kwargs
    )


async def _request(reader, writer, obj):
    writer.write(encode_line(obj))
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), timeout=30))


def _req(req_id, tenant="team-a", n=256, availability=None):
    obj = {
        "id": req_id,
        "tenant": tenant,
        "workload": {"app": "stencil", "n": n},
    }
    if availability is not None:
        obj["availability"] = availability
    return obj


def test_round_trip_matches_direct_search():
    async def run():
        server = _server()
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            reply = await _request(reader, writer, _req("r1"))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return reply

    reply = asyncio.run(run())
    assert reply["ok"] is True and reply["id"] == "r1"
    net = synthetic_network((4, 8))
    direct = exhaustive_partition(
        WorkloadSpec(app="stencil", n=256).build(),
        gather_available_resources(net),
        synthetic_database(["c0", "c1"]),
    )
    assert reply["counts"] == direct.counts_by_name()
    assert tuple(reply["vector"]) == tuple(direct.vector)
    assert reply["t_cycle_ms"] == direct.t_cycle_ms
    assert reply["method"] == direct.method


def test_malformed_and_invalid_requests_get_typed_replies():
    async def run():
        server = _server()
        host, port = await server.start()
        replies = []
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
            replies.append(
                await _request(
                    reader, writer, _req("r2", availability={"c9": 1})
                )
            )
            replies.append(
                await _request(
                    reader, writer, _req("r3", availability={"c0": 99})
                )
            )
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return replies

    bad_json, unknown_cluster, overask = asyncio.run(run())
    assert bad_json["ok"] is False and bad_json["id"] is None
    assert bad_json["error"]["kind"] == "bad-request"
    assert unknown_cluster["id"] == "r2"
    assert unknown_cluster["error"]["kind"] == "bad-request"
    assert overask["id"] == "r3"
    assert "exceeds" in overask["error"]["message"]


def test_pipelined_requests_answered_by_id():
    async def run():
        server = _server()
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for i in range(6):
                writer.write(encode_line(_req(f"r{i}", tenant=f"t{i % 2}")))
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(6)]
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return replies

    replies = asyncio.run(run())
    assert {r["id"] for r in replies} == {f"r{i}" for i in range(6)}
    assert all(r["ok"] for r in replies)
    # One batch tick served them all: a single fresh search fanned out.
    assert sum(r["served_from"] == "search" for r in replies) == 1
    assert len({tuple(r["vector"]) for r in replies}) == 1


def test_repeat_is_answered_at_decode_without_a_tick():
    """A tenant's repeat is answered from its own memo with no tick; the
    same request from another tenant still goes through one."""

    async def run():
        server = _server()
        host, port = await server.start()
        stats = server.coalescer.stats
        try:
            reader, writer = await asyncio.open_connection(host, port)
            first = await _request(reader, writer, _req("r1"))
            ticks = stats.batches
            repeat = await _request(reader, writer, _req("r2"))
            ticks_after_repeat = stats.batches
            inflight = server.admission.inflight
            other = await _request(reader, writer, _req("r3", tenant="team-b"))
            writer.close()
            await writer.wait_closed()
        finally:
            # A hit that kept its admission slot would stall the drain.
            await asyncio.wait_for(server.close(), timeout=30)
        return first, repeat, other, ticks, ticks_after_repeat, inflight, stats

    first, repeat, other, ticks, ticks_after_repeat, inflight, stats = asyncio.run(run())
    assert first["served_from"] == "search" and ticks == 1
    assert ticks_after_repeat == ticks
    assert repeat["ok"] and repeat["id"] == "r2"
    assert repeat["served_from"] == "memo" and repeat["batch_size"] == 1
    for key in ("counts", "vector", "t_cycle_ms"):
        assert repeat[key] == first[key]
    # The hit released its admission slot before its reply went out.
    assert inflight == 0
    # team-b's identical request is not answered from team-a's memo.
    assert other["served_from"] == "search"
    assert stats.batches == 2
    assert (stats.requests, stats.searches, stats.memo_hits) == (3, 2, 1)


def test_rate_limited_tenant_gets_typed_backpressure():
    frozen = lambda: 0.0  # noqa: E731 - bucket never refills
    config = ServerConfig(limits=AdmissionLimits(tenant_rate=1.0))

    async def run():
        server = _server(config=config, clock=frozen)
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            burst = [
                await _request(reader, writer, _req(f"r{i}", tenant="noisy"))
                for i in range(1, 17)
            ]
            refused = await _request(reader, writer, _req("r17", tenant="noisy"))
            quiet = await _request(reader, writer, _req("r18", tenant="quiet"))
            inflight = server.admission.inflight
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return burst, refused, quiet, inflight

    burst, refused, quiet, inflight = asyncio.run(run())
    # The fixed burst of 16 admits the noisy tenant's first 16 requests.
    assert all(reply["ok"] for reply in burst)
    assert burst[-1]["served_from"] == "memo"
    # The 17th would be a memo hit too, but admission comes first.
    assert refused["ok"] is False
    assert refused["error"]["kind"] == "rate-limited"
    assert refused["error"]["retry_after_ms"] > 0
    # The noisy tenant's bucket never starves other tenants.
    assert quiet["ok"] is True
    assert inflight == 0


def test_draining_server_answers_with_typed_reply():
    async def run():
        server = _server()
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        before = await _request(reader, writer, _req("r1"))
        await server.drain()
        after = await _request(reader, writer, _req("r2"))
        writer.close()
        await writer.wait_closed()
        await server.close()
        return before, after

    before, after = asyncio.run(run())
    assert before["ok"] is True
    assert after["ok"] is False
    assert after["error"]["kind"] == "draining"


def test_miss_pending_at_drain_is_answered():
    """A miss queued for an armed tick when the drain starts is still
    served by that tick; close() then leaves no tick armed."""
    config = ServerConfig(batch_window_ms=200.0)

    async def run():
        server = _server(config=config)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_line(_req("r1")))
        await writer.drain()

        async def armed():
            while server._tick_handle is None:
                await asyncio.sleep(0)

        await asyncio.wait_for(armed(), timeout=30)
        queued = len(server._pending)
        await asyncio.wait_for(server.drain(), timeout=30)
        reply = json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(server.close(), timeout=30)
        return server, queued, reply

    server, queued, reply = asyncio.run(run())
    assert queued == 1
    assert reply["ok"] is True and reply["served_from"] == "search"
    assert server.coalescer.stats.batches == 1
    assert server._tick_handle is None and server._pending == []


def test_max_requests_drains_and_stops():
    config = ServerConfig(max_requests=3)
    with pytest.raises(TypeError, match="topology_fingerprint"):
        ServerConfig(topology_fingerprint="x")
    with pytest.raises(TypeError, match="max_engines"):
        ServerConfig(max_engines=2)

    async def run():
        server = _server(config=config)
        started = asyncio.Event()
        bound = {}

        def on_started(host, port):
            bound["addr"] = (host, port)
            started.set()

        serve_task = asyncio.create_task(
            server.serve_until_shutdown(
                "127.0.0.1", 0, install_signals=False, on_started=on_started
            )
        )
        await asyncio.wait_for(started.wait(), timeout=10)
        host, port = bound["addr"]
        reader, writer = await asyncio.open_connection(host, port)
        replies = []
        for i in range(3):
            replies.append(await _request(reader, writer, _req(f"r{i}")))
        writer.close()
        await writer.wait_closed()
        await asyncio.wait_for(serve_task, timeout=10)
        return server, replies

    server, replies = asyncio.run(run())
    assert all(r["ok"] for r in replies)
    assert server.served == 3


def test_metrics_endpoint_serves_valid_prometheus():
    async def run():
        registry = MetricsRegistry()
        server = _server(metrics=registry)
        host, port = await server.start()
        http = MetricsHTTPServer(registry)
        mhost, mport = await http.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            await _request(reader, writer, _req("r1"))
            writer.close()
            await writer.wait_closed()

            async def get(path):
                r, w = await asyncio.open_connection(mhost, mport)
                w.write(f"GET {path} HTTP/1.0\r\nHost: t\r\n\r\n".encode())
                await w.drain()
                raw = (await r.read()).decode()
                w.close()
                await w.wait_closed()
                head, _, body = raw.partition("\r\n\r\n")
                return head, body

            ok_head, body = await get("/metrics")
            missing_head, _ = await get("/nope")
        finally:
            await http.close()
            await server.close()
        return ok_head, body, missing_head

    ok_head, body, missing_head = asyncio.run(run())
    assert "200 OK" in ok_head
    assert "text/plain; version=0.0.4" in ok_head
    assert validate_prometheus(body) == []
    assert "serve_requests" in body and "serve_latency_ms_bucket" in body
    assert "404" in missing_head


def test_resolve_pool_specs():
    net, db = resolve_pool("paper")
    assert [c.name for c in net.clusters] == ["sparc2", "ipc"]
    assert ("sparc2", "1-D") in db.comm

    net, db = resolve_pool("wide:3", seed=1)
    assert len(net.clusters) == 3

    net, db = resolve_pool("synthetic:2,4,6")
    assert [len(c.processors) for c in net.clusters] == [2, 4, 6]

    from repro.errors import ServeError

    with pytest.raises(ServeError):
        resolve_pool("nonsense")
