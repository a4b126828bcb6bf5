"""The asyncio NDJSON server: wire round trips, shedding, drain,
max-requests shutdown, and the /metrics endpoint."""

import asyncio
import json

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


def test_rate_limited_tenant_gets_typed_backpressure():
    frozen = lambda: 0.0  # noqa: E731 - bucket never refills
    config = ServerConfig(
        limits=AdmissionLimits(tenant_rate=1.0, tenant_burst=1.0)
    )

    async def run():
        server = _server(config=config, clock=frozen)
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            first = await _request(reader, writer, _req("r1", tenant="noisy"))
            second = await _request(reader, writer, _req("r2", tenant="noisy"))
            third = await _request(reader, writer, _req("r3", tenant="quiet"))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return first, second, third

    first, second, third = asyncio.run(run())
    assert first["ok"] is True
    assert second["ok"] is False
    assert second["error"]["kind"] == "rate-limited"
    assert second["error"]["retry_after_ms"] > 0
    # The noisy tenant's bucket never starves other tenants.
    assert third["ok"] is True


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


def test_max_requests_drains_and_stops():
    config = ServerConfig(max_requests=3)

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

    import pytest

    from repro.errors import ServeError

    with pytest.raises(ServeError):
        resolve_pool("nonsense")
