"""The NDJSON wire format: decoding, validation, pool restriction."""

import json

import pytest

from repro.errors import ServeError
from repro.partition.available import gather_available_resources
from repro.partition.perfbench import synthetic_network
from repro.server.protocol import (
    PROTOCOL_VERSION,
    WORKLOADS,
    WorkloadSpec,
    decode_request,
    encode_line,
    error_reply,
    restrict_pool,
)


def _line(**overrides):
    obj = {
        "id": "r1",
        "tenant": "team-a",
        "workload": {"app": "stencil", "n": 600},
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_decode_minimal_request_fills_defaults():
    req = decode_request(_line())
    assert req.id == "r1" and req.tenant == "team-a"
    assert req.workload == WorkloadSpec(app="stencil", n=600)
    assert req.workload.cycles == 10 and req.workload.overlap is False
    assert req.availability is None and not hasattr(req, "startup_ms")


def test_decode_full_request():
    fields = dict(
        workload={"app": "sor", "n": 300, "overlap": False, "cycles": 4},
        availability={"c0": 4, "c1": 0},
    )
    req = decode_request(_line(startup_ms=2.5, **fields))
    assert req.workload.key() == ("sor", 300, False, 4)
    assert req.availability == {"c0": 4, "c1": 0}
    # A v1 startup_ms is validated, then dropped: the request is the one
    # sent without it.
    assert not hasattr(req, "startup_ms")
    assert req == decode_request(_line(**fields))


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        json.dumps(["a", "list"]),
        json.dumps({"tenant": "a", "workload": {"app": "stencil", "n": 5}}),
        json.dumps({"id": "r", "workload": {"app": "stencil", "n": 5}}),
        _line(id=""),
        _line(tenant=""),
        _line(id=7),
        _line(workload={"app": "stencil"}),
        _line(workload={"app": "nope", "n": 5}),
        _line(workload={"app": "stencil", "n": 0}),
        _line(workload={"app": "stencil", "n": True}),
        _line(workload={"app": "stencil", "n": 5, "overlap": "yes"}),
        _line(workload={"app": "stencil", "n": 5, "cycles": 0}),
        _line(availability=["c0"]),
        _line(availability={"c0": -1}),
        _line(availability={"c0": True}),
        _line(availability={"c0": 2.5}),
        _line(startup_ms="fast"),
        _line(startup_ms=-1),
        _line(startup_ms=True),
    ],
)
def test_decode_rejects_malformed_lines(line):
    with pytest.raises(ServeError) as err:
        decode_request(line)
    assert err.value.kind == "bad-request"


def test_workload_registry_builds_every_app():
    for app in WORKLOADS:
        comp = WorkloadSpec(app=app, n=128).build()
        assert comp.cycles >= 1


def test_unknown_workload_app_lists_known_ones():
    with pytest.raises(ServeError, match="stencil"):
        WorkloadSpec(app="fft", n=64).build()


def _pool():
    return gather_available_resources(synthetic_network((4, 8)))


def test_restrict_pool_none_is_the_whole_pool():
    base = _pool()
    assert [r.name for r in restrict_pool(base, None)] == ["c0", "c1"]


def test_restrict_pool_takes_requested_counts():
    restricted = restrict_pool(_pool(), {"c0": 2, "c1": 8})
    by_name = {r.name: r for r in restricted}
    assert by_name["c0"].n_available == 2
    assert by_name["c1"].n_available == 8


def test_restrict_pool_zero_drops_and_unlisted_clusters_drop():
    restricted = restrict_pool(_pool(), {"c1": 3})
    assert [r.name for r in restricted] == ["c1"]
    restricted = restrict_pool(_pool(), {"c0": 0, "c1": 3})
    assert [r.name for r in restricted] == ["c1"]


def test_restrict_pool_rejects_unknown_cluster_and_overask():
    with pytest.raises(ServeError, match="unknown cluster"):
        restrict_pool(_pool(), {"c9": 1})
    # Over-asking errors instead of silently clamping: the reply must not
    # depend on server state the tenant cannot see.
    with pytest.raises(ServeError, match="exceeds"):
        restrict_pool(_pool(), {"c0": 5})


def test_encode_line_is_compact_single_line():
    raw = encode_line({"v": PROTOCOL_VERSION, "ok": True})
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    assert b" " not in raw


def test_error_reply_shape_and_kind_validation():
    reply = error_reply("r1", "overloaded", "busy", retry_after_ms=4.0)
    assert reply["ok"] is False and reply["v"] == PROTOCOL_VERSION
    assert reply["error"]["kind"] == "overloaded"
    assert reply["error"]["retry_after_ms"] == 4.0
    assert "retry_after_ms" not in error_reply(None, "bad-request", "x")["error"]
    with pytest.raises(ServeError):
        error_reply("r1", "no-such-kind", "x")
