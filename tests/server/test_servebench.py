"""The bench-serve harness at toy scale: schema, parity, and the gate."""

from dataclasses import replace

from repro.benchmarking.perfgate import check
from repro.server.servebench import (
    run_serve_bench,
    serve_payload,
    serve_report,
)


def _quick_bench(**kwargs):
    # Small enough for a unit test, big enough that batching shows: 120
    # requests over a two-cluster pool.
    return run_serve_bench(
        clients=40,
        requests_per_client=3,
        pool="synthetic:8,8",
        n=200,
        connections=8,
        **kwargs,
    )


def test_bench_serves_everything_with_parity():
    bench = _quick_bench()
    assert bench.requests == 120
    assert bench.ok == 120 and bench.errors == 0
    assert bench.parity_ok is True
    # Every pattern, two tenants, cold server + warm server.
    assert bench.parity_instances == 2 * 2 * 6
    assert bench.baseline_decisions_per_s > 0
    assert bench.decisions_per_s > 0
    # Coalescing happened: far fewer searches than served requests.
    assert 0 < bench.searches < bench.requests
    assert bench.coalesce_ratio > 1.0
    assert bench.p99_ms >= bench.p50_ms > 0

    report = serve_report(bench)
    assert "decisions/s" in report and "parity: OK" in report


def _without_bounds(payload):
    # The committed floors are sized for the full-scale run and may trip
    # at toy scale; drop them so the gate compares everything else.
    for section in ("ratios", "absolute"):
        for metric in payload[section].values():
            metric.pop("bound", None)
    return payload


def test_payload_round_trips_through_the_gate():
    bench = _quick_bench()
    payload = serve_payload(bench)
    assert payload["bench"] == "serve"
    assert payload["invariants"] == {"all_replies_ok": True, "parity_ok": True}
    speedup = payload["ratios"]["speedup_vs_baseline"]
    assert speedup["value"] == bench.speedup_vs_baseline
    assert speedup["bound"] == 5.0
    assert payload["ratios"]["coalesce_ratio"]["bound"] == 10.0
    payload = _without_bounds(payload)
    assert check(payload, payload) == []
    # A connection that drops mid-run loses its replies without sending an
    # error reply: ok < requests with zero errors must still fail.
    lost = _without_bounds(serve_payload(replace(bench, ok=bench.requests - 1)))
    assert lost["scenario"]["errors"] == 0
    assert check(payload, lost) == ["invariant all_replies_ok is false"]


def test_skipped_parity_fails_as_missing():
    ran = serve_payload(_quick_bench())
    skipped = serve_payload(_quick_bench(parity=False))
    assert "parity_ok" not in skipped["invariants"]
    # Wall-clock ratios of two toy runs may drift; the skipped block must
    # fail whatever they do.
    assert "invariants 'parity_ok' missing from current payload" in check(
        ran, skipped
    )
