"""Bench: telemetry hot-path overhead guard.

The instrumented subsystems (runtime, MMPS, fast-forward engine) leave
their instrument handles in place even when telemetry is disabled, so the
hot-path cost of both the null and the enabled registry is a standing
performance liability.  This bench times counter ``inc`` / gauge ``set`` /
histogram ``observe`` for both and commits the record to the repo root as
``BENCH_telemetry_overhead.json``; the gate's within-run verdict holds the
enabled/null ratio under
:data:`~repro.benchmarking.telemetrybench.OVERHEAD_BUDGET`.
"""

from repro.benchmarking.telemetrybench import (
    run_overhead_bench,
    telemetry_overhead_payload,
    telemetry_overhead_report,
)


def test_enabled_registry_overhead_within_budget(benchmark, save_report, commit_record):
    result = benchmark.pedantic(run_overhead_bench, rounds=1, iterations=1)
    save_report("telemetry_overhead.txt", telemetry_overhead_report(result))
    commit_record("telemetry_overhead", telemetry_overhead_payload(result))


def test_null_registry_is_shared_and_inert():
    """The no-op singletons must not accumulate state across callers."""
    from repro.telemetry import NULL_REGISTRY

    a = NULL_REGISTRY.counter("x")
    b = NULL_REGISTRY.counter("y", domain="host")
    assert a is b
    a.inc(10**6)
    assert NULL_REGISTRY.snapshot()["metrics"] == []
