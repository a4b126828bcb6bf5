"""Micro-benchmark: telemetry hot-path cost against the null registry.

The instrumentation contract (docs/observability.md) is that disabled
telemetry is effectively free — every instrumented module keeps instrument
*handles*, so the hot path is one method call that the shared
:data:`~repro.telemetry.NULL_REGISTRY` singletons turn into a no-op — and
that *enabled* telemetry stays cheap enough to leave on during benchmarks.
This module times the three hot-path operations (counter ``inc``, gauge
``set``, histogram ``observe``) for both registries and reports the
enabled/null per-op ratio.

The gate is the **ratio**, not the absolute nanoseconds: like the
array/scalar and fast/event speedups, a within-run ratio transfers between
the machine that committed the baseline and the CI runner, while absolute
per-op times do not.  The record carries :data:`OVERHEAD_BUDGET` as the
ratio's ``bound``, so :func:`repro.benchmarking.perfgate.check` enforces
it on every fresh ``BENCH_telemetry_overhead.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.benchmarking.perfgate import metric, record
from repro.benchmarking.timing import time_calls
from repro.telemetry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "OVERHEAD_BUDGET",
    "TelemetryOverheadResult",
    "run_overhead_bench",
    "telemetry_overhead_payload",
    "telemetry_overhead_report",
]

#: Ceiling on the enabled/null counter-inc per-op ratio.  Generous on
#: purpose: the point is catching an accidental O(instruments) lookup or
#: allocation creeping into ``inc()``, not shaving nanoseconds.
OVERHEAD_BUDGET = 25.0


@dataclass(frozen=True)
class TelemetryOverheadResult:
    """Best-of-``repeats`` per-op timings for both registries."""

    iterations: int
    repeats: int
    null_inc_ns: float
    enabled_inc_ns: float
    enabled_set_ns: float
    enabled_observe_ns: float

    @property
    def overhead_ratio(self) -> float:
        """Enabled/null counter-inc cost ratio — the gated quantity."""
        return self.enabled_inc_ns / self.null_inc_ns


def _ns_per_op(op: Callable[[], Any], iterations: int, repeats: int) -> float:
    """Best-of-``repeats`` nanoseconds per call of ``op`` in a tight loop."""
    loop = range(iterations)

    def burst() -> None:
        for _ in loop:
            op()

    return time_calls(burst, repeats)[0] / iterations * 1e9


def run_overhead_bench(
    *, iterations: int = 200_000, repeats: int = 5
) -> TelemetryOverheadResult:
    """Time the hot-path operations the instrumented modules actually run."""
    enabled = MetricsRegistry()
    null_inc = NULL_REGISTRY.counter("bench.null").inc
    live_inc = enabled.counter("bench.live").inc
    live_set = enabled.gauge("bench.gauge").set
    live_observe = enabled.histogram("bench.hist").observe
    return TelemetryOverheadResult(
        iterations=iterations,
        repeats=repeats,
        null_inc_ns=_ns_per_op(null_inc, iterations, repeats),
        enabled_inc_ns=_ns_per_op(live_inc, iterations, repeats),
        enabled_set_ns=_ns_per_op(lambda: live_set(42.0), iterations, repeats),
        enabled_observe_ns=_ns_per_op(lambda: live_observe(7.0), iterations, repeats),
    )


def telemetry_overhead_payload(result: TelemetryOverheadResult) -> dict[str, Any]:
    """The ``BENCH_telemetry_overhead.json`` record (see
    :mod:`repro.benchmarking.perfgate` for the shape and the gate)."""
    return record(
        "telemetry",
        scenario={
            "iterations": result.iterations,
            "repeats": result.repeats,
            "null_inc_ns": round(result.null_inc_ns, 2),
            "enabled_set_ns": round(result.enabled_set_ns, 2),
            "enabled_observe_ns": round(result.enabled_observe_ns, 2),
        },
        ratios={
            "overhead_ratio": metric(
                round(result.overhead_ratio, 3), "lower", OVERHEAD_BUDGET
            )
        },
        absolute={
            "enabled_inc_ns": metric(round(result.enabled_inc_ns, 2), "lower")
        },
    )


def telemetry_overhead_report(result: TelemetryOverheadResult) -> str:
    """Human-readable rendering for ``benchmarks/out/``."""
    verdict = "OK" if result.overhead_ratio <= OVERHEAD_BUDGET else "OVER BUDGET"
    return "\n".join(
        [
            "telemetry hot-path overhead "
            f"({result.iterations} iterations, best of {result.repeats})",
            f"  null counter.inc()      {result.null_inc_ns:8.1f} ns/op",
            f"  enabled counter.inc()   {result.enabled_inc_ns:8.1f} ns/op",
            f"  enabled gauge.set()     {result.enabled_set_ns:8.1f} ns/op",
            f"  enabled hist.observe()  {result.enabled_observe_ns:8.1f} ns/op",
            f"  enabled/null ratio      {result.overhead_ratio:8.2f}x "
            f"(budget {OVERHEAD_BUDGET:g}x): {verdict}",
        ]
    )
