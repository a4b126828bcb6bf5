"""Bench: the decision service against the one-search-per-request baseline.

The ISSUE-10 tentpole claim: at 10k simulated clients the asyncio server
— request batching plus the shared bounded SearchCache — sustains at
least ``SERVE_SPEEDUP_FLOOR`` (5x) the decisions/s a per-request cold
``exhaustive_partition`` could, while every served
decision stays bit-identical to that direct search (cold and warm cache,
across tenants).  Writes the summary to ``benchmarks/out/serve_perf.txt``
and the machine-readable record to the repo root as
``BENCH_serve_perf.json`` so the numbers are tracked across PRs (see
``benchmarks/check_perf_regression.py``).
"""

import json
from pathlib import Path

from repro.server.servebench import (
    SERVE_SPEEDUP_FLOOR,
    run_serve_bench,
    serve_payload,
    serve_report,
)

REPO_ROOT = Path(__file__).parent.parent


def test_serve_throughput_floor(benchmark, save_report):
    bench = benchmark.pedantic(run_serve_bench, rounds=1, iterations=1)
    save_report("serve_perf.txt", serve_report(bench))
    payload = serve_payload(bench)
    (REPO_ROOT / "BENCH_serve_perf.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    # Parity ran on both halves (cold server, then warm post-load server)
    # and matched bit-exactly; it raises on divergence, the flag is what
    # the perfgate re-checks.
    assert bench.parity_ok is True and bench.parity_instances > 0
    # Wide-open admission limits: every request must be answered ok.
    assert bench.errors == 0 and bench.ok == bench.requests
    assert bench.speedup_vs_baseline >= SERVE_SPEEDUP_FLOOR, (
        f"served pipeline only {bench.speedup_vs_baseline:.1f}x the "
        f"one-search-per-request baseline (floor {SERVE_SPEEDUP_FLOOR:g}x)"
    )
    # Coalescing did the heavy lifting: far fewer searches than requests.
    assert bench.searches + bench.memo_hits < bench.requests / 10
    assert bench.coalesce_ratio > 10.0
