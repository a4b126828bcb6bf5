"""Bench: the decision service against the one-search-per-request baseline.

The ISSUE-10 tentpole claim: at 10k simulated clients the asyncio server
— request batching plus the shared bounded SearchCache — sustains at
least ``SERVE_SPEEDUP_FLOOR`` (5x) the decisions/s a per-request cold
``exhaustive_partition`` could, while every served
decision stays bit-identical to that direct search (cold and warm cache,
across tenants).  Writes the summary to ``benchmarks/out/serve_perf.txt``
and the record to the repo root as ``BENCH_serve_perf.json``; the gate's
within-run verdict enforces parity, an ok reply to every request, the
speedup floor and the coalescing floor.
"""

from repro.server.servebench import run_serve_bench, serve_payload, serve_report


def test_serve_throughput_floor(benchmark, save_report, commit_record):
    bench = benchmark.pedantic(run_serve_bench, rounds=1, iterations=1)
    save_report("serve_perf.txt", serve_report(bench))
    commit_record("serve_perf", serve_payload(bench))
    # Parity ran on both halves (cold server, then warm post-load server).
    assert bench.parity_ok is True and bench.parity_instances > 0
    # Coalescing did the heavy lifting: each fresh search answered, on
    # average, at least ten other requests of its tick.
    assert bench.fanned_out >= 10 * bench.searches
