"""The ``repro bench-serve`` harness behind ``BENCH_serve_perf.json``.

Shared by the CLI subcommand and ``benchmarks/test_bench_serve_perf.py``.
One run measures three things on the same pool and workload mix:

* **baseline** — the one-search-per-request cost: each distinct request
  shape in the mix is priced by a cold direct
  :func:`~repro.partition.heuristic.exhaustive_partition` call (no
  cache), and the mix-weighted mean gives the decisions/s a server
  *without* batching or caching could sustain;
* **served** — an in-process :class:`~repro.server.service.PartitionServer`
  driven by the load generator at ``clients`` logical clients; decisions/s,
  p50/p99 latency, and the coalescing ratio come from this run.  The
  committed :data:`SERVE_SPEEDUP_FLOOR` is a within-run invariant
  (served/baseline on the *same* machine in the *same* run), so the
  record's bound holds everywhere without wall-clock transfer problems;
* **parity** — every pattern in the mix is re-requested from a cold server
  and from the warm post-load server, under two different tenants each,
  and each reply must be bit-identical (counts, vector, ``T_c``) to the
  direct ``exhaustive_partition`` answer.  Coalescing and caching must buy
  throughput, never change a decision.

Wall clocks are injected (``clock=time.perf_counter`` by reference):
this package sits in the sim-determinism lint scope.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.benchmarking.perfgate import metric, record
from repro.errors import ServeError
from repro.partition.available import gather_available_resources
from repro.partition.heuristic import exhaustive_partition
from repro.server.admission import AdmissionLimits
from repro.server.loadgen import (
    LoadPattern,
    LoadResult,
    default_patterns,
    run_load,
)
from repro.server.protocol import WorkloadSpec, encode_line, restrict_pool
from repro.server.service import PartitionServer, ServerConfig, resolve_pool

__all__ = [
    "SERVE_SPEEDUP_FLOOR",
    "COALESCE_RATIO_FLOOR",
    "DEFAULT_POOL",
    "DEFAULT_N",
    "DEFAULT_CLIENTS",
    "QUICK_CLIENTS",
    "ServeBench",
    "run_serve_bench",
    "serve_report",
    "serve_payload",
]

#: Committed within-run floor: the served pipeline must deliver at least
#: this many times the one-search-per-request baseline's decisions/s.
SERVE_SPEEDUP_FLOOR = 5.0

#: Committed floor on served requests per fresh search: coalescing, not
#: raw search speed, must do the heavy lifting.
COALESCE_RATIO_FLOOR = 10.0

#: Three synthetic clusters of 32: a cold search costs ~35k evaluations,
#: so the baseline is honestly search-dominated, not transport-dominated.
DEFAULT_POOL = "synthetic:32,32,32"

#: STEN-1 problem size for the request mix.
DEFAULT_N = 600

#: Logical clients the committed record simulates.
DEFAULT_CLIENTS = 10_000

#: What ``repro bench-serve --quick`` (the CI smoke job) simulates.
QUICK_CLIENTS = 1_000


@dataclass(frozen=True)
class ServeBench:
    """One full bench run: baseline, served, and parity blocks."""

    pool: str
    n: int
    clients: int
    requests_per_client: int
    connections: int
    batch_window_ms: float
    #: Mix-weighted mean cold-search seconds per request.
    baseline_mean_s: float
    baseline_decisions_per_s: float
    requests: int
    ok: int
    errors: int
    wall_s: float
    decisions_per_s: float
    p50_ms: float
    p99_ms: float
    searches: int
    memo_hits: int
    fanned_out: int
    coalesce_ratio: float
    parity_instances: int
    parity_ok: Optional[bool]  #: ``None`` when the parity block was skipped.

    @property
    def speedup_vs_baseline(self) -> float:
        """Served over one-search-per-request decisions/s (within-run)."""
        if self.baseline_decisions_per_s <= 0:
            return 0.0
        return self.decisions_per_s / self.baseline_decisions_per_s


def _pattern_spec(pattern: LoadPattern) -> WorkloadSpec:
    return WorkloadSpec(
        app=pattern.app,
        n=pattern.n,
        overlap=pattern.overlap,
        cycles=pattern.cycles,
    )


def _direct_decision(pattern: LoadPattern, base_resources, cost_db):
    """The reference answer: one cold uncached array search."""
    comp = _pattern_spec(pattern).build()
    restricted = restrict_pool(base_resources, pattern.availability)
    return exhaustive_partition(
        comp,
        restricted,
        cost_db,
        startup_ms=pattern.startup_ms,
    )


def _mix_frequencies(
    patterns: Sequence[LoadPattern], clients: int, requests_per_client: int
) -> list[int]:
    """How often each pattern occurs in the load run (same arithmetic
    assignment the load generator uses)."""
    freq = [0] * len(patterns)
    for client_index in range(clients):
        for request_index in range(requests_per_client):
            freq[(client_index * 7 + request_index) % len(patterns)] += 1
    return freq


def _bench_limits() -> AdmissionLimits:
    """Wide-open admission: the bench measures the decision pipeline, not
    the shedding policy (which has its own tests)."""
    return AdmissionLimits(max_inflight=1_000_000, max_queue=1_000_000)


async def _parity_over_wire(
    host: str,
    port: int,
    patterns: Sequence[LoadPattern],
    expected,
) -> int:
    """Request every pattern under two tenants; compare bit-exactly.

    Returns the instance count, raises :class:`ServeError` on mismatch.
    """
    reader, writer = await asyncio.open_connection(host, port)
    instances = 0
    try:
        for i, (pattern, reference) in enumerate(zip(patterns, expected)):
            for tenant in ("parity-a", "parity-b"):
                request_id = f"par{i}-{tenant}"
                writer.write(
                    encode_line(pattern.request_obj(request_id, tenant))
                )
                await writer.drain()
                reply = json.loads(await reader.readline())
                if not reply.get("ok"):
                    raise ServeError(
                        f"parity request {request_id} failed: {reply}"
                    )
                got = (
                    reply["counts"],
                    tuple(reply["vector"]),
                    reply["t_cycle_ms"],
                )
                want = (
                    reference.counts_by_name(),
                    tuple(reference.vector),
                    reference.t_cycle_ms,
                )
                if got != want:
                    raise ServeError(
                        f"served decision diverged from the direct array "
                        f"search for {pattern.app} N={pattern.n} "
                        f"(tenant {tenant}): {got} != {want}"
                    )
                instances += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return instances


async def _served_run(
    resources,
    cost_db,
    patterns: Sequence[LoadPattern],
    expected,
    *,
    clients: int,
    requests_per_client: int,
    connections: int,
    pipeline_depth: int,
    batch_window_ms: float,
    parity: bool,
    metrics,
    clock: Callable[[], float],
) -> Tuple[LoadResult, "PartitionServer", int, Optional[bool]]:
    config = ServerConfig(
        batch_window_ms=batch_window_ms, limits=_bench_limits()
    )
    server = PartitionServer(
        resources, cost_db, config=config, metrics=metrics, clock=clock
    )
    host, port = await server.start("127.0.0.1", 0)
    parity_instances = 0
    parity_ok: Optional[bool] = None
    try:
        if parity:
            # Cold half: the server has never answered these shapes.
            parity_instances += await _parity_over_wire(
                host, port, patterns, expected
            )
        result = await run_load(
            host,
            port,
            clients=clients,
            requests_per_client=requests_per_client,
            patterns=patterns,
            connections=connections,
            pipeline_depth=pipeline_depth,
            clock=clock,
        )
        if parity:
            # Warm half: every engine now holds memos and frontiers.
            parity_instances += await _parity_over_wire(
                host, port, patterns, expected
            )
            parity_ok = True
    finally:
        await server.close()
    return result, server, parity_instances, parity_ok


def run_serve_bench(
    *,
    clients: int = DEFAULT_CLIENTS,
    requests_per_client: int = 1,
    pool: str = DEFAULT_POOL,
    n: int = DEFAULT_N,
    batch_window_ms: float = 2.0,
    connections: int = 64,
    pipeline_depth: int = 32,
    parity: bool = True,
    metrics=None,
    clock: Callable[[], float] = time.perf_counter,
) -> ServeBench:
    """Measure baseline vs served decisions/s on one pool (plus parity)."""
    if clients < 1 or requests_per_client < 1:
        raise ServeError(
            f"need at least one client and one request, got "
            f"{clients} x {requests_per_client}",
            kind="internal",
        )
    net, cost_db = resolve_pool(pool)
    base_resources = gather_available_resources(net)
    pool_counts = [(r.name, r.n_available) for r in base_resources]
    patterns = default_patterns(pool_counts, n=n)
    freq = _mix_frequencies(patterns, clients, requests_per_client)

    # Baseline: price each distinct shape by a cold uncached search (the
    # reference decisions double as the parity expectations).
    expected = []
    baseline_s = []
    for pattern in patterns:
        start = clock()
        decision = _direct_decision(pattern, base_resources, cost_db)
        baseline_s.append(clock() - start)
        expected.append(decision)
    total_requests = clients * requests_per_client
    baseline_mean_s = (
        sum(f * s for f, s in zip(freq, baseline_s)) / total_requests
    )

    result, server, parity_instances, parity_ok = asyncio.run(
        _served_run(
            base_resources,
            cost_db,
            patterns,
            expected,
            clients=clients,
            requests_per_client=requests_per_client,
            connections=connections,
            pipeline_depth=pipeline_depth,
            batch_window_ms=batch_window_ms,
            parity=parity,
            metrics=metrics,
            clock=clock,
        )
    )
    stats = server.coalescer.stats
    return ServeBench(
        pool=pool,
        n=n,
        clients=clients,
        requests_per_client=requests_per_client,
        connections=min(max(1, connections), clients),
        batch_window_ms=batch_window_ms,
        baseline_mean_s=baseline_mean_s,
        baseline_decisions_per_s=(
            1.0 / baseline_mean_s if baseline_mean_s > 0 else 0.0
        ),
        requests=result.requests,
        ok=result.ok,
        errors=result.errors,
        wall_s=result.wall_s,
        decisions_per_s=result.decisions_per_s,
        p50_ms=result.latency_percentile(50),
        p99_ms=result.latency_percentile(99),
        searches=stats.searches,
        memo_hits=stats.memo_hits,
        fanned_out=stats.fanned_out,
        coalesce_ratio=stats.coalesce_ratio,
        parity_instances=parity_instances,
        parity_ok=parity_ok,
    )


def serve_report(bench: ServeBench) -> str:
    """Human-readable summary for the CLI."""
    from repro.experiments.report import format_table

    rows = [
        ["baseline (1 search/request)", f"{bench.baseline_decisions_per_s:.0f}", "-", "-"],
        [
            "served (batched + cached)",
            f"{bench.decisions_per_s:.0f}",
            f"{bench.p50_ms:.2f}",
            f"{bench.p99_ms:.2f}",
        ],
    ]
    table = format_table(
        ["path", "decisions/s", "p50 ms", "p99 ms"],
        rows,
        title=(
            f"decision service: {bench.clients} clients x "
            f"{bench.requests_per_client} on {bench.pool}, STEN/SOR mix "
            f"N={bench.n}, window {bench.batch_window_ms:g} ms"
        ),
    )
    verdict = (
        "MEETS" if bench.speedup_vs_baseline >= SERVE_SPEEDUP_FLOOR else "BELOW"
    )
    table += (
        f"\n\nserved {bench.ok}/{bench.requests} ok ({bench.errors} errors) "
        f"in {bench.wall_s:.2f} s"
        f"\nspeedup {bench.speedup_vs_baseline:.1f}x — {verdict} the "
        f"committed {SERVE_SPEEDUP_FLOOR:g}x floor"
        f"\ncoalescing: {bench.searches} fresh searches + "
        f"{bench.memo_hits} memo groups served {bench.ok} decisions "
        f"({bench.coalesce_ratio:.0f} per search; {bench.fanned_out} fanned out)"
    )
    if bench.parity_ok is not None:
        table += (
            f"\nserved vs direct-search parity: "
            f"{'OK' if bench.parity_ok else 'BROKEN'} "
            f"({bench.parity_instances} instances, cold + warm)"
        )
    return table


def serve_payload(bench: ServeBench) -> dict:
    """The ``BENCH_serve_perf.json`` record (see
    :mod:`repro.benchmarking.perfgate` for the shape and the gate)."""
    # Wide-open admission limits: every request must come back ok; an
    # error reply or a reply lost with its connection breaks the run.
    invariants = {
        "all_replies_ok": bench.errors == 0 and bench.ok == bench.requests
    }
    if bench.parity_ok is not None:  # a skipped block fails as missing
        invariants["parity_ok"] = bench.parity_ok
    return record(
        "serve",
        scenario={
            "pool": bench.pool,
            "n": bench.n,
            "clients": bench.clients,
            "requests_per_client": bench.requests_per_client,
            "connections": bench.connections,
            "batch_window_ms": bench.batch_window_ms,
            "baseline_mean_s": bench.baseline_mean_s,
            "baseline_decisions_per_s": bench.baseline_decisions_per_s,
            "requests": bench.requests,
            "ok": bench.ok,
            "errors": bench.errors,
            "wall_s": bench.wall_s,
            "p50_ms": bench.p50_ms,
            "searches": bench.searches,
            "memo_hits": bench.memo_hits,
            "fanned_out": bench.fanned_out,
            "parity_instances": bench.parity_instances,
        },
        invariants=invariants,
        ratios={
            "speedup_vs_baseline": metric(
                bench.speedup_vs_baseline, "higher", SERVE_SPEEDUP_FLOOR
            ),
            "coalesce_ratio": metric(
                bench.coalesce_ratio, "higher", COALESCE_RATIO_FLOOR
            ),
        },
        absolute={
            "decisions_per_s": metric(bench.decisions_per_s, "higher"),
            "p99_ms": metric(bench.p99_ms, "lower"),
        },
    )
