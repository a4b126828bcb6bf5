"""The load-generator client for the decision server.

Simulates many logical clients (tenants firing request streams)
multiplexed over a small number of TCP connections — 10k logical
clients must not need 10k file descriptors.  Each logical client walks
a deterministic request pattern: the pattern index is
``(client_index * 7 + request_index) % len(patterns)``, so the mix is
reproducible without any RNG (this module sits in the sim-determinism
lint scope) while adjacent clients still interleave different
workloads within one batch tick.

Latency accounting is per *request*: send time to reply time on the
shared connection, measured with the injected host clock.  Replies are
matched by request ``id``, so pipelining depth does not skew the
numbers.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.server.protocol import encode_line
from repro.units import seconds_to_msec

__all__ = ["LoadPattern", "LoadResult", "default_patterns", "run_load"]


@dataclass(frozen=True)
class LoadPattern:
    """One request shape logical clients cycle through."""

    app: str
    n: int
    overlap: bool = False
    cycles: int = 10
    #: Per-cluster counts, or ``None`` for the full pool.
    availability: Optional[Dict[str, int]] = None

    def request_obj(self, request_id: str, tenant: str) -> dict:
        obj: dict = {
            "id": request_id,
            "tenant": tenant,
            "workload": {
                "app": self.app,
                "n": self.n,
                "overlap": self.overlap,
                "cycles": self.cycles,
            },
        }
        if self.availability is not None:
            obj["availability"] = dict(self.availability)
        return obj


def default_patterns(
    pool_counts: Sequence[Tuple[str, int]], *, n: int = 600
) -> list[LoadPattern]:
    """The bench's workload mix over a given pool.

    A handful of distinct shapes: three apps over the full pool plus two
    restricted availabilities, enough that one tick holds several
    coalescible groups rather than one.
    """
    patterns = [
        LoadPattern(app="stencil", n=n),
        LoadPattern(app="sor", n=n),
        LoadPattern(app="stencil", n=max(64, n // 2)),
        LoadPattern(app="stencil", n=n, overlap=True),
    ]
    if pool_counts:
        # Half the pool in every cluster.
        halved = {name: max(1, count // 2) for name, count in pool_counts}
        patterns.append(LoadPattern(app="stencil", n=n, availability=halved))
    if len(pool_counts) > 1:
        # Only the first cluster.
        name, count = pool_counts[0]
        patterns.append(
            LoadPattern(app="sor", n=n, availability={name: count})
        )
    return patterns


@dataclass
class LoadResult:
    """Aggregated outcome of one load run."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    #: error kind -> count (sheds, bad requests, ...).
    error_kinds: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def decisions_per_s(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of request latency, ms."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = max(0, min(len(ordered) - 1, round(q / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def merge(self, other: "LoadResult") -> None:
        self.requests += other.requests
        self.ok += other.ok
        self.errors += other.errors
        for kind, count in other.error_kinds.items():
            self.error_kinds[kind] = self.error_kinds.get(kind, 0) + count
        self.latencies_ms.extend(other.latencies_ms)


async def _drive_connection(
    host: str,
    port: int,
    jobs: Sequence[Tuple[int, int]],
    patterns: Sequence[LoadPattern],
    result: LoadResult,
    *,
    clock: Callable[[], float],
    pipeline_depth: int,
) -> None:
    """Send every (client, request) job on one connection, pipelined.

    ``pipeline_depth`` bounds unreplied requests in flight so the server's
    admission control sees sustained — not instantaneous — load.
    """
    reader, writer = await asyncio.open_connection(host, port)
    sent_at: Dict[str, float] = {}
    window = asyncio.Semaphore(pipeline_depth)
    done = asyncio.Event()
    expected = len(jobs)

    async def _read_replies() -> None:
        received = 0
        while received < expected:
            line = await reader.readline()
            if not line:
                break
            reply = json.loads(line)
            received += 1
            t_sent = sent_at.pop(reply.get("id"), None)
            if t_sent is not None:
                result.latencies_ms.append(seconds_to_msec(clock() - t_sent))
            if reply.get("ok"):
                result.ok += 1
            else:
                result.errors += 1
                kind = (reply.get("error") or {}).get("kind", "unknown")
                result.error_kinds[kind] = result.error_kinds.get(kind, 0) + 1
            window.release()
        done.set()

    read_task = asyncio.create_task(_read_replies())
    try:
        for client_index, request_index in jobs:
            await window.acquire()
            pattern = patterns[
                (client_index * 7 + request_index) % len(patterns)
            ]
            request_id = f"c{client_index}-r{request_index}"
            tenant = f"tenant{client_index % 16}"
            sent_at[request_id] = clock()
            writer.write(encode_line(pattern.request_obj(request_id, tenant)))
            result.requests += 1
            await writer.drain()
        await done.wait()
    finally:
        read_task.cancel()
        try:
            await read_task
        except asyncio.CancelledError:
            pass
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass


async def run_load(
    host: str,
    port: int,
    *,
    clients: int,
    requests_per_client: int,
    patterns: Sequence[LoadPattern],
    connections: int = 64,
    pipeline_depth: int = 32,
    clock: Callable[[], float] = time.perf_counter,
) -> LoadResult:
    """Drive the server with ``clients`` logical clients and aggregate.

    Logical clients are sharded round-robin over ``connections`` real TCP
    connections; each connection interleaves its clients' request streams
    (client 0's request 0, client C's request 0, ..., client 0's request
    1, ...) so concurrent *distinct* clients — not one client's burst —
    share each batch tick, mirroring real multi-tenant arrival order.
    """
    if not patterns:
        raise ValueError("need at least one load pattern")
    connections = max(1, min(connections, clients))
    shards: List[List[Tuple[int, int]]] = [[] for _ in range(connections)]
    for request_index in range(requests_per_client):
        for client_index in range(clients):
            shards[client_index % connections].append(
                (client_index, request_index)
            )
    total = LoadResult()
    per_conn = [LoadResult() for _ in shards]
    t0 = clock()
    await asyncio.gather(
        *(
            _drive_connection(
                host,
                port,
                shard,
                patterns,
                res,
                clock=clock,
                pipeline_depth=pipeline_depth,
            )
            for shard, res in zip(shards, per_conn)
            if shard
        )
    )
    total.wall_s = clock() - t0
    for res in per_conn:
        total.merge(res)
    return total
