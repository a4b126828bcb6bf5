"""serve-mix: a ``repro serve`` process driven by one closed-loop client.

The client holds two pipelined NDJSON connections (the protocol of
``docs/serving.md``).  Each caller sends one request, waits for the reply
carrying its id, then sends the next, the way a supervisor blocks on its
decision.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import measure
import ops as opsmod
import tracer as tracermod

BENCH_DIR = Path(__file__).resolve().parent
#: A reply not back after this long counts as failed.
REPLY_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 120.0
_LISTENING = re.compile(rb"listening on ([\d.]+):(\d+)")


class ServerProcess:
    """``python -m repro serve`` (or the tracing launcher) as a child."""

    def __init__(self, root: Path, env: dict, trace_out: Optional[Path] = None) -> None:
        serve_args = [
            "serve",
            "--pool", opsmod.SERVE_POOL,
            "--host", "127.0.0.1",
            "--port", "0",
            "--cache-entries", str(opsmod.SERVE_CACHE_ENTRIES),
        ]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = str(BENCH_DIR / "serverlaunch.py")
            cmd = [sys.executable, launcher, "--trace-out", str(trace_out), *serve_args]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
        self.pid = self.proc.pid

    def wait_ready(self) -> int:
        """Block until the server prints its bound port; returns it."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            match = _LISTENING.search(buf)
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError(f"server did not start listening (output: {buf[-500:]!r})")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(f"server exited with code {self.proc.returncode}")


async def _drive(connections, lines: list[bytes], ids: list[str]) -> dict:
    """Closed loop over ``lines``: every caller keeps exactly one request
    in flight.  Returns per-request send/reply times and replies."""
    loop = asyncio.get_running_loop()
    n = len(lines)
    sent = [0.0] * n
    done = [0.0] * n
    replies: list[Optional[dict]] = [None] * n
    pending: dict[str, tuple[int, asyncio.Future]] = {}
    cursor = 0

    async def read_loop(reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                # The server went away: fail every caller instead of
                # waiting out each request's timeout.
                for _, future in pending.values():
                    if not future.done():
                        future.set_exception(ConnectionError("server closed the connection"))
                return
            now = time.perf_counter()
            obj = json.loads(line)
            entry = pending.pop(obj.get("id"), None)
            if entry is not None and not entry[1].done():
                entry[1].set_result((now, obj))

    async def caller(writer) -> None:
        nonlocal cursor
        while cursor < n:
            i = cursor
            cursor += 1
            future = loop.create_future()
            pending[ids[i]] = (i, future)
            sent[i] = time.perf_counter()
            writer.write(lines[i])
            await writer.drain()
            done[i], replies[i] = await future

    async def watchdog() -> None:
        while True:
            await asyncio.sleep(1.0)
            now = time.perf_counter()
            for rid, (i, future) in list(pending.items()):
                if now - sent[i] > REPLY_TIMEOUT_S and not future.done():
                    pending.pop(rid, None)
                    future.set_result((now, None))

    readers = [asyncio.create_task(read_loop(r)) for r, _ in connections]
    dog = asyncio.create_task(watchdog())
    callers = [
        caller(w)
        for _, w in connections
        for _ in range(opsmod.SERVE_CALLERS_PER_CONNECTION)
    ]
    try:
        await asyncio.gather(*callers)
    finally:
        dog.cancel()
        for task in readers:
            task.cancel()
        await asyncio.gather(dog, *readers, return_exceptions=True)
    return {"sent": sent, "done": done, "replies": replies}


def _encode(requests, prefix: str) -> tuple[list[bytes], list[str]]:
    ids = [f"{prefix}{i}" for i in range(len(requests))]
    lines = [
        (json.dumps(r.payload(rid), separators=(",", ":")) + "\n").encode()
        for r, rid in zip(requests, ids)
    ]
    return lines, ids


async def _session(port: int, warmup_only: bool, timed: list, server_pid: int) -> dict:
    """Warm up, then drive the sub-windows of ``timed`` until ``CHUNKS`` of
    them ran on a host that stole at most ``SERVE_STEAL_LIMIT``."""
    connections = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 20)
        for _ in range(opsmod.SERVE_CONNECTIONS)
    ]
    try:
        hot = opsmod.serve_hot_set()
        full = [r for r in hot if r.availability is None]
        rest = [r for r in hot if r.availability is not None]
        # Full pools first, so every engine is lowered at full availability.
        for step, batch in enumerate((full, rest, hot * opsmod.SERVE_WARMUP_ROUNDS)):
            lines, ids = _encode(batch, f"w{step}-")
            warm = await _drive(connections, lines, ids)
            if any(r is None or not r.get("ok") for r in warm["replies"]):
                raise RuntimeError("a warm-up request failed")
        result: dict = {"ready": time.monotonic()}
        if warmup_only:
            return result
        steal0 = measure.host_steal_seconds()
        cpu0 = measure.process_cpu_seconds(server_pid)
        driven: list[dict] = []
        for k, requests in enumerate(timed):
            if sum(w["kept"] for w in driven) == measure.CHUNKS:
                break
            lines, ids = _encode(requests, f"{tracermod.TIMED_PREFIX}{k}-")
            stolen0 = measure.host_steal_seconds()
            part = await _drive(connections, lines, ids)
            wall = max(part["done"]) - min(part["sent"])
            stolen = (measure.host_steal_seconds() - stolen0) / (os.cpu_count() * wall)
            driven.append(
                {
                    "latencies": [d - s for s, d in zip(part["sent"], part["done"])],
                    "wall_s": wall,
                    # Wall time as measured: the server is the program's own
                    # process, where no reference kernel can run beside it.
                    "factor": 1.0,
                    "stolen": stolen,
                    "kept": stolen <= opsmod.SERVE_STEAL_LIMIT,
                    "requests": requests,
                    "ids": ids,
                    "replies": part["replies"],
                }
            )
        if sum(w["kept"] for w in driven) < measure.CHUNKS:
            # No quiet spell long enough: keep the least-stolen sub-windows.
            quietest = sorted(range(len(driven)), key=lambda i: driven[i]["stolen"])
            for i, w in enumerate(driven):
                w["kept"] = i in quietest[: measure.CHUNKS]
        result.update(
            driven=driven,
            windows=[w for w in driven if w["kept"]],
            cpu_s=measure.process_cpu_seconds(server_pid) - cpu0,
            steal_s=measure.host_steal_seconds() - steal0,
            peak_rss_mb=measure.peak_rss_mib(server_pid),
        )
        return result
    finally:
        for _, writer in connections:
            writer.close()
        for _, writer in connections:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


def serve_session(
    root: Path,
    env: dict,
    timed: list,
    *,
    warmup_only: bool = False,
    trace_out: Optional[Path] = None,
) -> dict:
    """Start a server, warm it up, optionally drive the sub-windows of
    ``timed`` (from ``ops.serve_windows``), stop it.

    ``setup_s`` runs from the spawn to the end of warm-up."""
    t0 = time.monotonic()
    server = ServerProcess(root, env, trace_out)
    try:
        port = server.wait_ready()
        result = asyncio.run(_session(port, warmup_only, timed, server.pid))
    finally:
        server.stop()
    result["setup_s"] = result["ready"] - t0
    return result


def served_ok(reply: Optional[dict]) -> bool:
    return reply is not None and reply.get("ok") is True


def parity_check(seed: int, timed: list, replies: list) -> bool:
    """A seeded sample of served decisions, half hot and half fresh, must be
    bit-identical to ``exhaustive_partition`` on the same restricted pool."""
    from repro.partition.available import gather_available_resources
    from repro.partition.heuristic import exhaustive_partition
    from repro.server.protocol import WorkloadSpec, restrict_pool
    from repro.server.service import resolve_pool

    params = inspect.signature(exhaustive_partition).parameters
    kwargs = {"engine": "array"} if "engine" in params else {}
    net, db = resolve_pool(opsmod.SERVE_POOL)
    base = gather_available_resources(net)
    rng = random.Random(f"serve-mix/parity/{seed}")
    hot_at: dict = {}
    fresh_at = []
    for i, req in enumerate(timed):
        if req.fresh:
            fresh_at.append(i)
        else:
            hot_at.setdefault((req.workload, req.availability), i)
    half = opsmod.SERVE_PARITY_SAMPLE // 2
    hot_keys = sorted(hot_at, key=repr)
    sample = [hot_at[k] for k in rng.sample(hot_keys, min(half, len(hot_keys)))]
    sample += rng.sample(fresh_at, min(half, len(fresh_at)))
    for i in sample:
        payload = timed[i].payload("parity")
        app, n, overlap = opsmod.SERVE_WORKLOADS[timed[i].workload]
        computation = WorkloadSpec(app=app, n=n, overlap=overlap, cycles=10).build()
        pool = restrict_pool(base, payload.get("availability"))
        decision = exhaustive_partition(computation, pool, db, **kwargs)
        reply = replies[i]
        if not served_ok(reply):
            return False
        if (
            reply["counts"] != decision.counts_by_name()
            or reply["t_cycle_ms"] != decision.t_cycle_ms
        ):
            return False
    return bool(sample)


def serve_layers(trace_file: Path, result: dict, overhead: float) -> tuple[dict, list]:
    """Per-layer metrics of a traced serve session; coverage compares the
    server-side spans of each request with its latency at the client."""
    tr, summary = tracermod.load(str(trace_file))
    top_by_request: dict = {}
    for i, parent in enumerate(tr.parents):
        if parent < 0 and tr.names[i] in ("server.decode", "server.encode"):
            rid = tr.ops[i]
            duration = tr.ends[i] - tr.starts[i]
            top_by_request[rid] = top_by_request.get(rid, 0.0) + duration
    covered = wall = 0.0
    ids = [rid for w in result["driven"] for rid in w["ids"]]
    latencies = [lat for w in result["driven"] for lat in w["latencies"]]
    for rid, latency in zip(ids, latencies):
        wall += latency
        tick = tr.tick_of.get(rid)
        covered += top_by_request.get(rid, 0.0) + tr.waits.get(rid, 0.0)
        if tick is not None:
            covered += tr.ends[tick] - tr.starts[tick]
    layers = tracermod.layer_metrics(
        tr,
        len(ids),
        {
            "engine.cache_entries": summary["cache_entries"],
            "engine.cache_evictions": summary["cache_evictions"],
            "trace.coverage": covered / wall if wall else 0.0,
            "trace.overhead": overhead,
        },
    )
    return layers, tr.absent
