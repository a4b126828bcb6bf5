"""The asyncio decision server: NDJSON over TCP, batch ticks, drain.

Request lifecycle::

    readline -> decode + restrict pool -> admission gate
      -> Coalescer.memo_reply: a memo hit is answered at once
      -> a miss joins the pending list (the first miss arms the tick)
         -> (one batch window later) Coalescer.run -> reply futures resolve
      -> write reply line

A repeat of a request its tenant already asked never waits for a window:
the tenant's memo answers it right after admission.  A miss waits one
window from the arrival of the first miss in its tick, so every miss
arriving within that window is coalesced with it.

Each connection may pipeline: every request line spawns a processing
task, and replies (carrying the request ``id``) are written as they
resolve under a per-connection write lock — a slow search never blocks
the socket's read loop.

Shutdown is graceful by contract: :meth:`PartitionServer.request_shutdown`
(wired to SIGTERM/SIGINT by :meth:`serve_until_shutdown`) stops accepting
connections, answers new requests with a typed ``draining`` reply, lets
every admitted request finish, then resolves.  ``max_requests`` arms the
same path after a fixed number of served requests — the CI smoke job's
self-terminating mode.

Determinism: this module is in the ``sim-determinism`` lint scope, so
wall clocks are *injected* (``clock=time.perf_counter`` passes the
callable by reference; the rule forbids inline calls).  The only times
recorded are host-domain service latencies — simulated estimates flow
through untouched from the engines.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import PartitionError, ServeError
from repro.partition.available import (
    ClusterResources,
    gather_available_resources,
)
from repro.server.admission import AdmissionController, AdmissionLimits
from repro.server.batcher import BatchItem, Coalescer, EnginePool
from repro.server.protocol import (
    decode_request,
    encode_line,
    error_reply,
    restrict_pool,
)
from repro.telemetry import NULL_REGISTRY
from repro.units import msec_to_seconds, seconds_to_msec

__all__ = ["PartitionServer", "ServerConfig", "resolve_pool"]


@dataclass(frozen=True)
class ServerConfig:
    """Service knobs (``repro serve`` exposes each as a flag).  The engine
    pool's bound is :data:`~repro.server.batcher.MAX_ENGINES`."""

    #: How long a tick collects misses before the coalescer runs (ms),
    #: counted from the first miss's arrival.  Larger windows coalesce
    #: more at the cost of added latency; a memo hit never waits for one.
    batch_window_ms: float = 2.0
    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    #: Per-workload :class:`SearchCache` bound (``None`` = unbounded).
    cache_entries: Optional[int] = 4096
    #: Serve this many requests, then drain and stop (``None`` = forever).
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )


def resolve_pool(spec: str, *, seed: int = 0) -> tuple:
    """Build a named resource pool: ``(network, cost database)``.

    * ``"paper"`` — the Table 1 testbed (sparc2 + ipc) with the published
      cost functions;
    * ``"wide:K"`` — a :func:`~repro.hardware.presets.wide_area_network`
      of K logical sites (seeded);
    * ``"synthetic:A,B,C"`` — the perf bench's deterministic clusters of
      the given sizes.
    """
    if spec == "paper":
        from repro.experiments.paper import paper_cost_database
        from repro.hardware.presets import paper_testbed

        return paper_testbed(), paper_cost_database()
    if spec.startswith("wide:"):
        from repro.hardware.presets import (
            wide_area_cost_database,
            wide_area_network,
        )

        sites = int(spec.split(":", 1)[1])
        net = wide_area_network(sites, seed=seed)
        return net, wide_area_cost_database(net)
    if spec.startswith("synthetic:"):
        from repro.partition.perfbench import (
            synthetic_database,
            synthetic_network,
        )

        sizes = tuple(
            int(part) for part in spec.split(":", 1)[1].split(",") if part
        )
        net = synthetic_network(sizes)
        return net, synthetic_database([f"c{i}" for i in range(len(sizes))])
    raise ServeError(
        f"unknown pool spec {spec!r} (expected 'paper', 'wide:K', "
        f"or 'synthetic:A,B,C')",
        kind="internal",
    )


class PartitionServer:
    """One pool, many tenants: the batching NDJSON decision service."""

    def __init__(
        self,
        resources: Sequence[ClusterResources],
        cost_db,
        *,
        config: Optional[ServerConfig] = None,
        metrics=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.base = tuple(resources)
        if not self.base:
            raise ServeError("server pool has no clusters", kind="internal")
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics
        self._clock = clock
        self.pool = EnginePool(
            cost_db, cache_entries=self.config.cache_entries, metrics=metrics
        )
        self.coalescer = Coalescer(self.pool, metrics=metrics)
        self.admission = AdmissionController(self.config.limits, clock=clock)
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_requests = registry.counter(
            "serve.requests", domain="host", help="request lines received"
        )
        self._m_replies = registry.counter(
            "serve.replies", domain="host", help="decision replies written"
        )
        self._m_errors = registry.counter(
            "serve.errors", domain="host", help="typed error replies written"
        )
        self._m_shed = registry.counter(
            "serve.shed", domain="host", help="requests shed by admission control"
        )
        self._m_latency = registry.histogram(
            "serve.latency_ms",
            domain="host",
            help="request latency at the server (decode to reply), ms",
        )
        self._pending: list[tuple[BatchItem, "asyncio.Future"]] = []
        #: The armed tick, from the first miss until it fires.
        self._tick_handle: Optional[asyncio.TimerHandle] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._server: Optional["asyncio.base_events.Server"] = None
        self._conn_tasks: set = set()
        self._draining = False
        self.served = 0

    @classmethod
    def for_network(cls, network, cost_db, **kwargs) -> "PartitionServer":
        """A server over a network's full schedulable pool (threshold
        availability, like the offline experiments)."""
        return cls(gather_available_resources(network), cost_db, **kwargs)

    # -- lifecycle ---------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ServeError("server already started", kind="internal")
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def request_shutdown(self) -> None:
        """Arm the graceful drain (idempotent; signal-handler safe)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def serve_until_shutdown(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        install_signals: bool = True,
        on_started: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Run until SIGTERM/SIGINT (or ``max_requests``), then drain."""
        bound = await self.start(host, port)
        if on_started is not None:
            on_started(*bound)
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_shutdown)
        try:
            await self._shutdown_event.wait()
        finally:
            await self.close()
            if install_signals:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(sig)

    async def drain(self) -> None:
        """Stop accepting, answer stragglers, wait out in-flight work."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self.admission.inflight > 0 or self._pending:
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        """Graceful drain, then tear the connections down."""
        await self.drain()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    # -- connection handling -----------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        line_tasks: set = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                sub = asyncio.create_task(
                    self._process_line(line, writer, write_lock)
                )
                line_tasks.add(sub)
                sub.add_done_callback(line_tasks.discard)
            if line_tasks:
                await asyncio.gather(*line_tasks, return_exceptions=True)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            for sub in list(line_tasks):
                sub.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _send(self, writer, lock: "asyncio.Lock", obj: dict) -> None:
        async with lock:
            writer.write(encode_line(obj))
            await writer.drain()

    async def _process_line(self, line: bytes, writer, lock) -> None:
        t_start = self._clock()
        self._m_requests.inc()
        try:
            request = decode_request(line.decode("utf-8", errors="replace"))
        except ServeError as exc:
            self._m_errors.inc()
            await self._send(writer, lock, error_reply(None, exc.kind, str(exc)))
            return
        try:
            resources = restrict_pool(self.base, request.availability)
        except (ServeError, PartitionError) as exc:
            kind = exc.kind if isinstance(exc, ServeError) else "bad-request"
            self._m_errors.inc()
            await self._send(
                writer, lock, error_reply(request.id, kind, str(exc))
            )
            return
        if self._draining:
            self._m_errors.inc()
            await self._send(
                writer,
                lock,
                error_reply(
                    request.id, "draining", "server is shutting down"
                ),
            )
            return
        rejection = self.admission.try_admit(
            request.tenant, queued=len(self._pending)
        )
        if rejection is not None:
            self._m_shed.inc()
            self._m_errors.inc()
            await self._send(
                writer,
                lock,
                error_reply(
                    request.id,
                    rejection.kind,
                    rejection.message,
                    retry_after_ms=rejection.retry_after_ms,
                ),
            )
            return
        item = BatchItem(request, tuple(resources))
        try:
            reply = self.coalescer.memo_reply(item)
            if reply is None:
                reply = await self._join_tick(item)
        finally:
            self.admission.release()
        if reply.get("ok"):
            self._m_replies.inc()
        else:
            self._m_errors.inc()
        await self._send(writer, lock, reply)
        self._m_latency.observe(seconds_to_msec(self._clock() - t_start))
        self.served += 1
        if (
            self.config.max_requests is not None
            and self.served >= self.config.max_requests
        ):
            self.request_shutdown()

    # -- batching ----------------------------------------------------------------

    def _join_tick(self, item: BatchItem) -> "asyncio.Future":
        """Queue a miss for the next tick; the first one arms it."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((item, future))
        if self._tick_handle is None:
            # The coalescing window starts at this miss: every miss
            # arriving before the tick fires joins it.
            window_s = msec_to_seconds(self.config.batch_window_ms)
            self._tick_handle = loop.call_later(window_s, self._tick)
        return future

    def _tick(self) -> None:
        """Serve every pending miss as one batch and resolve its futures."""
        self._tick_handle = None
        batch = self._pending
        self._pending = []
        future_of = {id(item): future for item, future in batch}
        try:
            outcomes = self.coalescer.run([item for item, _ in batch])
        except Exception:
            # The coalescer maps per-request failures to typed replies
            # itself; anything escaping is a server bug — answer the
            # whole tick rather than strand its futures.
            outcomes = []
        for item, reply in outcomes:
            future = future_of.get(id(item))
            if future is not None and not future.done():
                future.set_result(reply)
        # Belt-and-braces: never leave a future unresolved.
        for item, future in batch:
            if not future.done():
                future.set_result(
                    error_reply(
                        item.request.id,
                        "internal",
                        "request fell out of its batch tick",
                    )
                )
