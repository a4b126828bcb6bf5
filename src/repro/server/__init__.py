"""Partitioning-as-a-service: the multi-tenant asyncio decision server.

The paper's method is an offline, per-application decision; this package
turns it into a long-running service.  Many concurrent tenants send
partition requests — a workload spec plus per-cluster availability — as
newline-delimited JSON over TCP (or stdio) and get back the decision
vector and cycle estimate the offline search would have produced, served
from one shared :class:`~repro.partition.engine.DecisionEngine` per
workload behind a coalescing request batcher.

Modules
-------
* :mod:`repro.server.protocol` — the NDJSON wire format (requests,
  decision replies, typed error replies) and the workload registry;
* :mod:`repro.server.admission` — load shedding: in-flight/queue caps and
  per-tenant token-bucket rate limits;
* :mod:`repro.server.batcher` — the memo lookup that answers a tenant's
  repeat at decode, and the tick coalescer: one engine evaluation per
  distinct (workload, pool) among a tick's misses, fanned out per tenant;
* :mod:`repro.server.service` — the asyncio TCP server with graceful
  drain (SIGTERM) and the optional ``/metrics`` HTTP endpoint
  (:mod:`repro.server.metricshttp`);
* :mod:`repro.server.loadgen` — the load-generator client;
* :mod:`repro.server.servebench` — the ``repro bench-serve`` harness
  behind ``BENCH_serve_perf.json``.

Determinism: the package sits in the ``sim-determinism`` lint scope —
wall-clock reads are injected (never called inline), so served estimates
remain pure functions of the request and can never absorb host time.
"""

from repro.server.admission import AdmissionController, AdmissionLimits
from repro.server.batcher import BatchStats, Coalescer, EnginePool
from repro.server.protocol import (
    PROTOCOL_VERSION,
    WORKLOADS,
    ServeRequest,
    WorkloadSpec,
    decision_reply,
    decode_request,
    encode_line,
    error_reply,
    restrict_pool,
)
from repro.server.service import PartitionServer, ServerConfig, resolve_pool

__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "BatchStats",
    "Coalescer",
    "EnginePool",
    "PROTOCOL_VERSION",
    "PartitionServer",
    "ServeRequest",
    "ServerConfig",
    "WORKLOADS",
    "WorkloadSpec",
    "decision_reply",
    "decode_request",
    "encode_line",
    "error_reply",
    "resolve_pool",
    "restrict_pool",
]
