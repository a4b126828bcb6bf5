"""The decision server's wire protocol: newline-delimited JSON.

One request per line, one reply per line, order-independent (replies
carry the request ``id``, so clients may pipeline).  The schema is
deliberately tiny and versioned:

Request::

    {"id": "r1", "tenant": "team-a",
     "workload": {"app": "stencil", "n": 600, "overlap": false, "cycles": 10},
     "availability": {"c0": 8, "c1": 4}}        # optional; omitted = full pool

A v1 request may still carry ``startup_ms``, a non-negative number: it is
validated, then dropped.  It never changed a reply — decisions minimise
``T_c``, and ``T_startup`` enters only ``T_elapsed``, which no reply
carries.

Decision reply::

    {"v": 1, "ok": true, "id": "r1", "tenant": "team-a",
     "counts": {"c0": 5, "c1": 0}, "vector": [120, 120, ...],
     "t_cycle_ms": 26.61, "t_comp_ms": ..., "t_comm_ms": ...,
     "evaluations": 351, "method": "exhaustive",
     "served_from": "search" | "memo" | "batch", "batch_size": 3}

Error reply (typed backpressure)::

    {"v": 1, "ok": false, "id": "r1",
     "error": {"kind": "overloaded", "message": "...", "retry_after_ms": 4.0}}

``kind`` is one of ``bad-request`` (malformed line / unknown workload or
cluster), ``rate-limited`` / ``overloaded`` (admission control; carries
``retry_after_ms``), ``draining`` (server is shutting down), or
``internal``.  Clients must treat unknown reply fields as
forward-compatible extensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.errors import ServeError
from repro.partition.available import ClusterResources
from repro.partition.heuristic import PartitionDecision

__all__ = [
    "PROTOCOL_VERSION",
    "WORKLOADS",
    "WorkloadSpec",
    "ServeRequest",
    "decode_request",
    "decision_reply",
    "error_reply",
    "encode_line",
    "restrict_pool",
]

PROTOCOL_VERSION = 1

#: Error kinds a reply's ``error.kind`` may carry.
ERROR_KINDS = (
    "bad-request",
    "rate-limited",
    "overloaded",
    "draining",
    "internal",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """What the tenant wants partitioned: an application family + size.

    The registered builders cover the paper's data-parallel kernels; the
    registry is open — adding an app is one entry in :data:`WORKLOADS`.
    """

    app: str
    n: int
    overlap: bool = False
    cycles: int = 10

    def key(self) -> tuple:
        """The batching/engine-pool identity of this workload."""
        return (self.app, self.n, self.overlap, self.cycles)

    def build(self):
        """The annotated computation this spec describes."""
        try:
            builder = WORKLOADS[self.app]
        except KeyError:
            known = ", ".join(sorted(WORKLOADS))
            raise ServeError(
                f"unknown workload app {self.app!r} (known: {known})"
            ) from None
        return builder(self)

    def describe(self) -> str:
        tail = " overlap" if self.overlap else ""
        return f"{self.app} N={self.n}{tail}"


def _build_stencil(spec: WorkloadSpec):
    from repro.apps.stencil import stencil_computation

    return stencil_computation(spec.n, overlap=spec.overlap, cycles=spec.cycles)


def _build_sor(spec: WorkloadSpec):
    from repro.apps.sor import sor_computation

    return sor_computation(spec.n, cycles=spec.cycles)


def _build_gauss(spec: WorkloadSpec):
    from repro.apps.gauss import gauss_computation

    return gauss_computation(spec.n)


#: Workload registry: app name -> computation builder.
WORKLOADS: Dict[str, Callable[[WorkloadSpec], object]] = {
    "stencil": _build_stencil,
    "sor": _build_sor,
    "gauss": _build_gauss,
}


@dataclass(frozen=True)
class ServeRequest:
    """One decoded request line."""

    id: str
    tenant: str
    workload: WorkloadSpec
    #: Per-cluster schedulable node counts; ``None`` = the whole pool.
    availability: Optional[Dict[str, int]]


def _require(obj: dict, field: str, types, *, where: str):
    if field not in obj:
        raise ServeError(f"{where}: missing required field {field!r}")
    value = obj[field]
    # bool is an int subclass; a JSON true/false is never a valid count.
    if not isinstance(value, types) or (
        isinstance(value, bool) and types is not bool
    ):
        raise ServeError(
            f"{where}: field {field!r} has wrong type {type(value).__name__}"
        )
    return value


def decode_request(line: str) -> ServeRequest:
    """Parse and validate one request line.

    Raises :class:`~repro.errors.ServeError` (kind ``bad-request``) on any
    malformation; the server maps that onto a typed error reply instead of
    dropping the connection.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeError(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ServeError("request must be a JSON object")
    req_id = _require(obj, "id", str, where="request")
    tenant = _require(obj, "tenant", str, where="request")
    if not req_id or not tenant:
        raise ServeError("request: 'id' and 'tenant' must be non-empty")
    workload = _require(obj, "workload", dict, where="request")
    app = _require(workload, "app", str, where="workload")
    n = _require(workload, "n", int, where="workload")
    if n < 1:
        raise ServeError(f"workload: n must be >= 1, got {n}")
    overlap = workload.get("overlap", False)
    if not isinstance(overlap, bool):
        raise ServeError("workload: 'overlap' must be a boolean")
    cycles = workload.get("cycles", 10)
    if not isinstance(cycles, int) or isinstance(cycles, bool) or cycles < 1:
        raise ServeError("workload: 'cycles' must be a positive integer")
    if app not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise ServeError(f"unknown workload app {app!r} (known: {known})")
    availability = obj.get("availability")
    if availability is not None:
        if not isinstance(availability, dict):
            raise ServeError("request: 'availability' must be an object")
        for name, count in availability.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ServeError(
                    f"availability[{name!r}] must be a non-negative integer"
                )
    startup_ms = obj.get("startup_ms", 0.0)
    if isinstance(startup_ms, bool) or not isinstance(startup_ms, (int, float)):
        raise ServeError("request: 'startup_ms' must be a number")
    if startup_ms < 0:
        raise ServeError(f"request: startup_ms must be >= 0, got {startup_ms}")
    return ServeRequest(
        id=req_id,
        tenant=tenant,
        workload=WorkloadSpec(app=app, n=n, overlap=overlap, cycles=cycles),
        availability=dict(availability) if availability is not None else None,
    )


def restrict_pool(
    base: Sequence[ClusterResources],
    availability: Optional[Dict[str, int]],
) -> list[ClusterResources]:
    """The request's view of the pool: per-cluster node counts clamped to
    what actually exists.

    A cluster absent from ``availability`` contributes nothing; a count
    larger than the cluster's schedulable size is a
    :class:`~repro.errors.ServeError` (the tenant is asking for nodes the
    pool does not have — silently clamping would make the reply depend on
    server state the tenant cannot see).  ``availability=None`` means the
    whole pool.

    The result keeps ``base``'s cluster order, whatever the request's key
    order: the search breaks ties between equally fast clusters on it.  Of
    several over-asked clusters, the error names the first in that order.
    """
    if availability is None:
        return list(base)
    names = {res.name for res in base}
    unknown = sorted(set(availability) - names)
    if unknown:
        known = ", ".join(sorted(names))
        raise ServeError(
            f"unknown cluster(s) {unknown} in availability (pool has: {known})"
        )
    restricted = []
    for res in base:
        count = availability.get(res.name, 0)
        if count > res.n_available:
            raise ServeError(
                f"availability[{res.name!r}]={count} exceeds the pool's "
                f"{res.n_available} schedulable nodes"
            )
        if count == 0:
            continue
        restricted.append(
            ClusterResources(
                cluster=res.cluster,
                available=tuple(res.take(count)),
                load_adjusted=res.load_adjusted,
            )
        )
    return restricted


def decision_reply(
    request: ServeRequest,
    decision: PartitionDecision,
    *,
    served_from: str,
    batch_size: int,
) -> dict:
    """A decision rendered as a reply object."""
    return {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "id": request.id,
        "tenant": request.tenant,
        "counts": decision.counts_by_name(),
        "vector": list(decision.vector),
        "t_cycle_ms": decision.t_cycle_ms,
        "t_comp_ms": decision.estimate.t_comp_ms,
        "t_comm_ms": decision.estimate.t_comm_ms,
        "evaluations": decision.evaluations,
        "method": decision.method,
        "served_from": served_from,
        "batch_size": batch_size,
    }


def error_reply(
    request_id: Optional[str],
    kind: str,
    message: str,
    *,
    retry_after_ms: Optional[float] = None,
) -> dict:
    """A typed failure reply (admission shed, bad request, drain, ...)."""
    if kind not in ERROR_KINDS:
        raise ServeError(f"unknown error kind {kind!r}", kind="internal")
    error: dict = {"kind": kind, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    return {"v": PROTOCOL_VERSION, "ok": False, "id": request_id, "error": error}


def encode_line(obj: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")
