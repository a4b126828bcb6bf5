"""Admission control for the decision server.

Three independent guards, each mapping to a typed backpressure reply:

* **in-flight cap** — admitted requests not yet replied to; the hard
  bound on concurrently held futures (kind ``overloaded``);
* **queue depth** — requests waiting in the batcher's current tick; a
  deep queue means the coalescer is falling behind (kind ``overloaded``);
* **per-tenant token bucket** — one noisy tenant cannot starve the rest:
  each tenant refills at ``tenant_rate`` requests/s up to
  :data:`TENANT_BURST` tokens (kind ``rate-limited``, with a computed
  ``retry_after_ms`` hint).  Refilled buckets equal a new tenant's, so
  they are dropped whenever the map has doubled: one-off tenant names
  cost bounded memory and change no decision.

Shed replies are cheap by design: a rejected request never touches an
engine, so the server degrades by answering "come back later" fast
instead of answering slowly for everyone.

Determinism: the controller never reads a wall clock itself — the bucket
clock is injected as a callable (``clock=time.monotonic`` by reference),
so tests drive it manually and the sim-determinism lint rule holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.units import seconds_to_msec

__all__ = ["AdmissionLimits", "AdmissionController", "Rejection"]

#: Per-tenant burst allowance (bucket capacity), in requests.
TENANT_BURST = 16.0
#: The retry hint attached to ``overloaded`` sheds (ms).
SHED_RETRY_MS = 20.0
#: Bucket count below which the refilled buckets are never swept.
_SWEEP_FLOOR = 1024


@dataclass(frozen=True)
class AdmissionLimits:
    """The knobs (``docs/serving.md``); the burst and the overload retry hint are fixed."""

    #: Admitted-but-unanswered requests across all connections.
    max_inflight: int = 512
    #: Requests the batcher may hold for the next tick.
    max_queue: int = 2048
    #: Per-tenant sustained requests/s; ``0`` disables rate limiting.
    tenant_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.tenant_rate < 0:
            raise ValueError(f"tenant_rate must be >= 0, got {self.tenant_rate}")


@dataclass(frozen=True)
class Rejection:
    """Why a request was shed; maps 1:1 onto the wire error object."""

    kind: str  #: ``"overloaded"`` or ``"rate-limited"``
    message: str
    retry_after_ms: Optional[float] = None


class AdmissionController:
    """Stateful gate in front of the batcher.

    ``clock`` is a zero-argument callable returning seconds (monotonic);
    it is only consulted when rate limiting is enabled.
    """

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits if limits is not None else AdmissionLimits()
        self._clock = clock
        self.inflight = 0
        #: tenant -> (tokens, last refill time in seconds).
        self._buckets: Dict[str, tuple[float, float]] = {}
        #: Buckets left by the last sweep.
        self._swept_to = 0
        self.admitted = 0
        self.shed_overloaded = 0
        self.shed_rate_limited = 0

    def _take_token(self, tenant: str) -> Optional[float]:
        """Consume one token; returns the wait (s) until a token exists
        when the bucket is empty, else ``None``."""
        rate = self.limits.tenant_rate
        now = self._clock()
        tokens, last = self._buckets.get(tenant, (TENANT_BURST, now))
        tokens = min(TENANT_BURST, tokens + (now - last) * rate)
        if tokens < 1.0:
            self._buckets[tenant] = (tokens, now)
            return (1.0 - tokens) / rate
        self._buckets[tenant] = (tokens - 1.0, now)
        if len(self._buckets) >= max(_SWEEP_FLOOR, 2 * self._swept_to):
            self._buckets = {
                name: (held, at)
                for name, (held, at) in self._buckets.items()
                if held + (now - at) * rate < TENANT_BURST
            }
            self._swept_to = len(self._buckets)
        return None

    def try_admit(self, tenant: str, *, queued: int) -> Optional[Rejection]:
        """Admit (returns ``None``) or shed (returns the typed rejection).

        On admission the in-flight count is charged; the caller must pair
        every admitted request with exactly one :meth:`release`.
        """
        if self.limits.tenant_rate > 0:
            wait_s = self._take_token(tenant)
            if wait_s is not None:
                self.shed_rate_limited += 1
                return Rejection(
                    kind="rate-limited",
                    message=(
                        f"tenant {tenant!r} over its "
                        f"{self.limits.tenant_rate:g} req/s rate"
                    ),
                    retry_after_ms=seconds_to_msec(wait_s),
                )
        if self.inflight >= self.limits.max_inflight:
            self.shed_overloaded += 1
            return Rejection(
                kind="overloaded",
                message=f"{self.inflight} requests in flight (cap "
                f"{self.limits.max_inflight})",
                retry_after_ms=SHED_RETRY_MS,
            )
        if queued >= self.limits.max_queue:
            self.shed_overloaded += 1
            return Rejection(
                kind="overloaded",
                message=f"{queued} requests queued for the next batch tick "
                f"(cap {self.limits.max_queue})",
                retry_after_ms=SHED_RETRY_MS,
            )
        self.inflight += 1
        self.admitted += 1
        return None

    def release(self) -> None:
        """One admitted request finished (replied or failed)."""
        if self.inflight <= 0:
            raise RuntimeError("release() without a matching admit")
        self.inflight -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdmissionController inflight={self.inflight} "
            f"admitted={self.admitted} shed={self.shed_overloaded}"
            f"+{self.shed_rate_limited}>"
        )
