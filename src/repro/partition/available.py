"""Gathering the available processors (paper §5, first step).

"Before partitioning can be done, the available processors N_i within each
cluster C_i have to be known.  A cooperative algorithm is run by each cluster
manager that determines the available processors."  The tech-report details
are not in the paper; we implement the observable contract: each manager
applies its threshold policy and reports its available nodes, and the
gathering sweep costs one round of manager queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ManagerUnreachableError, PartitionError
from repro.hardware.cluster import Cluster
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.processor import OpKind, Processor

__all__ = [
    "ClusterResources",
    "gather_available_resources",
    "ManagerReply",
    "GatherReport",
    "gather_available_resources_resilient",
]


@dataclass(frozen=True)
class ClusterResources:
    """One cluster's schedulable state, as the partitioner sees it.

    Two availability policies (paper §3):

    * **threshold** (``load_adjusted=False``, the paper's simplification):
      only nodes under the manager's load threshold appear, and all are
      treated as equal;
    * **load-adjusted** (``load_adjusted=True``, the paper's "general
      case"): *every* node appears, "with the associated instruction speed
      adjusted to reflect current load" — Eq 3 then hands loaded nodes
      proportionally fewer PDUs.
    """

    cluster: Cluster
    available: tuple[Processor, ...]
    load_adjusted: bool = False

    @property
    def name(self) -> str:
        """Cluster name."""
        return self.cluster.name

    @property
    def n_available(self) -> int:
        """The paper's ``N_i``."""
        return len(self.available)

    def instruction_rate(self, kind: OpKind = "fp") -> float:
        """The cluster's nominal ``S_i`` (µs per op; smaller = faster).

        Used for cluster *ordering*; per-processor effective rates (which
        may differ under load adjustment) come from :meth:`rate_of`.
        """
        return self.cluster.instruction_rate(kind)

    def rate_of(self, proc: Processor, kind: OpKind = "fp") -> float:
        """The effective ``S_i`` of one node under the active policy."""
        return proc.effective_usec_per_op(kind, load_adjusted=self.load_adjusted)

    def take(self, count: int) -> list[Processor]:
        """The ``count`` best available nodes.

        Under the threshold policy, cluster-rank order (all equal); under
        load adjustment, least-loaded first so a partial allocation uses the
        fastest effective processors.
        """
        if count < 0 or count > self.n_available:
            raise ValueError(
                f"cluster {self.name!r} has {self.n_available} available, "
                f"{count} requested"
            )
        return list(self.available[:count])


def gather_available_resources(
    network: HeterogeneousNetwork,
    *,
    load_adjusted: bool = False,
) -> list[ClusterResources]:
    """One cooperative sweep: every manager reports its schedulable nodes.

    With ``load_adjusted=False`` (default, the paper's evaluation setting),
    managers apply the threshold policy and equal-speed assumption.  With
    ``True``, all nodes are offered with load-scaled effective rates,
    least-loaded first.

    Returns resources in the network's cluster creation order; the
    partitioner re-orders by processor power itself (paper §5).
    """
    resources = []
    for cluster in network.clusters:
        if load_adjusted:
            nodes = sorted(
                (p for p in cluster.processors if p.alive),
                key=lambda p: (p.load, p.rank_in_cluster),
            )
            available = tuple(nodes)
        else:
            available = tuple(cluster.manager.available_processors())
        resources.append(
            ClusterResources(
                cluster=cluster, available=available, load_adjusted=load_adjusted
            )
        )
    return resources


# -- the fault-tolerant sweep -----------------------------------------------------


@dataclass(frozen=True)
class ManagerReply:
    """One manager's answer to an availability query.

    ``latency_ms`` is how long the manager took to answer; the gathering
    sweep compares it against its per-query timeout, so a probe can model a
    hung manager simply by reporting a latency beyond the budget.
    """

    available: tuple[Processor, ...]
    latency_ms: float = 1.0


#: A manager query: returns the reply or raises
#: :class:`~repro.errors.ManagerUnreachableError` when the manager is gone.
ManagerProbe = Callable[[Cluster], ManagerReply]

#: Default simulated query latency (one LAN round trip, generous).
DEFAULT_PROBE_LATENCY_MS = 1.0


def default_manager_probe(cluster: Cluster) -> ManagerReply:
    """The ordinary threshold-policy query, hosted on the manager node.

    The designated manager runs on the cluster's first node (the shaded
    node of Fig 1); if that node crashed, the whole cluster stops
    answering — the scenario the retry/degrade path exists for.
    """
    manager_host = cluster.processors[0]
    if not manager_host.alive:
        raise ManagerUnreachableError(cluster.name, 1, reason="manager host down")
    return ManagerReply(
        available=tuple(cluster.manager.available_processors()),
        latency_ms=DEFAULT_PROBE_LATENCY_MS,
    )


@dataclass
class GatherReport:
    """Audit record of one resilient gathering sweep."""

    attempts: dict[str, int] = field(default_factory=dict)
    lost: tuple[str, ...] = ()
    elapsed_ms: float = 0.0

    @property
    def retries(self) -> dict[str, int]:
        """Attempts beyond the first, per cluster (0 when all answered)."""
        return {name: max(0, n - 1) for name, n in self.attempts.items()}

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())


def _hung_sweep_ms(
    clusters: int, timeout_ms: float, retries: int, backoff_ms: float, multiplier: float
) -> float:
    """What a sweep charges when every manager hangs through every retry:
    per cluster, ``retries + 1`` timeouts and the backoffs
    ``backoff_ms * multiplier**k`` (``k < retries``) between them."""
    try:
        if backoff_ms == 0 or multiplier == 1:
            backoffs = backoff_ms * retries
        else:
            backoffs = backoff_ms * (multiplier**retries - 1) / (multiplier - 1)
        return clusters * ((retries + 1) * timeout_ms + backoffs)
    except OverflowError:
        return math.inf


def gather_available_resources_resilient(
    network: HeterogeneousNetwork,
    *,
    load_adjusted: bool = False,
    probe: Optional[ManagerProbe] = None,
    timeout_ms: float = 50.0,
    max_retries: int = 2,
    backoff_ms: float = 25.0,
    backoff_multiplier: float = 2.0,
    clock=None,
    allow_partial: bool = True,
) -> tuple[list[ClusterResources], GatherReport]:
    """The cooperative sweep hardened against hung and vanished managers.

    Each manager is queried through ``probe`` with a per-query
    ``timeout_ms``; a reply slower than the budget (or with a negative or
    NaN latency) counts as a timeout and is retried after an exponential
    backoff (``backoff_ms``, ``backoff_multiplier``) up to ``max_retries``
    extra attempts.  A cluster whose manager never answers is dropped
    from the result when ``allow_partial`` (degrading to the surviving
    clusters) or re-raises :class:`~repro.errors.ManagerUnreachableError`
    otherwise.  A knob no clock can charge (a ``timeout_ms`` that is not
    finite and positive, a ``backoff_ms`` or ``backoff_multiplier`` that
    is not finite and non-negative, or settings under which a sweep with
    every manager hung would run the clock past the largest float)
    raises :class:`~repro.errors.PartitionError` before any manager is
    asked.

    All time is charged against the injectable ``clock`` (anything with an
    ``advance(ms)`` method and a ``now`` attribute, e.g.
    :class:`repro.partition.runtime.ManualClock`) — no wall clock is read,
    so tests and experiments are exactly reproducible.

    Returns ``(resources, report)`` where the report records per-cluster
    attempt counts, lost clusters, and the swept time.
    """
    from repro.partition.runtime import ManualClock

    if not (math.isfinite(timeout_ms) and timeout_ms > 0):
        raise PartitionError(
            f"timeout_ms must be finite and positive, got {timeout_ms}"
        )
    if max_retries < 0:
        raise PartitionError(f"max_retries must be >= 0, got {max_retries}")
    for name, value in (
        ("backoff_ms", backoff_ms),
        ("backoff_multiplier", backoff_multiplier),
    ):
        if not (math.isfinite(value) and value >= 0):
            raise PartitionError(
                f"{name} must be finite and non-negative, got {value}"
            )
    probe = probe or default_manager_probe
    clock = clock if clock is not None else ManualClock()
    start = clock.now
    hung_ms = _hung_sweep_ms(
        len(network.clusters), timeout_ms, max_retries, backoff_ms, backoff_multiplier
    )
    if not math.isfinite(start + hung_ms):
        raise PartitionError(
            "a sweep with every manager hung would run the clock past the "
            f"largest float (timeout_ms={timeout_ms}, max_retries={max_retries}, "
            f"backoff_ms={backoff_ms}, backoff_multiplier={backoff_multiplier})"
        )
    report = GatherReport()
    resources: list[ClusterResources] = []
    lost: list[str] = []
    for cluster in network.clusters:
        attempts = 0
        delay = backoff_ms
        reply: Optional[ManagerReply] = None
        last_reason = "timeout"
        while attempts <= max_retries:
            attempts += 1
            try:
                answer = probe(cluster)
            except ManagerUnreachableError as exc:
                clock.advance(timeout_ms)
                last_reason = exc.reason
            else:
                if not 0 <= answer.latency_ms <= timeout_ms:
                    # Hung manager, or a latency no clock can charge
                    # (negative or NaN): we stop waiting at the budget.
                    clock.advance(timeout_ms)
                    last_reason = "timeout"
                else:
                    clock.advance(answer.latency_ms)
                    reply = answer
                    break
            if attempts <= max_retries:
                clock.advance(delay)
                delay *= backoff_multiplier
        report.attempts[cluster.name] = attempts
        if reply is None:
            if not allow_partial:
                raise ManagerUnreachableError(cluster.name, attempts, last_reason)
            lost.append(cluster.name)
            continue
        available = reply.available
        if load_adjusted:
            available = tuple(
                sorted(
                    (p for p in available if p.alive),
                    key=lambda p: (p.load, p.rank_in_cluster),
                )
            )
        resources.append(
            ClusterResources(
                cluster=cluster, available=available, load_adjusted=load_adjusted
            )
        )
    report.lost = tuple(lost)
    report.elapsed_ms = clock.now - start
    return resources, report
