"""Processor configurations: a fixed choice of P_i per cluster (paper §5).

"A processor configuration is a set of values P_i for each C_i, i.e., a
fixed set of processors."  Configurations remember the cluster search order
so the materialized processor list is cluster-contiguous, fastest cluster
first — the placement §6 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError
from repro.hardware.processor import OpKind, Processor
from repro.partition.available import ClusterResources

__all__ = ["ProcessorConfiguration"]


@dataclass(frozen=True)
class ProcessorConfiguration:
    """``P_i`` processors chosen from each cluster, in search order."""

    resources: tuple[ClusterResources, ...]
    counts: tuple[int, ...]

    def __init__(self, resources, counts) -> None:
        resources = tuple(resources)
        counts = tuple(int(c) for c in counts)
        if len(resources) != len(counts):
            raise PartitionError(
                f"{len(resources)} clusters but {len(counts)} counts"
            )
        for res, count in zip(resources, counts):
            if count < 0 or count > res.n_available:
                raise PartitionError(
                    f"cluster {res.name!r}: count {count} outside [0, {res.n_available}]"
                )
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        """Total processors across clusters (the paper's ``P``)."""
        return sum(self.counts)

    def count_of(self, cluster_name: str) -> int:
        """``P_i`` for the named cluster (0 if absent)."""
        for res, count in zip(self.resources, self.counts):
            if res.name == cluster_name:
                return count
        return 0

    def counts_by_name(self) -> dict[str, int]:
        """Cluster name → ``P_i`` mapping (includes zero entries).

        Built once per (frozen) configuration and cached.  Treat the
        returned dict as read-only.
        """
        cached = self.__dict__.get("_counts_by_name")
        if cached is None:
            cached = {res.name: count for res, count in zip(self.resources, self.counts)}
            object.__setattr__(self, "_counts_by_name", cached)
        return cached

    def active(self) -> list[tuple[ClusterResources, int]]:
        """(resources, count) pairs with at least one processor."""
        return [
            (res, count)
            for res, count in zip(self.resources, self.counts)
            if count > 0
        ]

    def processors(self) -> list[Processor]:
        """The concrete nodes, cluster-contiguous in search order."""
        procs: list[Processor] = []
        for res, count in zip(self.resources, self.counts):
            procs.extend(res.take(count))
        return procs

    def per_processor_rates(self, kind: OpKind = "fp") -> list[float]:
        """Effective ``S_i`` for each chosen processor, in placement order.

        Under the threshold policy every node of a cluster shares the spec
        rate; under load adjustment each node's rate reflects its current
        load (the §3 general case), so Eq 3 balances against reality.
        """
        rates: list[float] = []
        for res, count in zip(self.resources, self.counts):
            for proc in res.take(count):
                rates.append(res.rate_of(proc, kind))
        return rates

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``sparc2:6+ipc:4``."""
        parts = [
            f"{res.name}:{count}"
            for res, count in zip(self.resources, self.counts)
            if count > 0
        ]
        return "+".join(parts) if parts else "(empty)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProcessorConfiguration {self.describe()}>"
