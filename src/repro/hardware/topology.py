"""Logical-cluster inference from measured wide-area topology.

The paper's network model hands the partitioner a short list of LAN
clusters that somebody already named.  A wide-area system has hundreds to
thousands of nodes and nobody maintains that list; following Estefanel &
Mounié ("Identifying Logical Homogeneous Clusters for Efficient Wide-area
Communications", see PAPERS.md), the grouping is *inferred* from
measurements instead: nodes whose pairwise latency sits under an
intra-cluster threshold (and whose link bandwidth matches) behave as one
logical homogeneous cluster for collective communication, regardless of
administrative boundaries.

This module implements that inference pass:

* :class:`TopologyMeasurement` — the input: a symmetric latency matrix, a
  symmetric bandwidth matrix, and per-node processor identity
  (:func:`measure_fabric` derives one from a built
  :class:`~repro.hardware.network.HeterogeneousNetwork`, summing segment
  acquisition latencies and store-and-forward router costs along each
  route; real deployments would substitute ping/iperf-style data);
* :func:`infer_topology` — threshold clustering: connected components of
  the "close" graph (latency under the threshold, bandwidth within
  tolerance of the pair's faster link), split so every logical cluster
  stays homogeneous in processor type — the §3 model invariant the
  partitioning math relies on;
* :class:`LogicalTopology` — the result, with a **stable content
  fingerprint**: a SHA-256 over the canonical grouping, which identifies
  one grouping.  No cache is keyed on it: a
  :class:`~repro.partition.warmstart.SearchCache` keys clusters by name
  and serves one grouping, so a caller that re-infers a different one
  starts a new cache.

Everything here is deterministic: inference is pure arithmetic over the
measurement, and :func:`measure_fabric` reads only static link parameters
(never the simulation clock or any entropy source).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NetworkModelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.network import HeterogeneousNetwork

__all__ = [
    "TopologyMeasurement",
    "LogicalCluster",
    "LogicalTopology",
    "measure_fabric",
    "infer_topology",
]

#: Default intra-cluster latency ceiling (ms).  A shared LAN segment's
#: acquisition latency is well under this; any route through a
#: store-and-forward router (per-frame cost ~0.8 ms on the paper's
#: testbed) lands far above it.
DEFAULT_LATENCY_THRESHOLD_MS = 0.5

#: Default relative bandwidth tolerance: two nodes only share a logical
#: cluster when the slower of their links is within this fraction of the
#: faster one.
DEFAULT_BANDWIDTH_TOLERANCE = 0.05


@dataclass(frozen=True)
class TopologyMeasurement:
    """Measured wide-area state for ``n`` physical nodes.

    ``latency_ms``/``bandwidth_bps`` are symmetric ``(n, n)`` matrices
    (diagonal ignored).  ``proc_ids`` are stable node identities;
    ``spec_names``/``fp_usec_per_op`` give each node's processor type —
    logical clusters are never allowed to mix types.
    """

    proc_ids: tuple[int, ...]
    spec_names: tuple[str, ...]
    fp_usec_per_op: tuple[float, ...]
    latency_ms: np.ndarray
    bandwidth_bps: np.ndarray
    #: Optional provenance: the physical cluster each node was built in
    #: (inference never reads it; tests use it to check recovery).
    home_clusters: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.proc_ids)
        if len(self.spec_names) != n or len(self.fp_usec_per_op) != n:
            raise NetworkModelError(
                f"measurement shape mismatch: {n} ids, "
                f"{len(self.spec_names)} specs, {len(self.fp_usec_per_op)} rates"
            )
        for name, mat in (("latency", self.latency_ms), ("bandwidth", self.bandwidth_bps)):
            arr = np.asarray(mat, dtype=float)
            if arr.shape != (n, n):
                raise NetworkModelError(
                    f"{name} matrix must be ({n}, {n}), got {arr.shape}"
                )
            if not np.allclose(arr, arr.T):
                raise NetworkModelError(f"{name} matrix must be symmetric")

    @property
    def n_nodes(self) -> int:
        return len(self.proc_ids)


@dataclass(frozen=True)
class LogicalCluster:
    """One inferred homogeneous group of physical nodes."""

    name: str
    members: tuple[int, ...]  #: proc_ids, ascending.
    spec_name: str
    fp_usec_per_op: float
    intra_latency_ms: float  #: worst pairwise latency inside the group.
    link_bandwidth_bps: float  #: slowest intra-group link.

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class LogicalTopology:
    """The inference result: logical clusters plus the thresholds used."""

    clusters: tuple[LogicalCluster, ...]
    latency_threshold_ms: float
    bandwidth_tolerance: float

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_nodes(self) -> int:
        return sum(c.size for c in self.clusters)

    def cluster_of(self, proc_id: int) -> LogicalCluster:
        for cluster in self.clusters:
            if proc_id in cluster.members:
                return cluster
        raise NetworkModelError(f"no logical cluster holds node {proc_id}")

    def fingerprint(self) -> str:
        """Stable content hash of the grouping.

        Covers exactly what downstream decisions depend on: which nodes
        form which logical cluster, each cluster's processor identity,
        and the thresholds that produced the grouping.  Float fields go
        through ``repr`` (shortest round-trip form), so the fingerprint is
        reproducible across processes and platforms; display names are
        included because memo keys downstream are name-based.
        """
        payload = repr(
            (
                tuple(
                    (c.name, c.members, c.spec_name, repr(c.fp_usec_per_op))
                    for c in self.clusters
                ),
                repr(self.latency_threshold_ms),
                repr(self.bandwidth_tolerance),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """Readable one-line summary, e.g. ``3 logical clusters: L0:4xSparc2 ...``."""
        parts = [f"{c.name}:{c.size}x{c.spec_name}" for c in self.clusters]
        return f"{self.n_clusters} logical clusters: " + " ".join(parts)


def measure_fabric(network: "HeterogeneousNetwork") -> TopologyMeasurement:
    """Derive the measurement matrices from a built network's link model.

    Per node pair the latency is the end-to-end static frame latency on
    the route (source-segment acquisition, then per router: its
    store-and-forward per-frame cost plus the next segment's acquisition);
    the bandwidth is the route's bottleneck link.  Intra-segment pairs see
    just their own segment.  This is the idealized, contention-free number
    a wide-area probe would measure on an idle fabric.
    """
    nodes = list(network.processors())
    n = len(nodes)
    if n == 0:
        raise NetworkModelError("network has no processors to measure")
    clusters = {c.name: c for c in network.clusters}
    latency = np.zeros((n, n))
    bandwidth = np.zeros((n, n))
    # Route properties only depend on the (segment, segment) pair; memoize
    # per cluster pair so the node-pair sweep stays cheap at scale.
    pair_cache: dict[tuple[str, str], tuple[float, float]] = {}

    def link(a_name: str, b_name: str) -> tuple[float, float]:
        key = (a_name, b_name) if a_name <= b_name else (b_name, a_name)
        hit = pair_cache.get(key)
        if hit is not None:
            return hit
        seg_a = clusters[a_name].segment
        if a_name == b_name:
            result = (
                seg_a.params.acquisition_latency_ms,
                seg_a.params.bandwidth_bps,
            )
        else:
            route = network.fabric.route(seg_a.name, clusters[b_name].segment.name)
            lat = route.segments[0].params.acquisition_latency_ms
            for router, seg in zip(route.routers, route.segments[1:]):
                lat += router.params.per_frame_ms + seg.params.acquisition_latency_ms
            result = (lat, min(s.params.bandwidth_bps for s in route.segments))
        pair_cache[key] = result
        return result

    for i, a in enumerate(nodes):
        for j in range(i + 1, n):
            b = nodes[j]
            lat, bw = link(a.cluster_name, b.cluster_name)
            latency[i, j] = latency[j, i] = lat
            bandwidth[i, j] = bandwidth[j, i] = bw
    return TopologyMeasurement(
        proc_ids=tuple(p.proc_id for p in nodes),
        spec_names=tuple(p.spec.name for p in nodes),
        fp_usec_per_op=tuple(p.spec.fp_usec_per_op for p in nodes),
        latency_ms=latency,
        bandwidth_bps=bandwidth,
        home_clusters=tuple(p.cluster_name for p in nodes),
    )


def infer_topology(
    measurement: TopologyMeasurement,
    *,
    latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS,
    bandwidth_tolerance: float = DEFAULT_BANDWIDTH_TOLERANCE,
    name_prefix: str = "L",
) -> LogicalTopology:
    """Group nodes into logical homogeneous clusters by threshold clustering.

    Two nodes are *close* when their measured latency is at most
    ``latency_threshold_ms`` and the pair's bandwidth is within
    ``bandwidth_tolerance`` (relative) of the best bandwidth either node
    sees.  Logical clusters are the connected components of the close
    graph, split further so each contains a single processor type (the
    homogeneity invariant every downstream Eq 1-6 fit assumes).  Output
    order and naming are canonical — components sorted by their smallest
    member id — so the same measurement always produces the same
    :class:`LogicalTopology` and therefore the same fingerprint.
    """
    if latency_threshold_ms <= 0:
        raise NetworkModelError(
            f"latency threshold must be positive, got {latency_threshold_ms}"
        )
    if not 0 <= bandwidth_tolerance < 1:
        raise NetworkModelError(
            f"bandwidth tolerance must be in [0, 1), got {bandwidth_tolerance}"
        )
    n = measurement.n_nodes
    lat = np.asarray(measurement.latency_ms, dtype=float)
    bw = np.asarray(measurement.bandwidth_bps, dtype=float)
    best_bw = bw.max(axis=1) if n > 1 else np.zeros(n)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if lat[i, j] > latency_threshold_ms:
                continue
            fast = max(best_bw[i], best_bw[j])
            if fast > 0 and bw[i, j] < fast * (1.0 - bandwidth_tolerance):
                continue
            # Homogeneity split: close nodes of different processor types
            # stay separate logical clusters on the same (low-latency) site.
            if measurement.spec_names[i] != measurement.spec_names[j]:
                continue
            if measurement.fp_usec_per_op[i] != measurement.fp_usec_per_op[j]:
                continue
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for order, root in enumerate(sorted(groups)):
        idx = groups[root]
        members = tuple(sorted(measurement.proc_ids[i] for i in idx))
        if len(idx) > 1:
            sub_lat = lat[np.ix_(idx, idx)]
            sub_bw = bw[np.ix_(idx, idx)]
            off = ~np.eye(len(idx), dtype=bool)
            intra_lat = float(sub_lat[off].max())
            intra_bw = float(sub_bw[off].min())
        else:
            intra_lat, intra_bw = 0.0, float(best_bw[idx[0]])
        clusters.append(
            LogicalCluster(
                name=f"{name_prefix}{order}",
                members=members,
                spec_name=measurement.spec_names[idx[0]],
                fp_usec_per_op=measurement.fp_usec_per_op[idx[0]],
                intra_latency_ms=intra_lat,
                link_bandwidth_bps=intra_bw,
            )
        )
    return LogicalTopology(
        clusters=tuple(clusters),
        latency_threshold_ms=latency_threshold_ms,
        bandwidth_tolerance=bandwidth_tolerance,
    )
