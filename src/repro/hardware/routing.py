"""Multi-hop routing fabrics (relaxing the §3 one-hop assumption).

The paper assumes "every pair of segments is connected by a single router"
so messages travel one hop at most.  A campus-scale metasystem breaks that:
segments hang off different routers joined by a backbone.  This module
models such fabrics as a bipartite segment/router graph and computes
shortest paths with :mod:`networkx`; frames then pay every hop —
store-and-forward at each router plus contention on every traversed
segment.

The strict §3 validation rejects fabrics where any route exceeds one hop;
everything downstream (cost fitting, partitioning) works unchanged because
cross-cluster penalties are *measured end to end* on whatever fabric is in
place.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import NetworkModelError
from repro.hardware.router import Router
from repro.hardware.segment import EthernetSegment

__all__ = ["RoutingFabric", "Route"]


class Route:
    """A resolved path: the segments traversed and the routers between them.

    ``segments[0]`` is the source's segment; each ``routers[i]`` forwards
    from ``segments[i]`` onto ``segments[i+1]``.
    """

    def __init__(self, segments: list[EthernetSegment], routers: list[Router]) -> None:
        if len(routers) != len(segments) - 1:
            raise NetworkModelError(
                f"route shape mismatch: {len(segments)} segments, {len(routers)} routers"
            )
        self.segments = segments
        self.routers = routers

    @property
    def hops(self) -> int:
        """Number of routers traversed."""
        return len(self.routers)

    def min_mtu(self) -> int:
        """The path MTU: the smallest link MTU along the route."""
        return min(seg.params.mtu_bytes for seg in self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.segments[0].name]
        for router, seg in zip(self.routers, self.segments[1:]):
            parts.append(f"-[{router.name}]-")
            parts.append(seg.name)
        return "<Route " + "".join(parts) + ">"


class RoutingFabric:
    """The segment/router connectivity graph with shortest-path routing."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._segments: dict[str, EthernetSegment] = {}
        self._routers: dict[str, Router] = {}
        self._route_cache: dict[tuple[str, str], Route] = {}
        #: Monotonic topology revision: bumped on every mutation so
        #: downstream memos (route-derived MTUs, fragment plans in
        #: :class:`repro.mmps.commcache.CommRoundCache`) can detect staleness
        #: with one integer comparison.
        self.version = 0

    def add_segment(self, segment: EthernetSegment) -> None:
        """Register a segment node."""
        if segment.name in self._segments:
            raise NetworkModelError(f"duplicate segment {segment.name!r}")
        self._segments[segment.name] = segment
        self._graph.add_node(("seg", segment.name))
        self._route_cache.clear()
        self.version += 1

    def add_router(self, router: Router) -> None:
        """Register a router node."""
        if router.name in self._routers:
            raise NetworkModelError(f"duplicate router {router.name!r}")
        self._routers[router.name] = router
        self._graph.add_node(("rtr", router.name))
        self._route_cache.clear()
        self.version += 1

    def connect(self, router_name: str, segment_name: str) -> None:
        """Attach a router port to a segment."""
        if router_name not in self._routers:
            raise NetworkModelError(f"unknown router {router_name!r}")
        if segment_name not in self._segments:
            raise NetworkModelError(f"unknown segment {segment_name!r}")
        router = self._routers[router_name]
        segment = self._segments[segment_name]
        if segment.name not in router.segments:
            router.attach(segment)
        self._graph.add_edge(("rtr", router_name), ("seg", segment_name))
        self._route_cache.clear()
        self.version += 1

    @property
    def routers(self) -> dict[str, Router]:
        """Registered routers by name."""
        return dict(self._routers)

    def route(self, src_segment: str, dst_segment: str) -> Route:
        """Shortest path between two segments (cached)."""
        key = (src_segment, dst_segment)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src_segment not in self._segments or dst_segment not in self._segments:
            raise NetworkModelError(
                f"unknown segment in route request: {src_segment!r} -> {dst_segment!r}"
            )
        if src_segment == dst_segment:
            result = Route([self._segments[src_segment]], [])
            self._route_cache[key] = result
            return result
        try:
            path = nx.shortest_path(
                self._graph, ("seg", src_segment), ("seg", dst_segment)
            )
        except nx.NetworkXNoPath:
            raise NetworkModelError(
                f"no route between {src_segment!r} and {dst_segment!r}"
            ) from None
        segments = [self._segments[name] for kind, name in path if kind == "seg"]
        routers = [self._routers[name] for kind, name in path if kind == "rtr"]
        result = Route(segments, routers)
        self._route_cache[key] = result
        return result

    def max_hops(self) -> int:
        """The longest shortest path (in routers) over all segment pairs.

        One BFS per segment instead of one per pair: the graph is bipartite
        (segments alternate with routers), so a segment-to-segment distance
        of ``2h`` edges means ``h`` router hops.  That keeps validation of a
        wide-area hub with a thousand segments at O(K·E) instead of the
        O(K³) a pairwise :meth:`route` sweep costs.
        """
        names = list(self._segments)
        if len(names) < 2:
            return 0
        worst = 0
        for name in names:
            lengths = nx.single_source_shortest_path_length(
                self._graph, ("seg", name)
            )
            reached = 0
            far = 0
            for (kind, other), dist in lengths.items():
                if kind == "seg":
                    reached += 1
                    if dist > far:
                        far = dist
            if reached < len(names):
                missing = next(n for n in names if ("seg", n) not in lengths)
                raise NetworkModelError(
                    f"no route between {name!r} and {missing!r}"
                )
            worst = max(worst, far // 2)
        return worst
