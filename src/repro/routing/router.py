"""Manhattan trace routing from a placement.

The paper's board model (Fig. 11) includes "traces, vias and GND" in the
PEEC model — the connecting structures are field sources too, and their
inductance is one of the parasitics the circuit simulation must carry
("inductances of lines", section 2).

This router produces a deterministic, simple route per net: the pins are
chained along a Euclidean minimum spanning tree and each tree edge becomes
an L-shaped (horizontal-then-vertical) two-segment Manhattan connection.
That is not a production router — it is the placement-dependent *estimate*
the flow needs: route lengths (hence trace inductances) that respond to
component positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import Vec2
from ..obs import get_tracer
from ..placement import Net, PlacementProblem

__all__ = ["TraceSegment", "Route", "ManhattanRouter"]

#: Default trace geometry [m].
DEFAULT_TRACE_WIDTH = 1.5e-3
DEFAULT_COPPER_THICKNESS = 35e-6


@dataclass(frozen=True)
class TraceSegment:
    """One straight copper segment of a route."""

    start: Vec2
    end: Vec2
    width: float = DEFAULT_TRACE_WIDTH

    @property
    def length(self) -> float:
        """Segment length [m]."""
        return self.start.distance_to(self.end)


@dataclass
class Route:
    """All segments of one net's copper."""

    net: str
    segments: list[TraceSegment] = field(default_factory=list)

    def total_length(self) -> float:
        """Total copper length [m]."""
        return sum(s.length for s in self.segments)

    def is_empty(self) -> bool:
        """True when the net had fewer than two placed pins."""
        return not self.segments


class ManhattanRouter:
    """Routes every net of a placed problem with MST + L-bends."""

    def __init__(
        self,
        problem: PlacementProblem,
        trace_width: float = DEFAULT_TRACE_WIDTH,
    ):
        if trace_width <= 0.0:
            raise ValueError("trace width must be positive")
        self.problem = problem
        self.trace_width = trace_width

    def _pin_positions(self, net: Net) -> list[Vec2]:
        out: list[Vec2] = []
        for ref, pad in net.pins:
            comp = self.problem.components.get(ref)
            if comp is None or comp.placement is None:
                continue
            try:
                local = comp.component.pad_position(pad)
            except KeyError:
                local = Vec2.zero()
            out.append(comp.placement.apply(local))
        return out

    @staticmethod
    def _mst_edges(points: list[Vec2]) -> list[tuple[int, int]]:
        """Prim's MST over the pin set (O(n^2), fine for net sizes here)."""
        n = len(points)
        if n < 2:
            return []
        in_tree = [False] * n
        best_dist = [float("inf")] * n
        best_from = [0] * n
        in_tree[0] = True
        for j in range(1, n):
            best_dist[j] = points[0].distance_to(points[j])
        edges: list[tuple[int, int]] = []
        for _ in range(n - 1):
            candidates = [
                (d, j) for j, d in enumerate(best_dist) if not in_tree[j]
            ]
            _, next_node = min(candidates)
            edges.append((best_from[next_node], next_node))
            in_tree[next_node] = True
            for j in range(n):
                if not in_tree[j]:
                    d = points[next_node].distance_to(points[j])
                    if d < best_dist[j]:
                        best_dist[j] = d
                        best_from[j] = next_node
        return edges

    def _l_bend(self, a: Vec2, b: Vec2) -> list[TraceSegment]:
        """Horizontal-then-vertical connection (degenerate legs dropped)."""
        corner = Vec2(b.x, a.y)
        segments = []
        if abs(b.x - a.x) > 1e-9:
            segments.append(TraceSegment(a, corner, self.trace_width))
        if abs(b.y - a.y) > 1e-9:
            segments.append(TraceSegment(corner, b, self.trace_width))
        return segments

    def route_net(self, net: Net) -> Route:
        """Route one net; empty route when fewer than two pins are placed."""
        points = self._pin_positions(net)
        route = Route(net.name)
        for i, j in self._mst_edges(points):
            route.segments.extend(self._l_bend(points[i], points[j]))
        return route

    def route_all(self) -> dict[str, Route]:
        """Route every net of the problem."""
        with get_tracer().span("routing.route_all"):
            return {net.name: self.route_net(net) for net in self.problem.nets}
