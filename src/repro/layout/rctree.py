"""Per-net RC trees.

Builds an electrically annotated routing tree from a net's segments:

* splits segments at T-junctions and pin taps so every electrical node is a
  tree vertex,
* orients every segment driver → sink side (signal flow),
* computes the *upstream resistance* at every node (paper's "entry
  resistance" ``R_l`` is this, evaluated where a line enters a tile),
* counts *downstream sinks* per line (the weight ``W_l`` of Section 4),
* evaluates Elmore sink delays (paper Eq. 8) and delay increments for
  capacitance added at any position on any line (paper Eq. 9).

Units: resistance Ω, capacitance fF, delay ps (Ω·fF = 10⁻³ ps).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import pairwise

from repro.errors import LayoutError
from repro.geometry import Point
from repro.layout.net import Net
from repro.layout.segment import WireSegment
from repro.tech.process import ProcessStack

#: Ω·fF to picoseconds.
OHM_FF_TO_PS = 1e-3


@dataclass(frozen=True)
class LineTiming:
    """Electrical annotation of one oriented active line.

    Attributes:
        segment: the oriented wire segment (start = driver side).
        upstream_res: total resistance from the net driver (including its
            output resistance and any via into this line) to
            ``segment.start``, Ω.
        unit_res: wire resistance per DBU of length, Ω/DBU.
        downstream_sinks: number of sink pins whose driver→sink path passes
            through this line (the weight ``W_l``).
        via_res: lumped via resistance charged where the routing changed
            layer onto this line (already folded into ``upstream_res``;
            kept separately for Elmore edge accounting), Ω.
    """

    segment: WireSegment
    upstream_res: float
    unit_res: float
    downstream_sinks: int
    via_res: float = 0.0

    def resistance_at(self, axis_coord: int) -> float:
        """Total upstream resistance at the point of this line whose
        routing-axis coordinate is ``axis_coord`` (paper's
        ``R_l + Σ r_l`` term), Ω."""
        return self.upstream_res + self.unit_res * self.segment.distance_from_start(axis_coord)


def _on_interior(seg: WireSegment, p: Point) -> bool:
    """True when ``p`` lies strictly inside the centerline of ``seg``."""
    if seg.is_horizontal:
        return p.y == seg.start.y and min(seg.start.x, seg.end.x) < p.x < max(seg.start.x, seg.end.x)
    return p.x == seg.start.x and min(seg.start.y, seg.end.y) < p.y < max(seg.start.y, seg.end.y)


class RCTree:
    """Oriented, electrically annotated routing tree of one net.

    Build with :meth:`RCTree.build`; the input net's segments may be in any
    orientation — the tree re-orients them by tracing signal flow from the
    driver pin.
    """

    def __init__(
        self,
        net: Net,
        lines: list[LineTiming],
        node_points: list[Point],
        parent: list[int],
        parent_line: list[int],
        node_cap: list[float],
        upstream_res: list[float],
        sink_nodes: dict[str, int],
    ):
        self.net = net
        self.lines = lines
        self._points = node_points
        self._parent = parent
        self._parent_line = parent_line
        self._node_cap = node_cap
        self._upstream_res = upstream_res
        self._sink_nodes = sink_nodes

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(net: Net, stack: ProcessStack) -> "RCTree":
        """Construct the RC tree of ``net`` against process ``stack``.

        Raises :class:`LayoutError` when the routing is not a connected
        tree over all pins (cycle, disconnect, pin off-wire).
        """
        if not net.segments:
            raise LayoutError(f"net {net.name}: no routing segments")
        driver = net.driver  # validates single driver
        pieces = RCTree._split_segments(net)

        # Node table over all endpoints.
        node_index: dict[Point, int] = {}

        def node_of(p: Point) -> int:
            if p not in node_index:
                node_index[p] = len(node_index)
            return node_index[p]

        adjacency: dict[int, list[tuple[int, WireSegment]]] = defaultdict(list)
        for seg in pieces:
            u, v = node_of(seg.start), node_of(seg.end)
            adjacency[u].append((v, seg))
            adjacency[v].append((u, seg))

        for pin in net.pins:
            if pin.point not in node_index:
                raise LayoutError(
                    f"net {net.name}: pin {pin.name} at {pin.point} is not on the routing"
                )

        # BFS from the driver: orientation, parents, cycle/disconnect checks.
        n = len(node_index)
        root = node_index[driver.point]
        parent = [-1] * n
        parent_seg: list[WireSegment | None] = [None] * n
        order: list[int] = [root]
        visited = [False] * n
        visited[root] = True
        queue: deque[int] = deque([root])
        edge_count = 0
        while queue:
            u = queue.popleft()
            for v, seg in adjacency[u]:
                if visited[v]:
                    continue
                visited[v] = True
                parent[v] = u
                parent_seg[v] = seg
                order.append(v)
                queue.append(v)
                edge_count += 1
        if not all(visited):
            raise LayoutError(f"net {net.name}: routing is disconnected")
        if edge_count != len(pieces):
            raise LayoutError(f"net {net.name}: routing contains a cycle")

        # Node capacitances: half of each wire's ground cap at each end,
        # plus sink load caps.
        points_by_id = [None] * n
        for p, i in node_index.items():
            points_by_id[i] = p
        node_cap = [0.0] * n
        unit_res_of: dict[int, float] = {}
        via_res_of: dict[int, float] = {}
        arrival_layer: dict[int, str] = {root: driver.layer}
        dbu = stack.dbu_per_micron
        oriented_lines: list[WireSegment] = []
        line_of_node: list[int] = [-1] * n  # line index whose end is this node
        for v in order[1:]:
            seg = parent_seg[v]
            assert seg is not None
            u = parent[v]
            start, end = points_by_id[u], points_by_id[v]
            oriented = WireSegment(seg.net, len(oriented_lines), seg.layer, start, end, seg.width)
            layer = stack.layer(seg.layer)
            length_um = oriented.length / dbu
            wire_cap = layer.ground_cap_ff_per_um * length_um
            node_cap[u] += wire_cap / 2.0
            node_cap[v] += wire_cap / 2.0
            unit_res_of[oriented.index] = layer.unit_resistance(seg.width, dbu) / dbu
            # A layer change at the entry node costs one via.
            via_res_of[oriented.index] = (
                stack.via_res_ohm if seg.layer != arrival_layer[u] else 0.0
            )
            arrival_layer[v] = seg.layer
            line_of_node[v] = oriented.index
            oriented_lines.append(oriented)

        sink_nodes: dict[str, int] = {}
        for pin in net.sinks:
            node_cap[node_index[pin.point]] += pin.load_cap_ff
            sink_nodes[pin.name] = node_index[pin.point]

        # Downstream sink counts per node (post-order accumulate).
        sink_count = [0] * n
        for node in sink_nodes.values():
            sink_count[node] += 1
        for v in reversed(order[1:]):
            sink_count[parent[v]] += sink_count[v]

        # Upstream resistance per node (pre-order), root carries driver res.
        upstream = [0.0] * n
        upstream[root] = driver.driver_res_ohm
        for v in order[1:]:
            seg = oriented_lines[line_of_node[v]]
            upstream[v] = (
                upstream[parent[v]]
                + via_res_of[seg.index]
                + unit_res_of[seg.index] * seg.length
            )

        lines = [
            LineTiming(
                segment=seg,
                upstream_res=upstream[node_index[seg.start]] + via_res_of[seg.index],
                unit_res=unit_res_of[seg.index],
                downstream_sinks=sink_count[node_index[seg.end]],
                via_res=via_res_of[seg.index],
            )
            for seg in oriented_lines
        ]
        parent_line_arr = [line_of_node[v] for v in range(n)]
        return RCTree(
            net=net,
            lines=lines,
            node_points=points_by_id,
            parent=parent,
            parent_line=parent_line_arr,
            node_cap=node_cap,
            upstream_res=upstream,
            sink_nodes=sink_nodes,
        )

    @staticmethod
    def _split_segments(net: Net) -> list[WireSegment]:
        """Split raw segments at T-junctions and interior pin taps so every
        electrical node is a segment endpoint."""
        breakpoints: set[Point] = set()
        for seg in net.segments:
            breakpoints.add(seg.start)
            breakpoints.add(seg.end)
        for pin in net.pins:
            breakpoints.add(pin.point)

        pieces: list[WireSegment] = []
        counter = 0
        for seg in net.segments:
            interior = sorted(
                (p for p in breakpoints if _on_interior(seg, p)),
                key=lambda p: seg.distance_from_start(p.x if seg.is_horizontal else p.y),
            )
            chain = [seg.start, *interior, seg.end]
            for a, b in pairwise(chain):
                pieces.append(WireSegment(seg.net, counter, seg.layer, a, b, seg.width))
                counter += 1
        return pieces

    # -- queries ------------------------------------------------------------

    @property
    def sink_names(self) -> list[str]:
        """Sink pin names in declaration order."""
        return [p.name for p in self.net.sinks]

    @property
    def total_sinks(self) -> int:
        """Number of sink pins."""
        return len(self._sink_nodes)

    def line(self, index: int) -> LineTiming:
        """Line annotation by line index."""
        return self.lines[index]

    def elmore_delays(self) -> dict[str, float]:
        """Elmore delay (ps) at every sink, paper Eq. 8.

        τ(sink) = Σ_v C_v · R(common upstream path of v and sink), computed
        edge-wise: each line contributes R_line · C(subtree below it) to all
        sinks below it.
        """
        n = len(self._points)
        # Subtree capacitance below each node.
        subtree_cap = list(self._node_cap)
        order = self._topological_order()
        for v in reversed(order[1:]):
            subtree_cap[self._parent[v]] += subtree_cap[v]
        # Delay accumulates down the tree: tau(v) = tau(parent) + R_edge * C_subtree(v)
        # plus the driver resistance charging everything.
        tau = [0.0] * n
        root = order[0]
        driver_res = self._upstream_res[root]
        tau[root] = driver_res * subtree_cap[root]
        for v in order[1:]:
            line = self.lines[self._parent_line[v]]
            r_edge = line.via_res + line.unit_res * line.segment.length
            tau[v] = tau[self._parent[v]] + r_edge * subtree_cap[v]
        return {
            name: tau[node] * OHM_FF_TO_PS for name, node in self._sink_nodes.items()
        }

    def delay_increment(self, line_index: int, axis_coord: int, added_cap_ff: float) -> float:
        """Elmore delay increment (ps) at *each* downstream sink when
        ``added_cap_ff`` is attached to line ``line_index`` at routing-axis
        coordinate ``axis_coord`` (paper Eq. 9)."""
        line = self.lines[line_index]
        return line.resistance_at(axis_coord) * added_cap_ff * OHM_FF_TO_PS

    def weighted_delay_increment(self, line_index: int, axis_coord: int, added_cap_ff: float) -> float:
        """Total sink-delay increment (ps) summed over downstream sinks —
        the weighted objective contribution of Section 4."""
        line = self.lines[line_index]
        return line.downstream_sinks * self.delay_increment(line_index, axis_coord, added_cap_ff)

    def _topological_order(self) -> list[int]:
        """Nodes in BFS order from the root (parents before children)."""
        n = len(self._points)
        children: dict[int, list[int]] = defaultdict(list)
        root = -1
        for v in range(n):
            if self._parent[v] == -1:
                root = v
            else:
                children[self._parent[v]].append(v)
        order = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in children[u]:
                order.append(v)
                queue.append(v)
        return order
