"""Weighted directed leaf-space graphs and the Calabi transitivity test.

Vertices stand for singular compact leaves (Zero), extremal zeros (Terminal),
noncompact components (Special) or bookkeeping points on vertex-free circles
(Marker).  Edges are maximal families of compact regular leaves, oriented by
increasing level, with strictly positive symbolic weights.  Zeros bordering a
noncompact component are recorded as attachments; passage through such a
saddle is free inside the component, so attachments act as reachability arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import scalar as sc


class GraphError(sc.FoliageError):
    pass


ZERO = "Zero"
TERMINAL = "Terminal"
SPECIAL = "Special"
MARKER = "Marker"

_KINDS = (ZERO, TERMINAL, SPECIAL, MARKER)


@dataclass(frozen=True)
class Vertex:
    vid: int
    kind: str
    ref: Optional[str] = None  # zero id or component id

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GraphError(f"unknown vertex kind {self.kind!r}")


@dataclass(frozen=True)
class Edge:
    eid: int
    src: int
    dst: int
    weight: sc.SymScalar
    family: str
    side: Optional[str] = None
    span: Optional[tuple[sc.SymScalar, sc.SymScalar]] = None


@dataclass(frozen=True)
class Attachment:
    zero_vertex: int
    special_vertex: int
    mode: str  # "up" (zero -> special), "down" (special -> zero), "both"

    def __post_init__(self):
        if self.mode not in ("up", "down", "both"):
            raise GraphError(f"unknown attachment mode {self.mode!r}")


class FoliationGraph:
    def __init__(self):
        self.vertices: dict[int, Vertex] = {}
        self.edges: dict[int, Edge] = {}
        self.attachments: list[Attachment] = []
        self._next_vid = 0
        self._next_eid = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, kind: str, ref: Optional[str] = None) -> int:
        v = Vertex(self._next_vid, kind, ref)
        self.vertices[v.vid] = v
        self._next_vid += 1
        return v.vid

    def add_edge(self, src: int, dst: int, weight: sc.SymScalar, family: str,
                 side: Optional[str] = None, span=None) -> int:
        if src not in self.vertices or dst not in self.vertices:
            raise GraphError("edge endpoints must exist")
        if sc.sign(weight) <= 0:
            raise GraphError(f"edge weights must be strictly positive (family {family})")
        e = Edge(self._next_eid, src, dst, weight, family, side, span)
        self.edges[e.eid] = e
        self._next_eid += 1
        return e.eid

    def attach(self, zero_vertex: int, special_vertex: int, mode: str = "both") -> None:
        if self.vertices[zero_vertex].kind not in (ZERO, TERMINAL):
            raise GraphError("attachments start at zero vertices")
        if self.vertices[special_vertex].kind != SPECIAL:
            raise GraphError("attachments end at special vertices")
        self.attachments.append(Attachment(zero_vertex, special_vertex, mode))

    def remove_edge(self, eid: int) -> Edge:
        return self.edges.pop(eid)

    def remove_vertex(self, vid: int) -> None:
        if any(e.src == vid or e.dst == vid for e in self.edges.values()):
            raise GraphError("cannot remove a vertex with incident edges")
        del self.vertices[vid]

    # -- queries -----------------------------------------------------------

    def arcs(self) -> list[tuple[int, int]]:
        """Directed reachability arcs: edges plus attachment passages."""
        out = [(e.src, e.dst) for e in self.edges.values()]
        for a in self.attachments:
            if a.mode in ("up", "both"):
                out.append((a.zero_vertex, a.special_vertex))
            if a.mode in ("down", "both"):
                out.append((a.special_vertex, a.zero_vertex))
        return out

    def degree(self, vid: int) -> int:
        d = sum((e.src == vid) + (e.dst == vid) for e in self.edges.values())
        d += sum(
            (a.zero_vertex == vid) + (a.special_vertex == vid) for a in self.attachments
        )
        return d

    def underlying_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for s, d in self.arcs():
            adj[s].add(d)
            adj[d].add(s)
        seen = set()
        stack = [next(iter(self.vertices))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return seen == set(self.vertices)

    def validate(self) -> None:
        for e in self.edges.values():
            if sc.sign(e.weight) <= 0:
                raise GraphError(f"edge {e.eid} has nonpositive weight")
        for v in self.vertices.values():
            if v.kind == TERMINAL and self.degree(v.vid) != 1:
                raise GraphError(f"terminal vertex v{v.vid} must be univalent")

    # -- export --------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph foliation {"]
        for vid in sorted(self.vertices):
            lines.append(f'v{vid} [kind="{self.vertices[vid].kind}"];')
        for eid in sorted(self.edges):
            e = self.edges[eid]
            lines.append(f'v{e.src} -> v{e.dst} [label="{e.weight.render()}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def edge_weight(graph: FoliationGraph, eid: int) -> sc.SymScalar:
    return graph.edges[eid].weight


# -- reachability ------------------------------------------------------------------


def _successors(graph: FoliationGraph) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for s, d in graph.arcs():
        succ[s].add(d)
    return succ


def _reachable(succ: dict[int, set[int]], start: int) -> set[int]:
    """Vertices reachable from start by a nonempty positive walk."""
    seen: set[int] = set()
    stack = list(succ[start])
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(succ[v] - seen)
    return seen


def is_calabi(graph: FoliationGraph) -> bool:
    """Every ordered vertex pair is joined by a positively oriented walk.

    Special vertices need no care beyond being traversable nodes: their
    attachments already encode that a saddle bordering a noncompact component
    can be passed in either sense inside it.
    """
    if not graph.vertices:
        raise GraphError("empty graph")
    if not graph.underlying_connected():
        raise GraphError("graph must be connected")
    succ = _successors(graph)
    verts = set(graph.vertices)
    v0 = next(iter(sorted(verts)))
    if not (_reachable(succ, v0) | {v0}) >= verts:
        return False
    pred: dict[int, set[int]] = {v: set() for v in verts}
    for s, targets in succ.items():
        for d in targets:
            pred[d].add(s)
    return (_reachable(pred, v0) | {v0}) >= verts


def calabi_equiv_bruteforce(graph: FoliationGraph) -> tuple[bool, bool]:
    """Brute-force the two defining conditions of a Calabi graph.

    cond1: for every ordered pair of distinct vertices a positive walk exists;
    cond2: every point of the graph lies on a nonempty positive closed walk,
    i.e. every vertex and every edge (edge interiors are points too; the
    vertex-only reading is strictly weaker: two cycles joined by a one-way
    bridge satisfy it without being transitive).
    """
    if len(graph.vertices) > 12:
        raise GraphError("brute-force check is limited to 12 vertices")
    succ = _successors(graph)
    verts = sorted(graph.vertices)
    reach = {v: _reachable(succ, v) for v in verts}
    cond1 = all(y in reach[x] for x in verts for y in verts if x != y)
    cond2 = all(x in reach[x] for x in verts) and all(
        e.src in reach[e.dst] or e.src == e.dst for e in graph.edges.values()
    )
    return cond1, cond2


def digraph_from_arcs(n: int, arcs: Iterable[tuple[int, int]],
                      table: Optional[sc.SymbolTable] = None) -> FoliationGraph:
    """Wrap a plain digraph as a unit-weight graph (for property tests)."""
    table = table or sc.SymbolTable()
    one = table.rational(1)
    g = FoliationGraph()
    for _ in range(n):
        g.add_vertex(MARKER)
    for i, (s, d) in enumerate(arcs):
        g.add_edge(s, d, one, family=f"arc{i}")
    return g


# -- factorization through the graph -------------------------------------------------


@dataclass(frozen=True)
class FactorizationWitness:
    graph: FoliationGraph
    cocycle: tuple[tuple[int, sc.SymScalar], ...]  # edge id -> oriented weight
    checks: tuple[tuple[str, sc.SymScalar, sc.SymScalar], ...]
    free_rank: int

    def sound(self) -> bool:
        return all(p == w for _, p, w in self.checks)


def factorization_witness(model) -> Optional[FactorizationWitness]:
    """When every leaf is compact, the period homomorphism factors through the
    graph: each generator loop projects to a walk whose signed weight sum is
    exactly its period.  Returns None as soon as a noncompact leaf exists.
    """
    if any(not leaf.compact for leaf in model.catalog):
        return None
    graph = model.graph
    checks = []
    for side in model.sides:
        if side.kind == "tube":
            continue
        circuit_weight = None
        witness_gens = set(side.witness_gens)
        for gen_id, period in side.generators:
            if gen_id not in witness_gens:
                continue  # the loop does not descend to the reduced foliation
            if side.circumference is None:
                raise GraphError("compact catalog with a dense side is inconsistent")
            if circuit_weight is None:
                circuit_weight = _circuit_weight(graph, side)
            laps = period.ratio_to(circuit_weight)
            if laps is None or laps.denominator != 1:
                raise GraphError(f"generator {gen_id} does not project to a closed walk")
            checks.append((f"{side.side_id}.{gen_id}", period, circuit_weight * laps))
    edge_count = len(graph.edges)
    vertex_count = len(graph.vertices)
    witness = FactorizationWitness(
        graph=graph,
        cocycle=tuple((eid, graph.edges[eid].weight) for eid in sorted(graph.edges)),
        checks=tuple(checks),
        free_rank=edge_count - vertex_count + 1,
    )
    return witness


def _circuit_weight(graph: FoliationGraph, side) -> sc.SymScalar:
    """Total weight around the side's leaf-space circle in the current graph."""
    eids = [eid for eid in side.circuit_edges if eid in graph.edges]
    if not eids:
        raise GraphError(f"side {side.side_id}: circuit edges missing from graph")
    total = graph.edges[eids[0]].weight.table.zero()
    for eid in eids:
        total = total + graph.edges[eid].weight
    return total
