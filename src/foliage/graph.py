"""Weighted directed leaf-space graphs and the Calabi transitivity test.

Vertices stand for singular compact leaves (Zero), noncompact components
(Special) or bookkeeping points on vertex-free circles (Marker).  Edges are
maximal families of compact regular leaves, oriented by increasing level,
with strictly positive symbolic weights, each signed once as it is added.
Zeros bordering a noncompact component are recorded as attachments; passage
through such a saddle is free inside the component in either direction, so
each attachment acts as a pair of opposite reachability arcs.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple, Optional

from . import scalar as sc


class GraphError(sc.FoliageError):
    pass


ZERO = "Zero"
SPECIAL = "Special"
MARKER = "Marker"

_KINDS = (ZERO, SPECIAL, MARKER)


class Vertex(namedtuple("Vertex", "vid kind ref")):
    __slots__ = ()

    def __new__(cls, vid: int, kind: str, ref: Optional[str] = None):  # zero id or component id
        if kind not in _KINDS:
            raise GraphError(f"unknown vertex kind {kind!r}")
        return tuple.__new__(cls, (vid, kind, ref))


class Edge(NamedTuple):
    eid: int
    src: int
    dst: int
    weight: sc.SymScalar
    family: str
    side: Optional[str] = None
    span: Optional[tuple[sc.SymScalar, sc.SymScalar]] = None


class Attachment(NamedTuple):
    zero_vertex: int
    special_vertex: int


class FoliationGraph:
    def __init__(self):
        self.vertices: dict[int, Vertex] = {}
        self.edges: dict[int, Edge] = {}
        self.attachments: list[Attachment] = []
        # the edge ids of each family, ascending, and the positions in
        # attachments of each special vertex's attachments
        self._family_edges: dict[str, list[int]] = {}
        self._attached_at: dict[int, list[int]] = {}
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
        self._put_edge(e)
        return e.eid

    def _put_edge(self, e: Edge) -> None:
        self.edges[e.eid] = e
        self._family_edges.setdefault(e.family, []).append(e.eid)
        self._next_eid += 1

    def attach(self, zero_vertex: int, special_vertex: int) -> None:
        self._check_attachment(zero_vertex, special_vertex)
        self._add_attachment(Attachment(zero_vertex, special_vertex))

    def _add_attachment(self, a: Attachment) -> None:
        self._attached_at.setdefault(a.special_vertex, []).append(len(self.attachments))
        self.attachments.append(a)

    def _check_attachment(self, zero_vertex: int, special_vertex: int) -> None:
        if self.vertices[zero_vertex].kind != ZERO:
            raise GraphError("attachments start at zero vertices")
        if self.vertices[special_vertex].kind != SPECIAL:
            raise GraphError("attachments end at special vertices")

    def absorb(self, other: "FoliationGraph") -> tuple[dict[int, int], dict[int, int]]:
        """Copy another graph in, renumbered in sorted-id order after this
        graph's items; returns the vertex and the edge id maps.

        Records whose ids do not move are shared, not rebuilt.  Attachment
        kinds are checked as attach() checks them; edge weights are not
        re-signed, since add_edge() signed each one as it entered a graph.
        """
        vmap: dict[int, int] = {}
        for vid in sorted(other.vertices):
            v = other.vertices[vid]
            new = vmap[vid] = self._next_vid
            self.vertices[new] = v if new == vid else Vertex(new, v.kind, v.ref)
            self._next_vid += 1
        emap: dict[int, int] = {}
        for eid in sorted(other.edges):
            e = other.edges[eid]
            new = emap[eid] = self._next_eid
            src, dst = vmap.get(e.src), vmap.get(e.dst)
            if src is None or dst is None:
                raise GraphError("edge endpoints must exist")
            if (new, src, dst) != (eid, e.src, e.dst):
                e = Edge(new, src, dst, e.weight, e.family, e.side, e.span)
            self._put_edge(e)
        for a in other.attachments:
            zv, sv = vmap[a.zero_vertex], vmap[a.special_vertex]
            self._check_attachment(zv, sv)
            if (zv, sv) != (a.zero_vertex, a.special_vertex):
                a = Attachment(zv, sv)
            self._add_attachment(a)
        return vmap, emap

    def remove_edge(self, eid: int) -> Edge:
        e = self.edges.pop(eid)
        same = self._family_edges[e.family]
        same.remove(eid)
        if not same:
            del self._family_edges[e.family]
        return e

    def merge_special(self, dead: int, keep: int) -> None:
        """Move the attachments of special vertex dead onto keep, each in its
        place in the list, and remove dead; touches only dead's attachments."""
        moved = self._attached_at.pop(dead, [])
        for i in moved:
            self.attachments[i] = Attachment(self.attachments[i].zero_vertex, keep)
        self._attached_at.setdefault(keep, []).extend(moved)
        self.remove_vertex(dead)

    def remove_vertex(self, vid: int) -> None:
        if self.has_edges_at(vid):
            raise GraphError("cannot remove a vertex with incident edges")
        del self.vertices[vid]

    # -- queries -----------------------------------------------------------

    def family_edge(self, family: str) -> Optional[int]:
        """The least edge id of a family, or None."""
        same = self._family_edges.get(family)
        return same[0] if same else None

    def arcs(self) -> list[tuple[int, int]]:
        """Directed reachability arcs: edges plus both passages of each
        attachment."""
        out = [(e.src, e.dst) for e in self.edges.values()]
        for a in self.attachments:
            out.append((a.zero_vertex, a.special_vertex))
            out.append((a.special_vertex, a.zero_vertex))
        return out

    def has_edges_at(self, vid: int) -> bool:
        return any(vid in (e.src, e.dst) for e in self.edges.values())

    def underlying_connected(self) -> bool:
        if not self.vertices:
            return False
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for s, d in self.arcs():
            adj[s].append(d)
            adj[d].append(s)
        return _reaches_all(adj, next(iter(adj)))

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


# -- reachability ------------------------------------------------------------------


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


def _reaches_all(adj: dict[int, list[int]], start: int) -> bool:
    """Whether a walk along adj from start meets every key of adj."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def is_calabi(graph: FoliationGraph) -> bool:
    """Every ordered vertex pair is joined by a positively oriented walk.

    Special vertices need no care beyond being traversable nodes: their
    attachments already encode that a saddle bordering a noncompact component
    can be passed in either sense inside it.  A graph that one vertex reaches
    entirely is connected, so connectivity is decided only when a reach fails.
    """
    if not graph.vertices:
        raise GraphError("empty graph")
    succ: dict[int, list[int]] = {v: [] for v in graph.vertices}
    pred: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for s, d in graph.arcs():
        succ[s].append(d)
        pred[d].append(s)
    v0 = min(graph.vertices)
    if not _reaches_all(succ, v0):
        if not graph.underlying_connected():
            raise GraphError("graph must be connected")
        return False
    return _reaches_all(pred, v0)


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
    succ: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for s, d in graph.arcs():
        succ[s].add(d)
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


class FactorizationWitness(NamedTuple):
    cocycle: tuple[tuple[int, sc.SymScalar], ...]  # edge id -> oriented weight
    checks: tuple[tuple[str, sc.SymScalar, sc.SymScalar], ...]
    free_rank: int

    def sound(self) -> bool:
        return all(p == w for _, p, w in self.checks)


def factorization_witness(model) -> Optional[FactorizationWitness]:
    """When every leaf is compact, the period homomorphism factors through the
    graph: each generator loop projects to a walk whose signed weight sum is
    exactly its period.  Returns None as soon as a noncompact leaf exists.
    A check pairs a period, a whole number of circumferences, with as many
    laps of its side's circuit; they agree when the circuit spans the circle.
    """
    if not model.all_leaves_compact():
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
            laps = period.ratio_to(side.circumference)
            if laps is None or laps.denominator != 1:
                raise GraphError(f"generator {gen_id} does not project to a closed walk")
            checks.append((f"{side.side_id}.{gen_id}", period, circuit_weight * laps))
    return FactorizationWitness(
        cocycle=tuple((eid, graph.edges[eid].weight) for eid in sorted(graph.edges)),
        checks=tuple(checks),
        free_rank=len(graph.edges) - len(graph.vertices) + 1,
    )


def _circuit_weight(graph: FoliationGraph, side) -> sc.SymScalar:
    """Total weight around the side's leaf-space circle: its circuit edges,
    each in the graph, and each ending where the next one starts, cyclically."""
    if not side.circuit_edges or any(eid not in graph.edges for eid in side.circuit_edges):
        raise GraphError(f"side {side.side_id}: circuit edges missing from graph")
    edges = [graph.edges[eid] for eid in side.circuit_edges]
    if any(e.dst != after.src for e, after in zip(edges, edges[1:] + edges[:1])):
        raise GraphError(f"side {side.side_id}: consecutive circuit edges do not meet")
    return sum((e.weight for e in edges[1:]), edges[0].weight)
