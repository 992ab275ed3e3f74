"""Foliation models and tube surgeries on them.

A model bundles a form (None once surgered), the leaf catalog, the leaf graph
and the compact/noncompact decomposition.  Tube surgeries join two models
along disks and act purely on this combinatorial data: each surgery
introduces two index-1 zeros whose levels determine the rewiring:

  A: levels inside the overlap of the two disk windows, lower < upper; the
     leaf material between the levels fuses across the tube;
  B: disjoint windows, first level above the second; a chain of new compact
     leaf families spans the gap, pinched off at both ends;
  C: both zeros at one level; the tube contributes a single compact singular
     component and the two sides keep their regions.

The tube geometry itself is never integrated; levels carry all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from . import scalar as sc
from .forms import ClosedForm, NotBasicError, Zero, g_path_integral
from .graph import (
    MARKER,
    SPECIAL,
    ZERO,
    FoliationGraph,
    is_calabi,
)
from .leaves import (
    COMPACT_REGULAR,
    COMPACT_SINGULAR,
    NONCOMPACT_REGULAR,
    NONCOMPACT_SINGULAR,
    Decomposition,
    LeafClass,
    decompose,
    linear_structure,
)


class ModelError(sc.FoliageError):
    pass


class UnsupportedSurgery(ModelError):
    """A disk/tube configuration outside the combinatorial rules we encode."""


@dataclass(frozen=True)
class Side:
    """One input surface of a model, with its leaf-space circle bookkeeping."""

    side_id: str
    kind: str  # "circle" | "dense" | "tube"
    generators: tuple[tuple[str, sc.SymScalar], ...]
    circumference: Optional[sc.SymScalar]  # None for dense and tube sides
    circuit_edges: tuple[int, ...] = ()
    # generators whose loops descend honestly to the reduced foliation; under
    # a declared-basic override the non-invariant ones drop out here
    witness_gens: tuple[str, ...] = ()

    def with_circuit(self, edges) -> "Side":
        edges = tuple(edges)
        return self if edges == self.circuit_edges else replace(self, circuit_edges=edges)


class FoliationModel:
    """Immutable bundle of form, catalog, graph and decomposition.

    A surgered model has no form (None) but its surgery spec, from which
    genericize rebuilds it; its verdicts read only the graph, levels and
    periods.  The constructor takes ownership of its arguments.
    """

    def __init__(
        self,
        name: str,
        form: Optional[ClosedForm],
        table: sc.SymbolTable,
        sides: list[Side],
        graph: FoliationGraph,
        zeros: list[Zero],
        x_inf_gens: dict[str, list[tuple[str, sc.SymScalar]]],
        special_vertices: dict[str, int],
        singular_entries: list[LeafClass],
        notes: list[str],
        is_generic: bool,
        spec: Optional["SurgerySpec"] = None,
    ):
        self.name = name
        self.form = form
        self.table = table
        self.sides = sides
        self.graph = graph
        self.zeros = zeros
        self.x_inf_gens = x_inf_gens
        self.special_vertices = special_vertices
        self.singular_entries = singular_entries
        self.notes = notes
        self.is_generic = is_generic
        self.spec = spec
        self.catalog = self._build_catalog()
        self.decomposition: Decomposition = decompose(self)
        graph.validate()
        if graph.vertices and not graph.underlying_connected():
            raise ModelError("model graph is disconnected")

    def _build_catalog(self) -> list[LeafClass]:
        entries = []
        for eid in sorted(self.graph.edges):
            e = self.graph.edges[eid]
            rep = None
            if e.span is not None:
                rep = f"levels ({e.span[0].render()}, {e.span[1].render()}) on {e.side}"
            entries.append(
                LeafClass(leaf_id=e.family, kind=COMPACT_REGULAR, representative=rep,
                          family=e.family)
            )
        for comp in sorted(self.x_inf_gens):
            entries.append(
                LeafClass(
                    leaf_id=comp,
                    kind=NONCOMPACT_REGULAR,
                    representative=f"noncompact component {comp}",
                    family=comp,
                    component_ref=comp,
                )
            )
        entries.extend(self.singular_entries)
        return entries

    # -- convenience -------------------------------------------------------

    def side(self, side_id: str) -> Side:
        for s in self.sides:
            if s.side_id == side_id:
                return s
        raise ModelError(f"unknown side {side_id!r}")

    def generator_periods(self) -> list[sc.SymScalar]:
        return [p for s in self.sides for _, p in s.generators]

    def all_leaves_compact(self) -> bool:
        return all(leaf.compact for leaf in self.catalog)

    def singular_levels(self) -> list[tuple[str, sc.SymScalar]]:
        return [(z.zero_id, z.level) for z in sorted(self.zeros, key=lambda z: z.zero_id)]


# -- virgin models ---------------------------------------------------------------


def analyze(form: ClosedForm, name: str) -> FoliationModel:
    """Build the model of a zero-free linear (+ bumps) form on its orbifold."""
    notes = []
    structure = linear_structure(form)
    if structure.reduced:
        if not form.basic_override:
            raise NotBasicError(
                f"{name}: form is not invariant under the action and no override is declared"
            )
        kept = ",".join(str(i) for i in structure.invariant_elements)
        notes.append(
            f"{name}: invariance check FAILED; proceeding under the declared-basic "
            f"override, foliation data computed on the invariant subgroup [{kept}]"
        )
    generators = form.orbifold.generators
    gens = tuple((g.gen_id, g_path_integral(form, g.loop)) for g in generators)
    kept = set(structure.invariant_elements)
    witness_gens = tuple(g.gen_id for g in generators if g.arrow_index in kept)
    graph = FoliationGraph()
    x_inf: dict[str, list] = {}
    specials: dict[str, int] = {}
    if structure.compact:
        marker = graph.add_vertex(MARKER)
        eid = graph.add_edge(
            marker,
            marker,
            structure.circumference,
            family=f"{name}.f0",
            side=name,
            span=(form.table.zero(), structure.circumference),
        )
        side = Side(name, "circle", gens, structure.circumference, (eid,), witness_gens)
    else:
        comp = f"{name}.inf"
        specials[comp] = graph.add_vertex(SPECIAL, ref=comp)
        x_inf[comp] = list(gens)
        side = Side(name, "dense", gens, None, (), witness_gens)
    return FoliationModel(
        name=name,
        form=form,
        table=form.table,
        sides=[side],
        graph=graph,
        zeros=[],
        x_inf_gens=x_inf,
        special_vertices=specials,
        singular_entries=[],
        notes=notes,
        is_generic=True,
    )


# -- surgery specs -----------------------------------------------------------------


@dataclass(frozen=True)
class SurgerySpec:
    kind: str  # "A" | "B" | "C"
    left: FoliationModel
    right: FoliationModel
    left_window: tuple[sc.SymScalar, sc.SymScalar]
    right_window: tuple[sc.SymScalar, sc.SymScalar]
    tube_levels: tuple[sc.SymScalar, sc.SymScalar]
    left_region: str = "auto"
    right_region: str = "auto"
    name: str = "sum"

    def __post_init__(self):
        if self.kind not in ("A", "B", "C"):
            raise ModelError(f"unknown surgery kind {self.kind!r}")


@dataclass
class _Site:
    """A resolved disk placement: an edge of a compact family or a noncompact
    component, with the declared window and bookkeeping filled in on the way."""

    role: str  # "left" | "right"
    kind: str  # "edge" | "special"
    side_id: str
    window: tuple[sc.SymScalar, sc.SymScalar]
    edge_id: Optional[int] = None
    component: Optional[str] = None
    shift: Optional[sc.SymScalar] = None  # modulus multiple placing levels in the span


class _Workspace:
    """Mutable merge of the two input models while a surgery is applied."""

    def __init__(self, spec: SurgerySpec):
        left, right = spec.left, spec.right
        if left.table is not right.table:
            raise ModelError("surgery inputs must share one symbol table")
        if left.name == right.name:
            raise ModelError("surgery inputs need distinct model names")
        self.spec = spec
        self.table = left.table
        self.graph = FoliationGraph()
        self.sides: list[Side] = []
        self.zeros: list[Zero] = []
        self.x_inf_gens: dict[str, list] = {}
        self.special_vertices: dict[str, int] = {}
        self.singular_entries: list[LeafClass] = []
        self.notes: list[str] = []
        self.edge_map: dict[tuple[str, int], int] = {}
        for role, model in (("left", left), ("right", right)):
            vmap: dict[int, int] = {}
            for vid in sorted(model.graph.vertices):
                v = model.graph.vertices[vid]
                vmap[vid] = self.graph.add_vertex(v.kind, v.ref)
            for eid in sorted(model.graph.edges):
                e = model.graph.edges[eid]
                self.edge_map[(role, eid)] = self.graph.add_edge(
                    vmap[e.src], vmap[e.dst], e.weight, e.family, e.side, e.span
                )
            for a in model.graph.attachments:
                self.graph.attach(vmap[a.zero_vertex], vmap[a.special_vertex], a.mode)
            for s in model.sides:
                circuit = tuple(self.edge_map[(role, eid)] for eid in s.circuit_edges)
                self.sides.append(s.with_circuit(circuit))
            self.zeros.extend(model.zeros)
            for comp, gens in model.x_inf_gens.items():
                self.x_inf_gens[comp] = list(gens)
            for comp, vid in model.special_vertices.items():
                self.special_vertices[comp] = vmap[vid]
            self.singular_entries.extend(model.singular_entries)
            self.notes.extend(model.notes)
        names = [s.side_id for s in self.sides]
        if len(set(names)) != len(names):
            raise ModelError("side names collide between the two inputs")
        if spec.name in names:
            raise ModelError(f"surgery name {spec.name!r} collides with an existing side")

    side = FoliationModel.side  # the same lookup, over the workspace's sides

    def replace_side(self, side: Side) -> None:
        self.sides = [side if s.side_id == side.side_id else s for s in self.sides]

    def merge_components(self, comps: list[str], extra_gens: list) -> str:
        """Fuse noncompact components into one; the smallest id survives."""
        target = sorted(set(comps))[0]
        gens = []
        for c in sorted(set(comps)):
            gens.extend(self.x_inf_gens.pop(c))
        gens.extend(extra_gens)
        self.x_inf_gens[target] = gens
        keep_vid = self.special_vertices[target]
        absorbed = set(comps) - {target}
        for c in sorted(absorbed):
            dead = self.special_vertices.pop(c)
            for i, a in enumerate(self.graph.attachments):
                if a.special_vertex == dead:
                    self.graph.attachments[i] = replace(a, special_vertex=keep_vid)
            self.graph.remove_vertex(dead)
        self.singular_entries = [
            replace(leaf, component_ref=target) if leaf.component_ref in absorbed else leaf
            for leaf in self.singular_entries
        ]
        return target

    def new_component(self, comp: str, gens: list) -> str:
        self.x_inf_gens[comp] = list(gens)
        self.special_vertices[comp] = self.graph.add_vertex(SPECIAL, ref=comp)
        return comp

    def add_tube_side(self) -> None:
        self.sides.append(Side(self.spec.name, "tube", (), None))

    def register_zero(self, zid: str, level: sc.SymScalar, side_id: str) -> None:
        self.zeros.append(Zero(zid, side_id, index=1, isotropy_order=1, level=level))

    def add_singular_leaf(self, suffix: str, kind: str, zeros, comps, level, ref) -> None:
        self.singular_entries.append(
            LeafClass(
                leaf_id=f"{self.spec.name}.leaf_{suffix}",
                kind=kind,
                zeros=tuple(zeros),
                components=tuple(comps),
                representative=f"singular leaf at level {level.render()}",
                component_ref=ref,
            )
        )


# -- exact level location -----------------------------------------------------------


def _mod_reduce(x: sc.SymScalar, modulus: sc.SymScalar) -> sc.SymScalar:
    """Representative of x mod modulus in [0, modulus), exactly verified."""
    r = x - modulus * (x.value() // modulus.value())
    if sc.sign(r) >= 0 and sc.sign(modulus - r) > 0:
        return r
    raise ModelError("could not reduce a level mod the side circumference")


def _locate_window(window, span, modulus) -> Optional[sc.SymScalar]:
    """Shift (a multiple of the modulus) placing the window inside the span.

    The smallest multiple lifting the window's low end to the span's is the
    only candidate: any larger one pushes the high end further up.
    """
    lo, hi = window
    s_lo, s_hi = span
    shift = lo.table.zero()
    if modulus is not None:
        shift = modulus * -((lo.value() - s_lo.value()) // modulus.value())
    if sc.sign(lo + shift - s_lo) >= 0 and sc.sign(s_hi - (hi + shift)) >= 0:
        return shift
    return None


# -- shared rewiring helpers -----------------------------------------------------------


def _resolve_site(ws: _Workspace, role: str, model: FoliationModel, region: str) -> _Site:
    window = ws.spec.left_window if role == "left" else ws.spec.right_window
    if sc.sign(window[1] - window[0]) <= 0:
        raise ModelError(f"{role} window is empty")
    if region == "auto":
        families = sorted(e.family for e in model.graph.edges.values())
        comps = sorted(model.x_inf_gens)
        if len(families) + len(comps) != 1:
            raise ModelError(f"{role}: region 'auto' needs a single-family model; name the region")
        region = (families + comps)[0]
    if region in model.x_inf_gens:
        side_id = region.rsplit(".inf", 1)[0]
        return _Site(role, "special", side_id, window, component=region)
    for eid in sorted(model.graph.edges):
        e = model.graph.edges[eid]
        if e.family == region:
            return _Site(role, "edge", e.side, window, edge_id=ws.edge_map[(role, eid)])
    raise ModelError(f"{role}: region {region!r} not found")


def _check_level_clear(ws: _Workspace, side: Side, position: sc.SymScalar) -> None:
    """New singular levels must avoid existing ones exactly (mod the circle)."""
    for z in sorted(ws.zeros, key=lambda z: z.zero_id):
        if z.side != side.side_id or z.zero_id.startswith(f"{ws.spec.name}."):
            continue
        diff = position - z.level
        if side.circumference is not None:
            diff = _mod_reduce(diff, side.circumference)
        if diff.is_zero():
            raise ModelError(f"tube level collides with the singular level of zero {z.zero_id}")


def _fit_window(ws: _Workspace, site: _Site) -> None:
    if site.kind != "edge":
        return
    e = ws.graph.edges[site.edge_id]
    side = ws.side(e.side)
    shift = _locate_window(site.window, e.span, side.circumference)
    if shift is None:
        raise ModelError(
            f"{site.role}: disk window does not fit inside the targeted region "
            "(windows may not straddle a family boundary; shift the level origin)"
        )
    site.shift = shift


def _cut_edge(ws: _Workspace, site: _Site, cuts: list[tuple[sc.SymScalar, int]]) -> list[int]:
    """Split the site's edge at the given ambient levels; returns new edge ids
    ordered from the low end of the span to the high end."""
    e = ws.graph.edges[site.edge_id]
    side = ws.side(e.side)
    located = []
    for level, vid in cuts:
        pos = level + site.shift if site.shift is not None else level
        if not (sc.sign(pos - e.span[0]) > 0 and sc.sign(e.span[1] - pos) > 0):
            raise ModelError("cut level falls outside the targeted family")
        _check_level_clear(ws, side, pos)
        located.append((pos, vid))
    ws.graph.remove_edge(e.eid)
    pieces = []
    prev_v, prev_pos = e.src, e.span[0]
    for i, (pos, vid) in enumerate(located):
        pieces.append(
            ws.graph.add_edge(prev_v, vid, pos - prev_pos, f"{e.family}:{i}", e.side,
                              (prev_pos, pos))
        )
        prev_v, prev_pos = vid, pos
    pieces.append(
        ws.graph.add_edge(prev_v, e.dst, e.span[1] - prev_pos,
                          f"{e.family}:{len(located)}", e.side, (prev_pos, e.span[1]))
    )
    if side.circuit_edges:
        circuit = []
        for eid in side.circuit_edges:
            circuit.extend(pieces if eid == e.eid else [eid])
        ws.replace_side(side.with_circuit(circuit))
    return pieces


# -- kind A ------------------------------------------------------------------------


def _side_mode(ws: _Workspace, site: _Site, band: sc.SymScalar) -> str:
    if site.kind == "special":
        return "special"
    side = ws.side(ws.graph.edges[site.edge_id].side)
    c = side.circumference
    if c is None or sc.sign(c - band) > 0:
        return "cut"
    if sc.sign(band - c * 2) > 0:
        if any(z.side == side.side_id for z in ws.zeros):
            raise UnsupportedSurgery("wrapping disks on already-surgered sides")
        return "wrap"
    raise UnsupportedSurgery(
        "disk band between 1 and 2 side circumferences is not modeled"
    )


def _absorb_side(ws: _Workspace, side_id: str) -> Side:
    """Remove a wrapped side's compact families; its material goes noncompact."""
    side = ws.side(side_id)
    dead = [eid for eid, e in ws.graph.edges.items() if e.side == side_id]
    touched = set()
    for eid in dead:
        e = ws.graph.remove_edge(eid)
        touched.update((e.src, e.dst))
    for vid in sorted(touched):
        v = ws.graph.vertices.get(vid)
        if v is not None and v.kind == MARKER and ws.graph.degree(vid) == 0:
            ws.graph.remove_vertex(vid)
    ws.replace_side(side.with_circuit(()))
    return side


def _overlap(spec: SurgerySpec, left: _Site, right: _Site):
    j_lo = sc.scalar_max(left.window[0], right.window[0])
    j_hi = sc.scalar_min(left.window[1], right.window[1])
    if sc.sign(j_hi - j_lo) <= 0:
        raise ModelError(f"kind {spec.kind} needs overlapping disk windows")
    return j_lo, j_hi


def _apply_A(ws: _Workspace, left: _Site, right: _Site) -> bool:
    spec = ws.spec
    j_lo, j_hi = _overlap(spec, left, right)
    lx, ly = spec.tube_levels
    if not (sc.sign(lx - j_lo) > 0 and sc.sign(ly - lx) > 0 and sc.sign(j_hi - ly) > 0):
        raise ModelError("kind A needs tube levels strictly inside the window overlap")
    band = ly - lx
    modes = {s.role: _side_mode(ws, s, band) for s in (left, right)}
    cut_sites = [s for s in (left, right) if modes[s.role] == "cut"]
    wrap_sites = [s for s in (left, right) if modes[s.role] == "wrap"]
    special_sites = [s for s in (left, right) if modes[s.role] == "special"]
    for s in cut_sites:
        _fit_window(ws, s)

    vZx = ws.graph.add_vertex(ZERO, ref=f"{spec.name}.x")
    vZy = ws.graph.add_vertex(ZERO, ref=f"{spec.name}.y")
    mids = []
    compact_comps = []
    for s in cut_sites:
        low, mid, high = _cut_edge(ws, s, [(lx, vZx), (ly, vZy)])
        mids.append(mid)
        compact_comps.append((f"circle@{s.side_id}", True))

    identifications: list[sc.SymScalar] = []
    if not special_sites and not wrap_sites:
        # both sides stay compact: the two mid bands fuse into one family
        for mid in mids:
            ws.graph.remove_edge(mid)
        fused = ws.graph.add_edge(vZx, vZy, band, f"{spec.name}.fused", spec.name, (lx, ly))
        for s, mid in zip(cut_sites, mids):
            side = ws.side(s.side_id)
            circuit = [fused if eid == mid else eid for eid in side.circuit_edges]
            ws.replace_side(side.with_circuit(circuit))
        leaf_kind, comp_ref = COMPACT_SINGULAR, None
        noncompact_comps: list[tuple[str, bool]] = []
    else:
        extra = []
        for s in wrap_sites:
            side = _absorb_side(ws, s.side_id)
            identifications.append(side.circumference)
            extra.extend(side.generators)
        comps = [s.component for s in special_sites]
        if comps:
            target = ws.merge_components(comps, extra)
        else:
            if sc.q_rank(identifications) < 2:
                raise UnsupportedSurgery(
                    "wrapped sides with commensurate circumferences stay compact; "
                    "this regime is not modeled"
                )
            target = ws.new_component(f"{spec.name}.inf", extra)
        for mid in mids:
            ws.graph.remove_edge(mid)
        sv = ws.special_vertices[target]
        ws.graph.attach(vZx, sv, "both")
        ws.graph.attach(vZy, sv, "both")
        leaf_kind, comp_ref = NONCOMPACT_SINGULAR, target
        noncompact_comps = [(f"rays@{target}", False)]

    ws.add_tube_side()
    zx, zy = f"{spec.name}.x", f"{spec.name}.y"
    ws.register_zero(zx, lx, left.side_id)
    ws.register_zero(zy, ly, right.side_id)
    for zid, level in ((zx, lx), (zy, ly)):
        comps = [(f"{zid}.{n}", flag) for n, flag in compact_comps + noncompact_comps]
        ws.add_singular_leaf(zid.rsplit(".", 1)[1], leaf_kind, (zid,), comps, level, comp_ref)

    generic = True
    if comp_ref is not None:
        generic = band not in sc.Lattice(identifications + [p for _, p in ws.x_inf_gens[comp_ref]])
    return generic


# -- kinds B and C (pinched tubes) ----------------------------------------------------


def _forbid_wrapping(ws: _Workspace, site: _Site) -> None:
    if site.kind != "edge":
        return
    side = ws.side(ws.graph.edges[site.edge_id].side)
    if side.circumference is None:
        return
    w_len = site.window[1] - site.window[0]
    if sc.sign(side.circumference - w_len) <= 0:
        raise UnsupportedSurgery("pinch disks must not wrap the side circle")


def _apply_pinch(
    ws: _Workspace,
    low_site: _Site,
    high_site: _Site,
    low_level: sc.SymScalar,
    high_level: sc.SymScalar,
    low_zero: str,
    high_zero: str,
) -> None:
    """Shared rewiring of kind B and of genericized kind C: a chain of new
    compact families between the two pinch levels, one zero at each end."""
    spec = ws.spec
    if sc.sign(high_level - low_level) <= 0:
        raise ModelError("pinch needs two distinct ordered levels")
    for s in (low_site, high_site):
        _forbid_wrapping(ws, s)
        _fit_window(ws, s)

    v_low = ws.graph.add_vertex(ZERO, ref=low_zero)
    v_high = ws.graph.add_vertex(ZERO, ref=high_zero)
    ws.graph.add_edge(
        v_low, v_high, high_level - low_level, f"{spec.name}.chain", spec.name,
        (low_level, high_level),
    )

    for site, vertex, level, zid, cap in (
        (low_site, v_low, low_level, low_zero, "bottom"),
        (high_site, v_high, high_level, high_zero, "top"),
    ):
        comps = [(f"{zid}.pinch_{cap}", True)]
        if site.kind == "edge":
            _cut_edge(ws, site, [(level, vertex)])
            comps.append((f"{zid}.circle@{site.side_id}", True))
            kind, ref = COMPACT_SINGULAR, None
        else:
            ws.graph.attach(vertex, ws.special_vertices[site.component], "both")
            comps.append((f"{zid}.rays@{site.component}", False))
            kind, ref = NONCOMPACT_SINGULAR, site.component
        ws.register_zero(zid, level, site.side_id)
        ws.add_singular_leaf(zid.rsplit(".", 1)[1], kind, (zid,), comps, level, ref)
    ws.add_tube_side()


def _apply_B(ws: _Workspace, left: _Site, right: _Site) -> bool:
    spec = ws.spec
    lx, ly = spec.tube_levels  # convention: level of x above level of y
    if sc.sign(lx - ly) <= 0:
        raise ModelError("kind B needs the first tube level above the second")
    if sc.sign(right.window[0] - left.window[1]) >= 0:
        low_site, high_site = left, right
    elif sc.sign(left.window[0] - right.window[1]) >= 0:
        low_site, high_site = right, left
    else:
        raise ModelError("kind B needs disjoint disk windows")
    if not (
        sc.sign(ly - low_site.window[0]) > 0
        and sc.sign(low_site.window[1] - ly) >= 0
        and sc.sign(lx - high_site.window[0]) >= 0
        and sc.sign(high_site.window[1] - lx) > 0
    ):
        raise ModelError("kind B tube levels must pinch at their own disk windows")
    _apply_pinch(ws, low_site, high_site, ly, lx, f"{spec.name}.y", f"{spec.name}.x")
    return True


def _apply_C(ws: _Workspace, left: _Site, right: _Site) -> bool:
    spec = ws.spec
    j_lo, j_hi = _overlap(spec, left, right)
    lx, ly = spec.tube_levels
    if not (lx - ly).is_zero():
        raise ModelError("kind C needs both tube levels equal")
    if not (sc.sign(lx - j_lo) > 0 and sc.sign(j_hi - lx) > 0):
        raise ModelError("kind C level must lie strictly inside the window overlap")

    vZ = ws.graph.add_vertex(ZERO, ref=f"{spec.name}.x+{spec.name}.y")
    comps: list[tuple[str, bool]] = [(f"{spec.name}.waist", True)]
    refs = []
    for site in (left, right):
        if site.kind == "edge":
            _forbid_wrapping(ws, site)
            _fit_window(ws, site)
            _cut_edge(ws, site, [(lx, vZ)])
            comps.append((f"{spec.name}.circle@{site.side_id}", True))
        else:
            ws.graph.attach(vZ, ws.special_vertices[site.component], "both")
            comps.append((f"{spec.name}.rays@{site.component}", False))
            refs.append(site.component)
    zx, zy = f"{spec.name}.x", f"{spec.name}.y"
    ws.register_zero(zx, lx, left.side_id)
    ws.register_zero(zy, ly, right.side_id)
    ws.add_tube_side()
    kind = NONCOMPACT_SINGULAR if refs else COMPACT_SINGULAR
    ws.add_singular_leaf("xy", kind, (zx, zy), comps, lx, sorted(refs)[0] if refs else None)
    return False  # two zeros on one leaf: never generic


# -- public operations -----------------------------------------------------------------


def _finalize(ws: _Workspace, is_generic: bool) -> FoliationModel:
    return FoliationModel(
        name=ws.spec.name,
        form=None,
        table=ws.table,
        sides=ws.sides,
        graph=ws.graph,
        zeros=ws.zeros,
        x_inf_gens=ws.x_inf_gens,
        special_vertices=ws.special_vertices,
        singular_entries=ws.singular_entries,
        notes=ws.notes,
        is_generic=is_generic,
        spec=ws.spec,
    )


def connected_sum(spec: SurgerySpec) -> FoliationModel:
    """Join two models with a tube; the catalog, graph and decomposition are
    rewired by the kind-specific rules, and everything off the disks survives
    with its families and weights unchanged."""
    ws = _Workspace(spec)
    left = _resolve_site(ws, "left", spec.left, spec.left_region)
    right = _resolve_site(ws, "right", spec.right, spec.right_region)
    apply = {"A": _apply_A, "B": _apply_B, "C": _apply_C}[spec.kind]
    generic = apply(ws, left, right)
    generic = generic and spec.left.is_generic and spec.right.is_generic
    if spec.kind == "A" and not (is_transitive(spec.left) and is_transitive(spec.right)):
        # no general preservation rule covers this case; only the graph decides
        ws.notes.append(
            f"{spec.name}: kind-A join with a nontransitive input; the transitivity "
            "verdict is derived from the graph alone"
        )
    return _finalize(ws, generic)


def genericize(model: FoliationModel) -> FoliationModel:
    """A generic companion: same zeros, indices and loop periods, with the
    singular levels perturbed so each singular leaf carries one zero and no
    two levels differ by a period-lattice element (exact membership test)."""
    if model.is_generic:
        return model
    if model.spec is None:
        raise ModelError("cannot genericize a model without its surgery spec")
    lattice = sc.Lattice(model.generator_periods())
    zero_ids = sorted(z.zero_id for z in model.zeros)
    base = {zid: level for zid, level in model.singular_levels()}
    table = model.table
    last_error: Optional[Exception] = None
    for attempt in range(20):
        denom = 7 * (2 ** attempt)
        shifts = {zid: Fraction(j, denom) for j, zid in enumerate(zero_ids)}
        shifted = [base[zid] + table.rational(shifts[zid]) for zid in zero_ids]
        if not _levels_admissible(shifted, lattice):
            continue
        try:
            rebuilt = _rebuild_with_shifts(model, shifts)
        except ModelError as err:
            last_error = err
            continue
        rebuilt.notes.append(
            f"{model.name}: transitivity is evaluated on a genericized companion; "
            f"level shifts {sorted((k, str(v)) for k, v in shifts.items())}"
        )
        return rebuilt
    raise ModelError(f"no admissible genericity amplitudes after 20 attempts ({last_error})")


def _levels_admissible(levels: list[sc.SymScalar], lattice: sc.Lattice) -> bool:
    """No two levels agree modulo the lattice: their canonical reductions differ."""
    return len({lattice.reduce(level) for level in levels}) == len(levels)


def _rebuild_with_shifts(model: FoliationModel, shifts: dict[str, Fraction]) -> FoliationModel:
    if model.spec is None:
        return model
    spec = model.spec
    left = _rebuild_with_shifts(spec.left, shifts)
    right = _rebuild_with_shifts(spec.right, shifts)
    table = model.table
    sx = table.rational(shifts.get(f"{spec.name}.x", Fraction(0)))
    sy = table.rational(shifts.get(f"{spec.name}.y", Fraction(0)))
    new_levels = (spec.tube_levels[0] + sx, spec.tube_levels[1] + sy)
    if spec.kind == "C" and not (new_levels[0] - new_levels[1]).is_zero():
        return _rebuild_c_as_pinch(spec, left, right, new_levels)
    return connected_sum(replace(spec, left=left, right=right, tube_levels=new_levels))


def _rebuild_c_as_pinch(spec: SurgerySpec, left, right, levels) -> FoliationModel:
    """A perturbed equal-level tube is a pinched tube: the waist opens into a
    short chain of compact families between the two separated levels."""
    new_spec = replace(spec, left=left, right=right, tube_levels=levels)
    ws = _Workspace(new_spec)
    lsite = _resolve_site(ws, "left", left, spec.left_region)
    rsite = _resolve_site(ws, "right", right, spec.right_region)
    lx, ly = levels  # x sits at the left junction, y at the right
    if sc.sign(ly - lx) > 0:
        _apply_pinch(ws, lsite, rsite, lx, ly, f"{spec.name}.x", f"{spec.name}.y")
    else:
        _apply_pinch(ws, rsite, lsite, ly, lx, f"{spec.name}.y", f"{spec.name}.x")
    return _finalize(ws, True)


@dataclass(frozen=True)
class Verdicts:
    """A model's verdicts, decided once; calabi is None for zero-free models."""

    companion: FoliationModel
    calabi: Optional[bool]
    transitive: bool

    @property
    def harmonicity(self) -> str:
        """IntrinsicallyHarmonic iff transitive; no metric is ever constructed."""
        return "IntrinsicallyHarmonic" if self.transitive else "NotIntrinsicallyHarmonic"


def verdicts(model: FoliationModel) -> Verdicts:
    """Positive-loop test for zero-free forms, Calabi graph test otherwise.

    Zero-free: a straight integer-direction loop with positive period passes
    through every point, and one exists iff the generator periods are not all
    zero.  With zeros, the verdict is the Calabi property of the genericized
    companion's leaf graph.
    """
    if model.zeros:
        companion = genericize(model)
        calabi = is_calabi(companion.graph)
        return Verdicts(companion, calabi, calabi)
    if not any(sc.sign(p) != 0 for p in model.generator_periods()):
        raise ModelError("zero-free form with vanishing periods cannot be of Morse type")
    return Verdicts(model, None, True)


def is_transitive(model: FoliationModel) -> bool:
    return verdicts(model).transitive


def harmonicity_verdict(model: FoliationModel) -> str:
    return verdicts(model).harmonicity
