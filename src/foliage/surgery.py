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

from collections import Counter, namedtuple
from fractions import Fraction
from typing import Collection, NamedTuple, Optional

from . import scalar as sc
from .forms import ClosedForm, NotBasicError, Zero
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
)


class ModelError(sc.FoliageError):
    pass


class UnsupportedSurgery(ModelError):
    """A disk/tube configuration outside the combinatorial rules we encode."""


class Side(NamedTuple):
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
        return self if edges == self.circuit_edges else self._replace(circuit_edges=edges)


class FoliationModel:
    """One record of a model: form (None once surgered), sides, leaf graph,
    zeros and noncompact components, with its catalog and decomposition.

    `analyze` builds a form's model with its catalog and decomposition
    already set.  A join fills a record through the methods below, and
    `finish` adds both and checks it, once; a finished model is not changed
    again.  A join output that exactly one later join reads is never
    finished: that join extends it in place or copies it (see build_joins),
    and the checks of the model kept at the end cover it.  A surgered model
    has its surgery spec, from which genericize rebuilds it.  Only verdicts
    decides a model's transitivity, from the graph, levels and periods; no
    join reads or decides it.
    """

    def __init__(self, name: str = "", form: Optional[ClosedForm] = None,
                 table: Optional[sc.SymbolTable] = None, notes=(), is_generic: bool = False,
                 spec: Optional[SurgerySpec] = None):
        """An empty record; the operation that creates the model fills it."""
        self.name, self.form, self.table, self.spec = name, form, table, spec
        # each side by its id, in the order the sides were added
        self.sides: dict[str, Side] = {}
        self.graph = FoliationGraph()
        self.zeros: list[Zero] = []
        # the distinct periods of each noncompact component, in first-seen order
        self.x_inf_periods: dict[str, sc.Periods] = {}
        self.special_vertices: dict[str, int] = {}
        self.singular_entries: list[LeafClass] = []
        self.notes: list[str] = list(notes)
        self.is_generic = is_generic
        # each noncompact component id a merge absorbed, and the id it merged into
        self.merged_into: dict[str, str] = {}
        self.catalog: Optional[list[LeafClass]] = None
        self.decomposition: Optional[Decomposition] = None
        self._zeros_on: dict[str, list[Zero]] = {}

    def finish(self) -> "FoliationModel":
        """Build the catalog and decomposition and run the model's checks;
        the one place a joined model is checked (a kept join output, the
        final model or a genericized companion).  Singular leaves name the
        component their own merged into, if a merge absorbed it since they
        were added."""
        if self.merged_into:
            self.singular_entries = [
                leaf if leaf.component_ref not in self.merged_into
                else leaf._replace(component_ref=self.component_of(leaf.component_ref))
                for leaf in self.singular_entries
            ]
        self.catalog = [
            LeafClass(leaf_id=e.family, kind=COMPACT_REGULAR)
            for _, e in sorted(self.graph.edges.items())
        ]
        self.catalog += [
            LeafClass(leaf_id=comp, kind=NONCOMPACT_REGULAR, component_ref=comp)
            for comp in sorted(self.x_inf_periods)
        ]
        self.catalog += self.singular_entries
        self.decomposition = decompose(self)
        if self.graph.vertices and not self.graph.underlying_connected():
            raise ModelError("model graph is disconnected")
        return self

    # -- reading -----------------------------------------------------------

    def zeros_on(self, side_id: str) -> list[Zero]:
        return self._zeros_on.get(side_id, [])

    def component_of(self, comp: str) -> str:
        """The noncompact component that comp is now part of, through every
        merge since (perhaps more than one)."""
        while comp in self.merged_into:
            comp = self.merged_into[comp]
        return comp

    def generator_periods(self) -> list[sc.SymScalar]:
        return [p for s in self.sides.values() for _, p in s.generators]

    def all_leaves_compact(self) -> bool:
        return all(leaf.compact for leaf in self.catalog)

    def singular_levels(self) -> list[tuple[str, sc.SymScalar]]:
        return [(z.zero_id, z.level) for z in sorted(self.zeros, key=lambda z: z.zero_id)]

    # -- filling, by the operation that creates the model ------------------

    def absorb(self, part: "FoliationModel") -> dict[int, int]:
        """Copy another model in after this one's items, its graph renumbered
        in sorted-id order; returns where each of its edges went.  The part
        is not written to."""
        vmap, emap = self.graph.absorb(part.graph)
        for s in part.sides.values():
            self.put_side(s.with_circuit(emap[eid] for eid in s.circuit_edges))
        for z in part.zeros:
            self.add_zero(z)
        self.x_inf_periods.update(part.x_inf_periods)
        self.merged_into.update(part.merged_into)
        self.special_vertices.update((c, vmap[vid]) for c, vid in part.special_vertices.items())
        self.singular_entries += part.singular_entries
        self.notes += part.notes
        return emap

    def put_side(self, side: Side) -> None:
        """Add a side, or replace the side with its id where it stands."""
        self.sides[side.side_id] = side

    def merge_components(self, comps: list[str], extra_periods: list) -> str:
        """Fuse noncompact components into one; the smallest id survives,
        with its periods record, and its kept lattice, if the merge adds no
        period.  Singular leaves keep naming an absorbed id until `finish`."""
        target, *absorbed = sorted(set(comps))
        self.merged_into.update(dict.fromkeys(absorbed, target))
        kept = self.x_inf_periods[target]
        periods = sc.Periods([*kept, *(p for c in absorbed for p in self.x_inf_periods.pop(c)),
                              *extra_periods])
        if periods != kept:
            self.x_inf_periods[target] = periods
        keep_vid = self.special_vertices[target]
        for c in absorbed:
            self.graph.merge_special(self.special_vertices.pop(c), keep_vid)
        return target

    def new_component(self, comp: str, periods: sc.Periods) -> str:
        self.x_inf_periods[comp] = periods
        self.special_vertices[comp] = self.graph.add_vertex(SPECIAL, ref=comp)
        return comp

    def add_zero(self, zero: Zero) -> None:
        self.zeros.append(zero)
        self._zeros_on.setdefault(zero.side, []).append(zero)

    def register_zero(self, zid: str, level: sc.SymScalar, side_id: str) -> None:
        self.add_zero(Zero(zid, side_id, index=1, isotropy_order=1, level=level))

    def add_singular_leaf(self, suffix: str, kind: str, zeros, comps, ref) -> None:
        self.singular_entries.append(
            LeafClass(
                leaf_id=f"{self.name}.leaf_{suffix}",
                kind=kind,
                zeros=tuple(zeros),
                components=tuple(comps),
                component_ref=ref,
            )
        )


# -- virgin models ---------------------------------------------------------------


def analyze(form: ClosedForm, name: str) -> FoliationModel:
    """Build the model of a zero-free linear (+ bumps) form on its orbifold,
    finished as it is built.  Its leaves are all compact, one family
    `{name}.f0` on one marker loop, exactly when the periods have rank 1;
    otherwise they are one noncompact component `{name}.inf`, its own one
    leaf class.  A model of one vertex and one leaf class passes every
    check `finish` makes, so it does not run them; the form's periods
    record, shared by every model of the form, is the component's."""
    notes = []
    structure = form.structure
    if not form.invariant:
        if not form.basic_override:
            raise NotBasicError(
                f"{name}: form is not invariant under the action and no override is declared"
            )
        kept = ",".join(str(i) for i in form.invariant_elements)
        notes.append(
            f"{name}: invariance check FAILED; proceeding under the declared-basic "
            f"override, foliation data computed on the invariant subgroup [{kept}]"
        )
    gens = form.loop_periods
    # a report writes every period and the circumference, so each must render
    for gen_id, period in gens:
        if not sc.renders(period):
            raise ModelError(f"{name}: the period of loop {gen_id} expands past "
                             f"{sc.LITERAL_DIGITS} digits")
    if structure.rank == 1 and not sc.renders(structure.circumference):
        raise ModelError(f"{name}: the leaf circle's circumference expands past "
                         f"{sc.LITERAL_DIGITS} digits")
    model = FoliationModel(name, form, form.table, notes=notes, is_generic=True)
    if structure.rank == 1:
        leaf = f"{name}.f0"
        marker = model.graph.add_vertex(MARKER)
        eid = model.graph.add_edge(
            marker,
            marker,
            structure.circumference,
            family=leaf,
            side=name,
            span=(form.table.zero(), structure.circumference),
        )
        model.put_side(Side(name, "circle", gens, structure.circumference, (eid,),
                            form.witness_gens))
        model.catalog = [LeafClass(leaf, COMPACT_REGULAR)]
        model.decomposition = Decomposition(x_c=frozenset((leaf,)), x_inf_components=(),
                                            boundary=(), component_periods=())
    else:
        comp = model.new_component(f"{name}.inf", form.periods)
        model.put_side(Side(name, "dense", gens, None, (), form.witness_gens))
        model.catalog = [LeafClass(comp, NONCOMPACT_REGULAR, component_ref=comp)]
        model.decomposition = Decomposition(x_c=frozenset(),
                                            x_inf_components=((comp, frozenset((comp,))),),
                                            boundary=(), component_periods=((comp, form.periods),))
    return model


# -- surgery specs -----------------------------------------------------------------


class SurgerySpec(namedtuple("SurgerySpec", "kind left right left_window right_window "
                                            "tube_levels left_region right_region name")):
    """One join of a surgery tree, naming each input by its model or by the
    spec of the join that made it; a joined model's spec names a joined
    input by its spec, so no model holds another joined model."""

    __slots__ = ()

    def __new__(cls, kind: str,  # "A" | "B" | "C"
                left: FoliationModel | SurgerySpec, right: FoliationModel | SurgerySpec,
                left_window: tuple[sc.SymScalar, sc.SymScalar],
                right_window: tuple[sc.SymScalar, sc.SymScalar],
                tube_levels: tuple[sc.SymScalar, sc.SymScalar],
                left_region: str = "auto", right_region: str = "auto", name: str = "sum"):
        if kind not in ("A", "B", "C"):
            raise ModelError(f"unknown surgery kind {kind!r}")
        return tuple.__new__(cls, (kind, left, right, left_window, right_window, tube_levels,
                                   left_region, right_region, name))


class _Site:
    """A resolved disk placement: an edge of a compact family or, for a
    special site, a noncompact component, with the declared window; _merge
    moves the edge id onto the joined record."""

    def __init__(self, role: str, side_id: str, window: tuple[sc.SymScalar, sc.SymScalar],
                 edge_id: Optional[int] = None, component: Optional[str] = None):
        self.role = role  # "left" | "right"
        self.side_id, self.window = side_id, window
        self.edge_id, self.component = edge_id, component


def _sites(spec: SurgerySpec, left: FoliationModel, right: FoliationModel) -> tuple[_Site, _Site]:
    """Check that the inputs can be joined, and resolve both disk sites on
    the inputs as given, in their own edge ids."""
    if left.table is not right.table:
        raise ModelError("surgery inputs must share one symbol table")
    if left.name == right.name:
        raise ModelError("surgery inputs need distinct model names")
    if left.sides.keys() & right.sides.keys():
        raise ModelError("side names collide between the two inputs")
    if spec.name in left.sides or spec.name in right.sides:
        raise ModelError(f"surgery name {spec.name!r} collides with an existing side")
    return (_resolve_site("left", left, spec.left_region, spec.left_window),
            _resolve_site("right", right, spec.right_region, spec.right_window))


def _merge(spec: SurgerySpec, left: FoliationModel, right: FoliationModel, extend: bool,
           sites: tuple[_Site, _Site]) -> FoliationModel:
    """The record of spec's join holding both inputs, with each disk site
    moved onto its edge ids.

    With extend the record is the left input itself, a join output never
    finished, extended in place with its ids unmoved; only the right is
    copied.  Otherwise both are copied, renumbered in sorted-id order,
    and neither input is written to.  An input may itself be unfinished.
    """
    if extend:
        model, maps = left, [None]
        model.name, model.spec = spec.name, spec
    else:
        model = FoliationModel(spec.name, table=left.table, spec=spec)
        maps = [model.absorb(left)]
    maps.append(model.absorb(right))
    for site, emap in zip(sites, maps):
        if site.edge_id is not None and emap is not None:
            site.edge_id = emap[site.edge_id]
    return model


# -- exact level location -----------------------------------------------------------


def _locate_window(window, span, modulus) -> Optional[sc.SymScalar]:
    """Shift (a multiple of the modulus) placing the window inside the span.

    The smallest multiple lifting the window's low end to the span's is the
    only candidate: any larger one pushes the high end further up.
    """
    lo, hi = window
    s_lo, s_hi = span
    shift = lo.table.zero()
    if modulus is not None:
        shift = modulus * -sc.floor_quotient(lo - s_lo, modulus)
    if sc.sign(lo + shift - s_lo) >= 0 and sc.sign(s_hi - (hi + shift)) >= 0:
        return shift
    return None


# -- shared rewiring helpers -----------------------------------------------------------


def _resolve_site(role: str, source: FoliationModel, region: str, window) -> _Site:
    if sc.sign(window[1] - window[0]) <= 0:
        raise ModelError(f"{role} window is empty")
    if region == "auto":
        edges = source.graph.edges
        if len(edges) + len(source.x_inf_periods) != 1:
            raise ModelError(f"{role}: region 'auto' needs a single-family model; name the region")
        region = next(iter([e.family for e in edges.values()] or source.x_inf_periods))
    component = source.component_of(region)
    if component in source.x_inf_periods:
        side_id = region.rsplit(".inf", 1)[0]
        return _Site(role, side_id, window, component=component)
    eid = source.graph.family_edge(region)
    if eid is None:
        raise ModelError(f"{role}: region {region!r} not found")
    return _Site(role, source.graph.edges[eid].side, window, edge_id=eid)


def _check_level_clear(model: FoliationModel, side: Side, position: sc.SymScalar) -> None:
    """New singular levels must avoid existing ones exactly (mod the circle)."""
    for z in sorted(model.zeros_on(side.side_id), key=lambda z: z.zero_id):
        diff = position - z.level
        laps = diff.ratio_to(side.circumference) if side.circumference is not None else None
        if diff.is_zero() or (laps is not None and laps.denominator == 1):
            raise ModelError(f"tube level collides with the singular level of zero {z.zero_id}")


def _fit_window(site: _Site, span, side: Side) -> sc.SymScalar:
    """The modulus multiple that places the site's window inside the span."""
    shift = _locate_window(site.window, span, side.circumference)
    if shift is None:
        raise ModelError(
            f"{site.role}: disk window does not fit inside the targeted region "
            "(windows may not straddle a family boundary; shift the level origin)"
        )
    return shift


def _cut_edge(model: FoliationModel, site: _Site, cuts: list[tuple[sc.SymScalar, int]]) -> list[int]:
    """Split the site's edge at the given ambient levels, once its window is
    fitted to the edge's span; returns new edge ids ordered from the low end
    of the span to the high end."""
    e = model.graph.edges[site.edge_id]
    side = model.sides[e.side]
    shift = _fit_window(site, e.span, side)
    located = []
    for level, vid in cuts:
        pos = level + shift
        if not (sc.sign(pos - e.span[0]) > 0 and sc.sign(e.span[1] - pos) > 0):
            raise ModelError("cut level falls outside the targeted family")
        _check_level_clear(model, side, pos)
        located.append((pos, vid))
    model.graph.remove_edge(e.eid)
    pieces = []
    prev_v, prev_pos = e.src, e.span[0]
    for i, (pos, vid) in enumerate(located + [(e.span[1], e.dst)]):
        pieces.append(model.graph.add_edge(prev_v, vid, pos - prev_pos, f"{e.family}:{i}",
                                           e.side, (prev_pos, pos)))
        prev_v, prev_pos = vid, pos
    # an edge lies on its own side's circle, if any; a kind-A fused edge,
    # whose side is the tube's, lies on the circles of both sides it joined
    for s in [side] if side.kind == "circle" else model.sides.values():
        if e.eid in s.circuit_edges:
            model.put_side(s.with_circuit(
                p for eid in s.circuit_edges for p in (pieces if eid == e.eid else (eid,))))
    return pieces


# -- kind A ------------------------------------------------------------------------


def _side_mode(model: FoliationModel, site: _Site, band: sc.SymScalar) -> str:
    if site.component is not None:
        return "special"
    side = model.sides[site.side_id]
    c = side.circumference
    if c is None or sc.sign(c - band) > 0:
        return "cut"
    if sc.sign(band - c * 2) > 0:
        if model.zeros_on(side.side_id):
            raise UnsupportedSurgery("wrapping disks on already-surgered sides")
        return "wrap"
    raise UnsupportedSurgery(
        "disk band between 1 and 2 side circumferences is not modeled"
    )


def _absorb_side(model: FoliationModel, side_id: str) -> Side:
    """Remove a wrapped side's compact family; its material goes noncompact.
    _side_mode wraps only a side with no zeros, and a cut puts a zero on its
    side, so the side was never cut: its circuit is its one family, a loop
    at its marker, which no other edge touches."""
    side = model.sides[side_id]
    (eid,) = side.circuit_edges
    del model.graph.vertices[model.graph.remove_edge(eid).src]
    model.put_side(side.with_circuit(()))
    return side


def _overlap(spec: SurgerySpec, left: _Site, right: _Site):
    j_lo = sc.scalar_max(left.window[0], right.window[0])
    j_hi = sc.scalar_min(left.window[1], right.window[1])
    if sc.sign(j_hi - j_lo) <= 0:
        raise ModelError(f"kind {spec.kind} needs overlapping disk windows")
    return j_lo, j_hi


def _apply_A(model: FoliationModel, left: _Site, right: _Site) -> bool:
    spec = model.spec
    j_lo, j_hi = _overlap(spec, left, right)
    lx, ly = spec.tube_levels
    if not (sc.sign(lx - j_lo) > 0 and sc.sign(ly - lx) > 0 and sc.sign(j_hi - ly) > 0):
        raise ModelError("kind A needs tube levels strictly inside the window overlap")
    band = ly - lx
    modes = {s.role: _side_mode(model, s, band) for s in (left, right)}
    cut_sites = [s for s in (left, right) if modes[s.role] == "cut"]
    wrap_sites = [s for s in (left, right) if modes[s.role] == "wrap"]
    special_sites = [s for s in (left, right) if modes[s.role] == "special"]

    vZx = model.graph.add_vertex(ZERO, ref=f"{spec.name}.x")
    vZy = model.graph.add_vertex(ZERO, ref=f"{spec.name}.y")
    mids = []
    compact_comps = []
    for s in cut_sites:
        low, mid, high = _cut_edge(model, s, [(lx, vZx), (ly, vZy)])
        mids.append(mid)
        compact_comps.append((f"circle@{s.side_id}", True))

    identifications: list[sc.SymScalar] = []
    if not special_sites and not wrap_sites:
        # both sides stay compact: the two mid bands fuse into one family
        for mid in mids:
            model.graph.remove_edge(mid)
        fused = model.graph.add_edge(vZx, vZy, band, f"{spec.name}.fused", spec.name, (lx, ly))
        for s, mid in zip(cut_sites, mids):
            side = model.sides[s.side_id]
            circuit = [fused if eid == mid else eid for eid in side.circuit_edges]
            model.put_side(side.with_circuit(circuit))
        leaf_kind, comp_ref = COMPACT_SINGULAR, None
        noncompact_comps: list[tuple[str, bool]] = []
    else:
        extra = []
        for s in wrap_sites:
            side = _absorb_side(model, s.side_id)
            identifications.append(side.circumference)
            extra.extend(p for _, p in side.generators)
        comps = [s.component for s in special_sites]
        if comps:
            target = model.merge_components(comps, extra)
        else:
            if sc.q_rank(identifications) < 2:
                raise UnsupportedSurgery(
                    "wrapped sides with commensurate circumferences stay compact; "
                    "this regime is not modeled"
                )
            target = model.new_component(f"{spec.name}.inf", sc.Periods(extra))
        for s, mid in zip(cut_sites, mids):
            # the band goes noncompact: it leaves the graph and its circle
            model.graph.remove_edge(mid)
            side = model.sides[s.side_id]
            model.put_side(side.with_circuit(eid for eid in side.circuit_edges if eid != mid))
        sv = model.special_vertices[target]
        model.graph.attach(vZx, sv)
        model.graph.attach(vZy, sv)
        leaf_kind, comp_ref = NONCOMPACT_SINGULAR, target
        noncompact_comps = [(f"rays@{target}", False)]

    zx, zy = f"{spec.name}.x", f"{spec.name}.y"
    model.register_zero(zx, lx, left.side_id)
    model.register_zero(zy, ly, right.side_id)
    for zid in (zx, zy):
        comps = [(f"{zid}.{n}", flag) for n, flag in compact_comps + noncompact_comps]
        model.add_singular_leaf(zid.rsplit(".", 1)[1], leaf_kind, (zid,), comps, comp_ref)

    if comp_ref is None:
        return True
    # a component keeps the lattice of its periods; a wrapped circle adds one
    periods = model.x_inf_periods[comp_ref]
    return band not in (sc.Lattice([*identifications, *periods]) if identifications
                        else periods.lattice)


# -- kinds B and C (pinched tubes) ----------------------------------------------------


def _forbid_wrapping(model: FoliationModel, site: _Site) -> None:
    side = model.sides[site.side_id]
    if side.circumference is None:
        return
    w_len = site.window[1] - site.window[0]
    if sc.sign(side.circumference - w_len) <= 0:
        raise UnsupportedSurgery("pinch disks must not wrap the side circle")


def _pin(model: FoliationModel, site: _Site, vertex: int, level: sc.SymScalar,
         prefix: str) -> tuple[tuple[str, bool], Optional[str]]:
    """Put a zero vertex of a pinched tube on its disk site at level: an
    edge site's family is cut there, a special site's component takes the
    vertex.  Returns the leaf component this adds, named under prefix, and
    the noncompact component, if there is one."""
    if site.component is None:
        _forbid_wrapping(model, site)
        _cut_edge(model, site, [(level, vertex)])
        return (f"{prefix}.circle@{site.side_id}", True), None
    model.graph.attach(vertex, model.special_vertices[site.component])
    return (f"{prefix}.rays@{site.component}", False), site.component


def _apply_pinch(model: FoliationModel, low: tuple[_Site, sc.SymScalar, str],
                 high: tuple[_Site, sc.SymScalar, str]) -> None:
    """Shared rewiring of kind B and of genericized kind C: a chain of new
    compact families between the two pinch levels, one zero at each end.
    Each end is (site, level, zero id), the low end first: kind B refuses
    levels out of order, and an opened kind C has y above x."""
    spec = model.spec
    low_level, high_level = low[1], high[1]
    vertices = [model.graph.add_vertex(ZERO, ref=zid) for _, _, zid in (low, high)]
    model.graph.add_edge(*vertices, high_level - low_level, f"{spec.name}.chain", spec.name,
                         (low_level, high_level))
    for (site, level, zid), vertex, cap in zip((low, high), vertices, ("bottom", "top")):
        comp, ref = _pin(model, site, vertex, level, zid)
        kind = COMPACT_SINGULAR if ref is None else NONCOMPACT_SINGULAR
        model.register_zero(zid, level, site.side_id)
        model.add_singular_leaf(zid.rsplit(".", 1)[1], kind, (zid,),
                                [(f"{zid}.pinch_{cap}", True), comp], ref)


def _apply_B(model: FoliationModel, left: _Site, right: _Site) -> bool:
    spec = model.spec
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
    _apply_pinch(model, (low_site, ly, f"{spec.name}.y"), (high_site, lx, f"{spec.name}.x"))
    return True


def _apply_C(model: FoliationModel, left: _Site, right: _Site) -> bool:
    spec = model.spec
    j_lo, j_hi = _overlap(spec, left, right)
    lx, ly = spec.tube_levels
    if not (lx - ly).is_zero():
        raise ModelError("kind C needs both tube levels equal")
    if not (sc.sign(lx - j_lo) > 0 and sc.sign(j_hi - lx) > 0):
        raise ModelError("kind C level must lie strictly inside the window overlap")

    vZ = model.graph.add_vertex(ZERO, ref=f"{spec.name}.x+{spec.name}.y")
    pins = [_pin(model, site, vZ, lx, spec.name) for site in (left, right)]
    refs = sorted(ref for _, ref in pins if ref is not None)
    zx, zy = f"{spec.name}.x", f"{spec.name}.y"
    model.register_zero(zx, lx, left.side_id)
    model.register_zero(zy, ly, right.side_id)
    kind = NONCOMPACT_SINGULAR if refs else COMPACT_SINGULAR
    comps = [(f"{spec.name}.waist", True)] + [comp for comp, _ in pins]
    model.add_singular_leaf("xy", kind, (zx, zy), comps, refs[0] if refs else None)
    return False  # two zeros on one leaf: never generic


def _apply_opened_C(model: FoliationModel, left: _Site, right: _Site) -> bool:
    """A perturbed equal-level tube is a pinched tube: the waist opens into a
    short chain of compact families between the two separated levels.
    genericize shifts the zeros by j/(7*2^k) in sorted-id order, and x sorts
    before y, so y, at the right junction, ends above x, at the left."""
    spec = model.spec
    lx, ly = spec.tube_levels
    _apply_pinch(model, (left, lx, f"{spec.name}.x"), (right, ly, f"{spec.name}.y"))
    return True


_APPLY = {"A": _apply_A, "B": _apply_B, "C": _apply_C}


# -- public operations -----------------------------------------------------------------


def _join(spec: SurgerySpec, left: FoliationModel, right: FoliationModel,
          extend: bool, apply) -> FoliationModel:
    """Apply one surgery to its inputs through apply, the rewiring
    build_joins chose for it, then add the tube side, the last side a join
    adds; the result is left unfinished with is_generic set.  With extend
    the result is the left input, extended in place (see _merge), so what
    the join reads of its left it reads first.  A refusal names the surgery."""
    try:
        sites = _sites(spec, left, right)
        model = _merge(spec, left, right, extend, sites)
        generic = apply(model, *sites)
    except ModelError as err:
        raise type(err)(f"surgery {spec.name!r}: {err}") from None
    model.put_side(Side(spec.name, "tube", (), None))
    model.is_generic = generic and left.is_generic and right.is_generic
    return model


def _node(model: FoliationModel) -> "FoliationModel | SurgerySpec":
    """How a spec names an input: a joined model by its spec, a virgin one as itself."""
    return model if model.spec is None else model.spec


def build_joins(models: dict[str, FoliationModel], specs: list[SurgerySpec],
                levels: Optional[dict[str, sc.SymScalar]] = None) -> FoliationModel:
    """Apply the joins in order, each reading its inputs from models by
    name, and return the last one's output.  An output that exactly one
    later join reads is consumed: that join extends it in place if it is
    consumed too and reads it as its left, else copies it, and it is never
    finished nor left in models.  Every other output, the last included, is
    finished and kept in models, and its join copies both inputs, so its
    ids are where a join that copies everything puts them.  With levels,
    by zero id, the joins rebuild a genericized companion: each tube level
    is its zero's, specs name the rebuilt inputs, and a kind-C join whose
    levels come apart is pinched."""
    reads = Counter(node.name for spec in specs for node in (spec.left, spec.right))
    consumed = {spec.name for spec in specs if reads[spec.name] == 1}
    for spec in specs:
        left, right = (models.pop(node.name) if node.name in consumed else models[node.name]
                       for node in (spec.left, spec.right))
        apply = _APPLY[spec.kind]
        if levels is not None:
            lx, ly = tube = levels[f"{spec.name}.x"], levels[f"{spec.name}.y"]
            spec = spec._replace(left=_node(left), right=_node(right), tube_levels=tube)
            if spec.kind == "C" and not (lx - ly).is_zero():
                apply = _apply_opened_C
        model = _join(spec, left, right, spec.name in consumed and spec.left.name in consumed,
                      apply)
        models[spec.name] = model if spec.name in consumed else model.finish()
    return model


def connected_sum(spec: SurgerySpec) -> FoliationModel:
    """Join two models with a tube; the catalog, graph and decomposition are
    rewired by the kind-specific rules, and everything off the disks survives
    with its families and weights unchanged.  spec names each input by the
    model itself; the joined model keeps it with a joined input named by that
    input's spec.  The inputs are not written to."""
    left, right = spec.left, spec.right
    spec = spec._replace(left=_node(left), right=_node(right))
    return build_joins({left.name: left, right.name: right}, [spec])


def genericize(model: FoliationModel) -> FoliationModel:
    """A generic companion: same zeros, indices and loop periods, with the
    singular levels perturbed so each singular leaf carries one zero and no
    two levels differ by a period-lattice element (exact membership test)."""
    if model.is_generic:
        return model
    if model.spec is None:
        raise ModelError("cannot genericize a model without its surgery spec")
    lattice = sc.Lattice(model.generator_periods())
    base = dict(model.singular_levels())  # by zero id, in sorted order
    table = model.table
    last_error: Optional[Exception] = None
    for attempt in range(20):
        denom = 7 * (2 ** attempt)
        shifts = {zid: Fraction(j, denom) for j, zid in enumerate(base)}
        levels = {zid: level + table.rational(shifts[zid]) for zid, level in base.items()}
        if not _levels_admissible(levels.values(), lattice):
            continue
        try:
            rebuilt = _rebuild_at_levels(model, levels)
        except ModelError as err:
            last_error = err
            continue
        rebuilt.notes.append(
            f"{model.name}: transitivity is evaluated on a genericized companion; "
            f"level shifts {sorted((k, str(v)) for k, v in shifts.items())}"
        )
        return rebuilt
    why = last_error or "every shift set put two singular levels in one lattice class"
    raise ModelError(f"no admissible genericity amplitudes after 20 attempts ({why})")


def _levels_admissible(levels: Collection[sc.SymScalar], lattice: sc.Lattice) -> bool:
    """No two levels agree modulo the lattice: their canonical reductions differ."""
    return len({lattice.reduce(level) for level in levels}) == len(levels)


def _rebuild_at_levels(model: FoliationModel,
                       levels: dict[str, sc.SymScalar]) -> FoliationModel:
    """Rebuild the surgery tree under model with each zero at its level in
    levels, by zero id, through build_joins, inputs before their join and
    left before right.  The walk reads only specs, takes each virgin leaf
    as it is and keeps its own stack, so a chain of any length rebuilds
    without recursing; only the rebuilt root is finished, and its checks
    cover the whole tree."""
    leaves, specs, todo = {}, [], [model.spec]
    while todo:
        node = todo.pop()
        if isinstance(node, SurgerySpec):
            specs.append(node)
            todo += [node.left, node.right]
        else:
            leaves[node.name] = node
    # a preorder that visits right before left, reversed, is the postorder
    # that visits left before right
    return build_joins(leaves, specs[::-1], levels)


class Verdicts(NamedTuple):
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
