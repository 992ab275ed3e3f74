"""Scenario files, reports, DOT/SVG emission and the command-line surface.

Scenario format: line-oriented ``key = value`` under ``[section name]``
headers.  Rationals are written ``p/q``, symbolic expressions as linear
combinations ``c0 + c1*name + ...``, level windows as ``lo : hi``.  Identical
scenario text always produces byte-identical reports and DOT output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import scalar as sc
from . import catalog as builtin_catalog
from .forms import ClosedForm, BumpTerm, invariance_verdict
from .graph import factorization_witness
from .leaves import trace_leaf
from .orbifold import (
    BUILTIN_ORBIFOLDS,
    DEFAULT_BASEPOINT,
    AffineMap,
    GroupAction,
    OrbifoldPresentation,
    TorusPoint,
)
from .scalar import FoliageError, PrecisionExhausted
from .surgery import (
    FoliationModel,
    SurgerySpec,
    analyze,
    connected_sum,
    verdicts,
)

COMMANDS = (
    "periods",
    "classify",
    "decompose",
    "graph",
    "transitivity",
    "harmonic",
    "trace",
    "surgery",
    "examples",
)


class ScenarioError(FoliageError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# -- declaration data ---------------------------------------------------------------

Expr = tuple[tuple[str, Fraction], ...]  # ((symbol name, coefficient), ...) sorted


@dataclass(frozen=True)
class OrbifoldDecl:
    name: str
    builtin: Optional[str] = None
    elements: tuple[tuple[tuple[int, int, int, int], tuple[Fraction, Fraction]], ...] = ()
    basepoint: Optional[tuple[Fraction, Fraction]] = None


@dataclass(frozen=True)
class BumpDecl:
    center: tuple[Fraction, Fraction]
    radius: Fraction
    amplitude: Expr


@dataclass(frozen=True)
class FormDecl:
    name: str
    on: str
    dtheta: Expr
    dphi: Expr
    basic_override: bool = False
    bumps: tuple[BumpDecl, ...] = ()


@dataclass(frozen=True)
class SurgeryDecl:
    name: str
    kind: str
    left: str
    right: str
    left_window: tuple[Expr, Expr]
    right_window: tuple[Expr, Expr]
    tube: tuple[Expr, Expr]
    left_region: str = "auto"
    right_region: str = "auto"


@dataclass(frozen=True)
class TracerDecl:
    seed: tuple[Fraction, Fraction] = (Fraction(1, 8), Fraction(1, 8))
    step: float = 0.005
    max_steps: int = 1_000_000


@dataclass(frozen=True)
class OutputDecl:
    dot: Optional[str] = None
    svg: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    symbols: tuple[tuple[str, str, bool], ...] = ()  # (name, literal, independent=True)
    orbifolds: tuple[OrbifoldDecl, ...] = ()
    forms: tuple[FormDecl, ...] = ()
    surgeries: tuple[SurgeryDecl, ...] = ()
    tracer: TracerDecl = TracerDecl()
    output: OutputDecl = OutputDecl()


# -- parsing ----------------------------------------------------------------------


def _parse_rational(text: str, line: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"bad rational {text!r}", line) from None


def _parse_expr(text: str, names: set[str], line: int) -> Expr:
    coeffs: dict[str, Fraction] = {}
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ScenarioError(f"empty term in expression {text!r}", line)
        if "*" in term:
            coef_text, _, name = term.partition("*")
            name = name.strip()
            coef = _parse_rational(coef_text, line)
        elif term.replace("-", "").replace("/", "").replace(".", "").isdigit():
            name, coef = "one", _parse_rational(term, line)
        else:
            name, coef = term, Fraction(1)
        if name != "one" and name not in names:
            raise ScenarioError(f"unresolved symbol {name!r}", line)
        coeffs[name] = coeffs.get(name, Fraction(0)) + coef
    return tuple(sorted((n, c) for n, c in coeffs.items() if c))


def _parse_pair(text: str, names: set[str], line: int, sep: str = ":") -> tuple[Expr, Expr]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise ScenarioError(f"expected '<lo> {sep} <hi>', got {text!r}", line)
    return _parse_expr(parts[0], names, line), _parse_expr(parts[1], names, line)


# the section kinds and the keys each allows; [symbols] keys are the symbol names
SECTION_KEYS = {
    "symbols": None,
    "orbifold": ("builtin", "element", "basepoint"),
    "form": ("on", "dtheta", "dphi", "basic_override", "bump"),
    "surgery": ("kind", "left", "right", "left_window", "right_window", "tube",
                "left_region", "right_region"),
    "tracer": ("seed", "step", "max_steps"),
    "output": ("dot", "svg"),
}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; every reference must resolve."""
    symbols: list[tuple[str, str, bool]] = []
    orbifolds: list[OrbifoldDecl] = []
    forms: list[FormDecl] = []
    surgeries: list[SurgeryDecl] = []
    tracer = TracerDecl()
    output = OutputDecl()

    section: Optional[tuple[str, str]] = None
    body: dict[str, list[tuple[str, int]]] = {}
    sections: list[tuple[tuple[str, str], dict]] = []

    def flush():
        if section is not None:
            sections.append((section, body.copy()))

    lines = text.splitlines()
    if not any(line.strip() for line in lines):
        raise ScenarioError("empty scenario", 1)
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            parts = line[1:-1].split()
            if len(parts) not in (1, 2):
                raise ScenarioError(f"bad section header {line!r}", i)
            kind = parts[0]
            if kind not in SECTION_KEYS:
                raise ScenarioError(f"unknown section {kind!r}", i)
            if kind in ("orbifold", "form", "surgery") and len(parts) != 2:
                raise ScenarioError(f"section {kind!r} needs a name", i)
            if kind in ("tracer", "output") and any(k == kind for (k, _), _ in sections):
                raise ScenarioError(f"repeated section [{kind}]", i)
            section = (kind, parts[1] if len(parts) == 2 else "")
            body = {}
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", i)
        if section is None:
            raise ScenarioError("key outside any [section]", i)
        key, _, value = line.partition("=")
        key = key.strip()
        allowed = SECTION_KEYS[section[0]]
        if allowed is not None and key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in [{section[0]}]", i)
        body.setdefault(key, []).append((value.strip(), i))
    flush()

    def single(items: dict, key: str, default=None, required=False, where="?"):
        if key not in items:
            if required:
                raise ScenarioError(f"[{where}] is missing key {key!r}")
            return default, None
        if len(items[key]) != 1:
            raise ScenarioError(f"[{where}] repeats key {key!r}", items[key][1][1])
        return items[key][0]

    names: set[str] = set()
    for (kind, name), items in sections:
        where = f"{kind} {name}".strip()
        if kind == "symbols":
            for sym, entries in items.items():
                for value, i in entries:
                    parts = value.split()
                    if len(parts) not in (1, 2):
                        raise ScenarioError(f"bad symbol line {value!r}", i)
                    if len(parts) == 2 and parts[1] == "dependent":
                        raise ScenarioError("a dependent symbol needs its relation", i)
                    if len(parts) == 2 and parts[1] != "independent":
                        raise ScenarioError(f"bad symbol flag {parts[1]!r}", i)
                    if sym in names or sym == "one":
                        raise ScenarioError(f"duplicate symbol {sym!r}", i)
                    names.add(sym)
                    symbols.append((sym, parts[0], True))
        elif kind == "orbifold":
            builtin, _ = single(items, "builtin", where=where)
            elements = []
            for value, i in items.get("element", []):
                mat_text, _, off_text = value.partition(";")
                mat = mat_text.split()
                off = off_text.split()
                if len(mat) != 4 or len(off) != 2:
                    raise ScenarioError("element needs 'a b c d ; e f'", i)
                try:
                    matrix = tuple(int(x) for x in mat)
                except ValueError:
                    raise ScenarioError("matrix entries must be integers", i) from None
                offset = (_parse_rational(off[0], i), _parse_rational(off[1], i))
                elements.append((matrix, offset))
            if (builtin is None) == (not elements):
                raise ScenarioError(f"[{where}] needs either builtin or element lines")
            if builtin is not None and builtin not in BUILTIN_ORBIFOLDS:
                raise ScenarioError(f"unknown builtin orbifold {builtin!r}")
            basepoint = None
            bp_text, i = single(items, "basepoint", where=where)
            if bp_text is not None:
                parts = bp_text.split(",")
                if len(parts) != 2:
                    raise ScenarioError("basepoint needs 'theta, phi'", i)
                basepoint = (_parse_rational(parts[0], i), _parse_rational(parts[1], i))
            orbifolds.append(OrbifoldDecl(name, builtin, tuple(elements), basepoint))
        elif kind == "form":
            on, _ = single(items, "on", required=True, where=where)
            dtheta_text, i1 = single(items, "dtheta", required=True, where=where)
            dphi_text, i2 = single(items, "dphi", required=True, where=where)
            override_text, i4 = single(items, "basic_override", default="false", where=where)
            if override_text.lower() not in ("true", "false"):
                raise ScenarioError(
                    f"basic_override must be true or false, got {override_text!r}", i4)
            bumps = []
            for value, i in items.get("bump", []):
                words = value.split()
                if len(words) < 7 or words[0] != "center" or words[3] != "radius" or words[5] != "amplitude":
                    raise ScenarioError(
                        "bump needs 'center <th> <ph> radius <r> amplitude <expr>'", i
                    )
                bumps.append(
                    BumpDecl(
                        center=(_parse_rational(words[1], i), _parse_rational(words[2], i)),
                        radius=_parse_rational(words[4], i),
                        amplitude=_parse_expr(" ".join(words[6:]), names, i),
                    )
                )
            forms.append(
                FormDecl(
                    name=name,
                    on=on,
                    dtheta=_parse_expr(dtheta_text, names, i1),
                    dphi=_parse_expr(dphi_text, names, i2),
                    basic_override=override_text.lower() == "true",
                    bumps=tuple(bumps),
                )
            )
        elif kind == "surgery":
            kind_text, _ = single(items, "kind", required=True, where=where)
            left, _ = single(items, "left", required=True, where=where)
            right, _ = single(items, "right", required=True, where=where)
            lw, i1 = single(items, "left_window", required=True, where=where)
            rw, i2 = single(items, "right_window", required=True, where=where)
            tube, i3 = single(items, "tube", required=True, where=where)
            lregion, _ = single(items, "left_region", default="auto", where=where)
            rregion, _ = single(items, "right_region", default="auto", where=where)
            surgeries.append(
                SurgeryDecl(
                    name=name,
                    kind=kind_text,
                    left=left,
                    right=right,
                    left_window=_parse_pair(lw, names, i1),
                    right_window=_parse_pair(rw, names, i2),
                    tube=_parse_pair(tube, names, i3),
                    left_region=lregion,
                    right_region=rregion,
                )
            )
        elif kind == "tracer":
            seed_text, i = single(items, "seed", default="1/8, 1/8", where=where)
            step_text, i1 = single(items, "step", default="0.005", where=where)
            steps_text, i2 = single(items, "max_steps", default="1000000", where=where)
            parts = seed_text.split(",")
            if len(parts) != 2:
                raise ScenarioError("seed needs 'theta, phi'", i)
            tracer = TracerDecl(
                seed=(_parse_rational(parts[0], i), _parse_rational(parts[1], i)),
                step=_tracer_value(_step_arg, "step", step_text, i1),
                max_steps=_tracer_value(_steps_arg, "max_steps", steps_text, i2),
            )
        elif kind == "output":
            dot, _ = single(items, "dot", where=where)
            svg, _ = single(items, "svg", where=where)
            output = OutputDecl(dot=dot, svg=svg)

    scenario = Scenario(
        symbols=tuple(symbols),
        orbifolds=tuple(orbifolds),
        forms=tuple(forms),
        surgeries=tuple(surgeries),
        tracer=tracer,
        output=output,
    )
    _validate_refs(scenario)
    return scenario


def _tracer_value(convert, key: str, text: str, line: Optional[int]):
    """A [tracer] value, checked by the parser of the matching CLI flag."""
    try:
        return convert(text)
    except argparse.ArgumentTypeError as err:
        raise ScenarioError(f"{key}: {err}", line) from None


def _validate_refs(s: Scenario) -> None:
    orb_names = [o.name for o in s.orbifolds]
    form_names = [f.name for f in s.forms]
    surgery_names = [g.name for g in s.surgeries]
    all_names = orb_names + form_names + surgery_names
    if len(set(all_names)) != len(all_names):
        raise ScenarioError("orbifold/form/surgery names must be unique")
    if not s.forms:
        raise ScenarioError("scenario declares no form")
    for f in s.forms:
        if f.on not in orb_names:
            raise ScenarioError(f"form {f.name!r} references unknown orbifold {f.on!r}")
    seen = set(form_names)
    for g in s.surgeries:
        for ref in (g.left, g.right):
            if ref not in seen:
                raise ScenarioError(f"surgery {g.name!r} references unknown model {ref!r}")
        seen.add(g.name)


# -- serialization -------------------------------------------------------------------


def render_expr(expr: Expr) -> str:
    if not expr:
        return "0"
    parts = []
    for name, coef in expr:
        parts.append(str(coef) if name == "one" else f"{coef}*{name}")
    return " + ".join(parts)


def serialize_scenario(s: Scenario) -> str:
    out = ["[symbols]"]
    for name, value, _ in s.symbols:
        out.append(f"{name} = {value}")
    for o in s.orbifolds:
        out.append("")
        out.append(f"[orbifold {o.name}]")
        if o.builtin:
            out.append(f"builtin = {o.builtin}")
        for (a, b, c, d), (e, f) in o.elements:
            out.append(f"element = {a} {b} {c} {d} ; {e} {f}")
        if o.basepoint is not None:
            out.append(f"basepoint = {o.basepoint[0]}, {o.basepoint[1]}")
    for fdecl in s.forms:
        out.append("")
        out.append(f"[form {fdecl.name}]")
        out.append(f"on = {fdecl.on}")
        out.append(f"dtheta = {render_expr(fdecl.dtheta)}")
        out.append(f"dphi = {render_expr(fdecl.dphi)}")
        if fdecl.basic_override:
            out.append("basic_override = true")
        for bump in fdecl.bumps:
            out.append(
                f"bump = center {bump.center[0]} {bump.center[1]} "
                f"radius {bump.radius} amplitude {render_expr(bump.amplitude)}"
            )
    for g in s.surgeries:
        out.append("")
        out.append(f"[surgery {g.name}]")
        out.append(f"kind = {g.kind}")
        out.append(f"left = {g.left}")
        out.append(f"right = {g.right}")
        if g.left_region != "auto":
            out.append(f"left_region = {g.left_region}")
        if g.right_region != "auto":
            out.append(f"right_region = {g.right_region}")
        out.append(f"left_window = {render_expr(g.left_window[0])} : {render_expr(g.left_window[1])}")
        out.append(f"right_window = {render_expr(g.right_window[0])} : {render_expr(g.right_window[1])}")
        out.append(f"tube = {render_expr(g.tube[0])} : {render_expr(g.tube[1])}")
    out.append("")
    out.append("[tracer]")
    out.append(f"seed = {s.tracer.seed[0]}, {s.tracer.seed[1]}")
    out.append(f"step = {s.tracer.step}")
    out.append(f"max_steps = {s.tracer.max_steps}")
    if s.output.dot or s.output.svg:
        out.append("")
        out.append("[output]")
        if s.output.dot:
            out.append(f"dot = {s.output.dot}")
        if s.output.svg:
            out.append(f"svg = {s.output.svg}")
    return "\n".join(out) + "\n"


# -- building ------------------------------------------------------------------------


@dataclass
class BuiltScenario:
    scenario: Scenario
    table: sc.SymbolTable
    presentations: dict[str, OrbifoldPresentation]
    forms: dict[str, ClosedForm]
    models: dict[str, FoliationModel]
    final: FoliationModel


def _expr_value(table: sc.SymbolTable, expr: Expr) -> sc.SymScalar:
    return table.combination([(coef, name) for name, coef in expr])


def build_scenario(s: Scenario) -> BuiltScenario:
    table = sc.SymbolTable([(n, v) for n, v, _ in s.symbols])
    presentations: dict[str, OrbifoldPresentation] = {}
    for o in s.orbifolds:
        if o.builtin:
            builtin = BUILTIN_ORBIFOLDS[o.builtin]
            if o.basepoint is None:
                presentations[o.name] = builtin
                continue
            action = builtin.action
        else:
            maps = [AffineMap.identity()]
            for (a, b, c, d), off in o.elements:
                m = AffineMap.of(((a, b), (c, d)), off)
                if not m.is_identity():
                    maps.append(m)
            action = GroupAction(maps)
        presentations[o.name] = OrbifoldPresentation(action, o.basepoint or DEFAULT_BASEPOINT)
    forms: dict[str, ClosedForm] = {}
    models: dict[str, FoliationModel] = {}
    for f in s.forms:
        bumps = tuple(
            BumpTerm(
                center=TorusPoint(*b.center),
                radius=b.radius,
                amplitude=_expr_value(table, b.amplitude),
            )
            for b in f.bumps
        )
        form = ClosedForm(
            linear=(_expr_value(table, f.dtheta), _expr_value(table, f.dphi)),
            orbifold=presentations[f.on],
            bumps=bumps,
            basic_override=f.basic_override,
        )
        forms[f.name] = form
        models[f.name] = analyze(form, f.name)
    for g in s.surgeries:
        spec = SurgerySpec(
            kind=g.kind,
            left=models[g.left],
            right=models[g.right],
            left_window=(
                _expr_value(table, g.left_window[0]),
                _expr_value(table, g.left_window[1]),
            ),
            right_window=(
                _expr_value(table, g.right_window[0]),
                _expr_value(table, g.right_window[1]),
            ),
            tube_levels=(_expr_value(table, g.tube[0]), _expr_value(table, g.tube[1])),
            left_region=g.left_region,
            right_region=g.right_region,
            name=g.name,
        )
        models[g.name] = connected_sum(spec)
    if s.surgeries:
        final = models[s.surgeries[-1].name]
    elif len(s.forms) == 1:
        final = models[s.forms[0].name]
    else:
        raise ScenarioError("several forms and no surgery; the final model is ambiguous")
    return BuiltScenario(s, table, presentations, forms, models, final)


# -- reports -------------------------------------------------------------------------


def _leaf_counts(model: FoliationModel) -> dict[str, int]:
    counts = {"CompactRegular": 0, "NoncompactRegular": 0, "CompactSingular": 0,
              "NoncompactSingular": 0}
    for leaf in model.catalog:
        counts[leaf.kind] += 1
    return counts


def _graph_lines(graph, indent: str) -> list[str]:
    lines = [f"v{vid}: {v.kind}" + (f" ref {v.ref}" if v.ref else "")
             for vid, v in sorted(graph.vertices.items())]
    lines += [f"v{e.src} -> v{e.dst} weight {e.weight.render()} family {e.family}"
              for _, e in sorted(graph.edges.items())]
    lines += [f"attach v{a.zero_vertex} <-> v{a.special_vertex} ({a.mode})"
              for a in graph.attachments]
    return [indent + line for line in lines]


def build_report(built: BuiltScenario, command: str) -> str:
    model = built.final
    lines = [f"foliage report :: command {command}", ""]
    lines.append("== scenario ==")
    for name, value, _ in built.scenario.symbols:
        lines.append(f"symbol {name} = {value} (independent)")
    for o in built.scenario.orbifolds:
        kind = o.builtin if o.builtin else f"custom ({len(o.elements) + 1} elements)"
        lines.append(f"orbifold {o.name}: {kind}")
    for f in built.scenario.forms:
        ov = " [basic_override]" if f.basic_override else ""
        lines.append(
            f"form {f.name} on {f.on}: ({render_expr(f.dtheta)})*dtheta"
            f" + ({render_expr(f.dphi)})*dphi{ov}"
        )
    for g in built.scenario.surgeries:
        lines.append(
            f"surgery {g.name}: kind {g.kind}, {g.left} # {g.right}, tube "
            f"{render_expr(g.tube[0])} : {render_expr(g.tube[1])}"
        )
    lines.append("")

    lines.append("== basicness ==")
    for name in sorted(built.forms):
        form = built.forms[name]
        honest = invariance_verdict(form)
        verdict = "invariant" if honest else "NOT invariant"
        note = ""
        if not honest and form.basic_override:
            note = " (declared-basic override active; recorded)"
        lines.append(f"{name}: {verdict}{note}")
    for note in model.notes:
        lines.append(f"note: {note}")
    lines.append("")

    lines.append("== zeros ==")
    if not model.zeros:
        lines.append("(none)")
    else:
        for zid, level in model.singular_levels():
            z = next(z for z in model.zeros if z.zero_id == zid)
            lines.append(
                f"{zid}: index {z.index}, isotropy {z.isotropy_order}, level {level.render()}"
            )
    lines.append("")

    lines.append("== periods ==")
    for name in sorted(built.forms):
        pairs = built.models[name].sides[0].generators  # integrated once, by analyze
        rank = sc.q_rank([v for _, v in pairs])
        rendered = ", ".join(f"{g} = {v.render()}" for g, v in pairs)
        lines.append(f"{name}: {rendered}; rank {rank}")
    lines.append("")

    lines.append("== leaves ==")
    counts = _leaf_counts(model)
    lines.append(
        "counts: compact regular {CompactRegular}, noncompact regular {NoncompactRegular}, "
        "compact singular {CompactSingular}, noncompact singular {NoncompactSingular}".format(**counts)
    )
    for leaf in model.catalog:
        comps = ""
        if leaf.components:
            comps = " components: " + ", ".join(
                f"{cid}({'compact' if flag else 'noncompact'})" for cid, flag in leaf.components
            )
        lines.append(f"{leaf.leaf_id}: {leaf.kind}{comps}")
    lines.append("")

    lines.append("== decomposition ==")
    d = model.decomposition
    lines.append("X_c: " + (", ".join(sorted(d.x_c)) if d.x_c else "(empty)"))
    if d.x_inf_components:
        ranks = dict(d.restricted_ranks)
        for cid, leaves_set in d.x_inf_components:
            rank = ranks.get(cid)
            lines.append(
                f"X_inf component {cid} (restricted rank {rank}): "
                + ", ".join(sorted(leaves_set))
            )
    else:
        lines.append("X_inf: (empty)")
    lines.append(
        "boundary: "
        + (", ".join(f"{leaf}->{comp}" for leaf, comp in d.boundary) if d.boundary else "(empty)")
    )
    for flag in d.flags:
        lines.append(f"flag: {flag}")
    lines.append("")

    lines.append("== graph ==")
    lines.extend(_graph_lines(model.graph, ""))
    lines.append("")

    lines.append("== verdicts ==")
    decided = verdicts(model)
    if decided.companion is not model:
        lines.append("genericized companion used for the graph verdict:")
        lines.extend(_graph_lines(decided.companion.graph, "  "))
    if decided.calabi is None:
        route = "positive straight loop from nonvanishing periods"
    else:
        lines.append(f"Calabi graph: {'yes' if decided.calabi else 'no'}")
        route = "Calabi graph criterion on the leaf-space graph"
    lines.append(f"transitive: {'yes' if decided.transitive else 'no'} ({route})")
    lines.append(
        f"intrinsically harmonic: {decided.harmonicity} "
        "(criterion: transitivity; no metric constructed)"
    )
    lines.append("")

    lines.append("== factorization witness ==")
    witness = factorization_witness(model)
    if witness is None:
        lines.append("absent (a noncompact leaf exists)")
    else:
        lines.append(f"free rank of graph: {witness.free_rank}")
        for gen_id, period, walk in witness.checks:
            ok = "ok" if period == walk else "MISMATCH"
            lines.append(f"{gen_id}: period {period.render()} = walk {walk.render()} [{ok}]")
    lines.append("")
    return "\n".join(lines)


# -- SVG ------------------------------------------------------------------------------


def render_svg(polyline, presentation) -> str:
    """A 512x512 picture of the unit square: traced leaf and cone points."""
    size = 512
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    if polyline:
        runs: list[list[tuple[float, float]]] = [[]]
        prev = None
        for x, y in polyline:
            if prev is not None and (abs(x - prev[0]) > 0.5 or abs(y - prev[1]) > 0.5):
                runs.append([])
            runs[-1].append((x, y))
            prev = (x, y)
        for run in runs:
            if len(run) < 2:
                continue
            points = " ".join([f"{x * size:.2f},{(1.0 - y) * size:.2f}" for x, y in run])
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="#1f6feb" stroke-width="1"/>'
            )
    if presentation is not None:
        for p in presentation.singular_points_on_grid(denominator=8):
            x, y = float(p.theta), float(p.phi)
            parts.append(
                f'<rect x="{x * size - 4:.2f}" y="{(1.0 - y) * size - 4:.2f}" '
                'width="8" height="8" fill="none" stroke="crimson" stroke-width="1.5"/>'
            )
    # traced models are zero-free (surgered ones are combinatorial and cannot
    # be traced), so no zero markers ever appear here
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- commands -------------------------------------------------------------------------


def run_examples() -> tuple[str, int]:
    lines = ["built-in catalog check", ""]
    failures = 0
    for name, expected in builtin_catalog.EXAMPLES:
        built = build_scenario(parse_scenario(builtin_catalog.SCENARIOS[name]))
        model = built.final
        decided = verdicts(model)
        got = {
            "transitive": decided.transitive,
            "has_compact_leaf": any(l.compact for l in model.catalog),
            "has_noncompact_leaf": any(not l.compact for l in model.catalog),
            "compact_singular_components": len(model.decomposition.boundary),
            "harmonic": decided.harmonicity,
        }
        row_ok = True
        for key, want in expected.items():
            if want is None:
                continue
            if got[key] != want:
                row_ok = False
        status = "ok " if row_ok else "FAIL"
        failures += 0 if row_ok else 1
        lines.append(
            f"[{status}] {name}: transitive={got['transitive']} "
            f"compact_leaves={got['has_compact_leaf']} "
            f"noncompact_leaves={got['has_noncompact_leaf']} "
            f"compact_singular_components={got['compact_singular_components']} "
            f"harmonic={got['harmonic']}"
        )
    lines.append("")
    lines.append(f"{len(builtin_catalog.EXAMPLES) - failures}/{len(builtin_catalog.EXAMPLES)} rows match")
    return "\n".join(lines) + "\n", (1 if failures else 0)


def run(command: str, built: Optional[BuiltScenario], options: Optional[dict] = None):
    """Execute a command; returns (report text, artifacts dict, exit code)."""
    options = options or {}
    if command == "examples":
        text, code = run_examples()
        return text, {}, code
    if built is None:
        raise ScenarioError("this command needs a scenario file")
    artifacts: dict[str, str] = {}
    code = 0
    report = build_report(built, command)
    if command == "graph" or built.scenario.output.dot or options.get("dot"):
        artifacts["dot"] = built.final.graph.to_dot()
    if command == "trace":
        form = built.final.form
        if form is None:
            raise ScenarioError("trace works on unsurgered forms only")
        seed_decl = options.get("seed") or built.scenario.tracer.seed
        result = trace_leaf(
            form,
            TorusPoint(*seed_decl),
            step=float(options.get("step") or built.scenario.tracer.step),
            max_steps=int(options.get("steps") or built.scenario.tracer.max_steps),
            collect_polyline=True,
        )
        extra = [f"trace verdict: {result.verdict}"]
        if result.verdict == "Closed":
            extra.append(
                f"period length {result.period_length:.9f}, return error {result.return_error:.3e}"
            )
        elif result.verdict == "DenseEvidence":
            extra.append(f"grid coverage {result.coverage:.4f}")
        else:
            extra.append(f"reason: {result.reason}")
            code = 3
        report += "== trace ==\n" + "\n".join(extra) + "\n"
        artifacts["svg"] = render_svg(result.polyline, form.orbifold)
    return report, artifacts, code


def _seed_arg(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not 'theta,phi'")
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a pair of rationals") from None


def _step_arg(text: str) -> float:
    try:
        step = float(text)
    except ValueError:
        step = math.nan
    if not (math.isfinite(step) and step > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return step


def _steps_arg(text: str) -> int:
    try:
        steps = int(text)
    except ValueError:
        steps = 0
    if steps < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return steps


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="foliage",
        description="foliations of closed 1-forms on flat 2-orbifolds",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenario", nargs="?", help="scenario file (or built-in name)")
    parser.add_argument("--dot", help="write the leaf graph in DOT form here")
    parser.add_argument("--svg", help="write the trace picture here")
    parser.add_argument("--seed", type=_seed_arg, help="tracer seed 'theta,phi'")
    parser.add_argument("--steps", type=_steps_arg, help="tracer step budget")
    parser.add_argument("--step", type=_step_arg, help="tracer step size")
    args = parser.parse_args(argv)

    try:
        built = None
        if args.command != "examples":
            if not args.scenario:
                parser.error("this command needs a scenario file")
            if args.scenario in builtin_catalog.SCENARIOS:
                text = builtin_catalog.SCENARIOS[args.scenario]
            else:
                with open(args.scenario, encoding="utf-8") as fh:
                    text = fh.read()
            built = build_scenario(parse_scenario(text))
        options = {}
        if args.seed:
            options["seed"] = args.seed
        if args.steps:
            options["steps"] = args.steps
        if args.step:
            options["step"] = args.step
        if args.dot:
            options["dot"] = args.dot
        report, artifacts, code = run(args.command, built, options)
    except (FoliageError, OSError) as err:
        if isinstance(err, PrecisionExhausted):
            print(f"numeric failure: {err}", file=sys.stderr)
            return 3
        print(f"scenario error: {err}", file=sys.stderr)
        return 2

    print(report, end="")
    dot_path = args.dot or (built.scenario.output.dot if built else None)
    if dot_path and "dot" in artifacts:
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(artifacts["dot"])
    svg_path = args.svg or (built.scenario.output.svg if built else None)
    if svg_path and "svg" in artifacts:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(artifacts["svg"])
    return code


if __name__ == "__main__":
    sys.exit(main())
