"""Scenario files, reports, DOT/SVG emission and the command-line surface.

Scenario format: line-oriented ``key = value`` under ``[section name]``
headers.  Rationals are written ``p/q``, symbolic expressions as linear
combinations ``c0 + c1*name + ...``, level windows as ``lo : hi``.  Identical
scenario text always produces byte-identical reports and DOT output.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from . import scalar as sc
from . import catalog as builtin_catalog
from .forms import ClosedForm, BumpTerm
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
    build_joins,
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

Expr = tuple[tuple[str, int | Fraction], ...]  # ((symbol name, coefficient), ...) sorted


class OrbifoldDecl(namedtuple("OrbifoldDecl", "name builtin elements basepoint",
                              defaults=(None, (), None))):
    """An orbifold by builtin name or by its elements, each a matrix (a, b, c, d)
    and an offset, with an optional basepoint.  The defaults stay on the
    fields, where the scenario format reads them."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.builtin is None) == (not self.elements):
            raise ScenarioError(f"[orbifold {self.name}] needs either builtin or element lines")
        if self.builtin is not None and self.builtin not in BUILTIN_ORBIFOLDS:
            raise ScenarioError(f"unknown builtin orbifold {self.builtin!r}")
        return self


class BumpDecl(NamedTuple):
    center: tuple[Fraction, Fraction]
    radius: Fraction
    amplitude: Expr


class FormDecl(NamedTuple):
    name: str
    on: str
    dtheta: Expr
    dphi: Expr
    basic_override: bool = False
    bumps: tuple[BumpDecl, ...] = ()


class SurgeryDecl(NamedTuple):
    name: str
    kind: str
    left: str
    right: str
    left_window: tuple[Expr, Expr]
    right_window: tuple[Expr, Expr]
    tube: tuple[Expr, Expr]
    left_region: str = "auto"
    right_region: str = "auto"


class TracerDecl(NamedTuple):
    seed: tuple[Fraction, Fraction] = (Fraction(1, 8), Fraction(1, 8))
    step: float = 0.005
    max_steps: int = 1_000_000


class OutputDecl(NamedTuple):
    dot: Optional[str] = None
    svg: Optional[str] = None


class Scenario(NamedTuple):
    symbols: tuple[tuple[str, str, int | Fraction], ...] = ()  # (name, literal, its value)
    orbifolds: tuple[OrbifoldDecl, ...] = ()
    forms: tuple[FormDecl, ...] = ()
    surgeries: tuple[SurgeryDecl, ...] = ()
    tracer: TracerDecl = TracerDecl()
    output: OutputDecl = OutputDecl()


# -- values ---------------------------------------------------------------------------


def _parse_rational(text: str, line: int) -> int | Fraction:
    """The rational a scenario writes, read by `scalar.read_rational`."""
    try:
        return sc.read_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"bad rational {text!r}", line) from None


def render_expr(expr: Expr) -> str:
    return " + ".join(str(c) if name == "one" else f"{c}*{name}" for name, c in expr) or "0"


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


# each reader takes (key, text, line, symbol names) and returns the field's value


# one term in ASCII: an integer or p/q, times an identifier, or an identifier
_TERM = re.compile(r"[ \t]*(?:(-?[0-9]+)(?:/([0-9]+))?(?:[ \t]*\*[ \t]*([A-Za-z_]\w*))?"
                   r"|([A-Za-z_]\w*))[ \t]*", re.ASCII)


def _expr(key: str, text: str, line: int, names: set[str]) -> Expr:
    """An expression ``c0 + c1*name + ...`` over the declared symbols.  One
    `_TERM` is read at once; any other text, and a term that fails, go
    through the loop, which reads each spelling and writes each error."""
    match = _TERM.fullmatch(text)
    if match:
        num, den, name, bare = match.groups()
        name = name or bare or "one"
        if name == "one" or name in names:
            try:
                coef = Fraction(int(num), int(den)) if den else int(num or 1)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                return ((name, coef),) if coef else ()
    coeffs: dict[str, int | Fraction] = {}
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ScenarioError(f"empty term in expression {text!r}", line)
        numeral = term.replace("-", "").replace("/", "").replace(".", "").isdigit()
        if "*" in term:
            coef_text, _, name = term.partition("*")
            name = name.strip()
            coef = _parse_rational(coef_text, line)
            if not name.isidentifier():
                raise ScenarioError(f"bad term {term!r}: terms are joined by '+'", line)
        elif term.isidentifier() or term in names and not numeral:
            name, coef = term, 1
        else:
            # a numeral, or a bare term that names no symbol: a constant
            name, coef = "one", _parse_rational(term, line)
        if name != "one" and name not in names:
            raise ScenarioError(f"unresolved symbol {name!r}", line)
        if name in coeffs:
            coef = coeffs[name] + coef
            # a sum of accepted literals can outgrow what a report may write
            if max(abs(coef.numerator), coef.denominator) >= 10**sc.LITERAL_DIGITS:
                raise ScenarioError(
                    f"coefficient of {name!r} expands past {sc.LITERAL_DIGITS} digits", line)
        coeffs[name] = coef
    return tuple(sorted((n, c) for n, c in coeffs.items() if c))


def _text(key, text, line, names):
    return text


def _levels(key, text, line, names):
    parts = text.split(":")
    if len(parts) != 2:
        raise ScenarioError(f"expected '<lo> : <hi>', got {text!r}", line)
    return _expr(key, parts[0], line, names), _expr(key, parts[1], line, names)


def _point(key, text, line, names):
    parts = text.split(",")
    if len(parts) != 2:
        raise ScenarioError(f"{key} needs 'theta, phi'", line)
    return _parse_rational(parts[0], line), _parse_rational(parts[1], line)


def _one_of(what: str, allowed):
    """A reader of a name that must be one of allowed."""

    def read(key, text, line, names):
        if text not in allowed:
            raise ScenarioError(f"unknown {what} {text!r}", line)
        return text

    return read


def _boolean(key, text, line, names):
    if text.lower() not in ("true", "false"):
        raise ScenarioError(f"{key} must be true or false, got {text!r}", line)
    return text.lower() == "true"


def _element(key, text, line, names):
    mat_text, _, off_text = text.partition(";")
    mat = mat_text.split()
    off = off_text.split()
    if len(mat) != 4 or len(off) != 2:
        raise ScenarioError("element needs 'a b c d ; e f'", line)
    try:
        matrix = tuple(int(x) for x in mat)
    except ValueError:
        raise ScenarioError("matrix entries must be integers", line) from None
    return matrix, (_parse_rational(off[0], line), _parse_rational(off[1], line))


def _bump(key, text, line, names):
    words = text.split()
    if len(words) < 7 or words[0] != "center" or words[3] != "radius" or words[5] != "amplitude":
        raise ScenarioError("bump needs 'center <th> <ph> radius <r> amplitude <expr>'", line)
    return BumpDecl(
        center=(_parse_rational(words[1], line), _parse_rational(words[2], line)),
        radius=_parse_rational(words[4], line),
        amplitude=_expr(key, " ".join(words[6:]), line, names),
    )


def _as_flag(convert):
    """A reader that checks its value as the matching command-line flag does."""

    def read(key, text, line, names):
        try:
            return convert(text)
        except argparse.ArgumentTypeError as err:
            raise ScenarioError(f"{key}: {err}", line) from None

    return read


def _write_point(point) -> str:
    return f"{point[0]}, {point[1]}"


def _write_levels(pair) -> str:
    return f"{render_expr(pair[0])} : {render_expr(pair[1])}"


def _write_bump(b: BumpDecl) -> str:
    return (f"center {b.center[0]} {b.center[1]} radius {b.radius} "
            f"amplitude {render_expr(b.amplitude)}")


# -- the scenario format ------------------------------------------------------------


def _row(target: str, decl, **keys):
    """A section kind: the `Scenario` field its declarations go to, their
    type, whether the header names one, and per key (field, reader, writer,
    default, required, repeats): no default makes a key required, and a `()`
    default lets it repeat; both are decided here, once, not per parse."""
    defaults = decl._field_defaults
    return target, decl, "name" in decl._fields, {
        key: (field, read, write, defaults.get(field), field not in defaults,
              defaults.get(field) == ()) for key, (field, read, write) in keys.items()
    }


# [symbols] is read apart, because its keys are the symbol names
FORMAT = {
    "orbifold": _row(
        "orbifolds", OrbifoldDecl,
        builtin=("builtin", _one_of("builtin orbifold", BUILTIN_ORBIFOLDS), str),
        element=("elements", _element, lambda e: "{} {} {} {} ; {} {}".format(*e[0], *e[1])),
        basepoint=("basepoint", _point, _write_point),
    ),
    "form": _row(
        "forms", FormDecl,
        on=("on", _text, str),
        dtheta=("dtheta", _expr, render_expr),
        dphi=("dphi", _expr, render_expr),
        basic_override=("basic_override", _boolean, lambda b: str(b).lower()),
        bump=("bumps", _bump, _write_bump),
    ),
    "surgery": _row(
        "surgeries", SurgeryDecl,
        kind=("kind", _one_of("surgery kind", ("A", "B", "C")), str),
        left=("left", _text, str),
        right=("right", _text, str),
        left_window=("left_window", _levels, _write_levels),
        right_window=("right_window", _levels, _write_levels),
        tube=("tube", _levels, _write_levels),
        left_region=("left_region", _text, str),
        right_region=("right_region", _text, str),
    ),
    "tracer": _row(
        "tracer", TracerDecl,
        seed=("seed", _point, _write_point),
        step=("step", _as_flag(_step_arg), str),
        max_steps=("max_steps", _as_flag(_steps_arg), str),
    ),
    "output": _row(
        "output", OutputDecl,
        dot=("dot", _text, str),
        svg=("svg", _text, str),
    ),
}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; every reference must resolve."""
    if not text.strip():  # line breaks are whitespace too: no line holds anything
        raise ScenarioError("empty scenario", 1)
    sections: list[tuple[str, str, dict[str, list[tuple[str, int]]]]] = []
    body = allowed = None  # the current section's key lines and the keys it allows
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            parts = line[1:-1].split()
            if len(parts) not in (1, 2):
                raise ScenarioError(f"bad section header {line!r}", i)
            kind = parts[0]
            if kind == "symbols":
                named, allowed = False, None
            elif kind not in FORMAT:
                raise ScenarioError(f"unknown section {kind!r}", i)
            else:
                _, _, named, allowed = FORMAT[kind]
                if named and len(parts) != 2:
                    raise ScenarioError(f"section {kind!r} needs a name", i)
                if not named and any(k == kind for k, _, _ in sections):
                    raise ScenarioError(f"repeated section [{kind}]", i)
            if not named and len(parts) == 2:
                raise ScenarioError(f"section {kind!r} takes no name", i)
            body = {}
            sections.append((kind, parts[1] if len(parts) == 2 else "", body))
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(f"expected 'key = value', got {line!r}", i)
        if body is None:
            raise ScenarioError("key outside any [section]", i)
        key = key.rstrip()  # the line is stripped: each part has one open side
        if allowed is not None and key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in [{kind}]", i)
        body.setdefault(key, []).append((value.lstrip(), i))

    symbols: list[tuple[str, str, int | Fraction]] = []
    names: set[str] = set()
    listed: dict[str, list] = {}  # the declarations of each named section kind
    found: dict[str, object] = {}  # the declaration of each other section kind
    for kind, name, items in sections:
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
                    if not sym.isidentifier():
                        raise ScenarioError(f"symbol name {sym!r} is not an identifier", i)
                    if sym in names or sym == "one":
                        raise ScenarioError(f"duplicate symbol {sym!r}", i)
                    try:
                        exact = sc.read_symbol(sym, parts[0])
                    except sc.ScalarError as err:
                        raise ScenarioError(str(err), i) from None
                    names.add(sym)
                    symbols.append((sym, parts[0], exact))
            continue
        target, decl, named, keys = FORMAT[kind]
        values = {"name": name} if named else {}
        for key, (field, read, _, _, required, repeats) in keys.items():
            entries = items.get(key)
            if entries is None:
                if required:
                    raise ScenarioError(f"[{kind} {name}".rstrip() + f"] is missing key {key!r}")
            elif repeats:
                values[field] = tuple(read(key, value, i, names) for value, i in entries)
            elif len(entries) != 1:
                raise ScenarioError(f"[{kind} {name}".rstrip() + f"] repeats key {key!r}",
                                    entries[1][1])
            else:
                value, i = entries[0]
                values[field] = read(key, value, i, names)
        if named:
            listed.setdefault(target, []).append(decl(**values))
        else:
            found[target] = decl(**values)

    found.update((target, tuple(decls)) for target, decls in listed.items())
    scenario = Scenario(symbols=tuple(symbols), **found)
    _validate_refs(scenario)
    return scenario


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


def serialize_scenario(s: Scenario) -> str:
    """Scenario text that parses back to `s`; keys at their defaults, and
    sections with nothing else, are left out."""
    out = ["[symbols]"] + [f"{name} = {literal}" for name, literal, _ in s.symbols]
    for kind, (target, _, named, keys) in FORMAT.items():
        for decl in getattr(s, target) if named else (getattr(s, target),):
            lines = []
            for key, (field, _, write, default, _, repeats) in keys.items():
                value = getattr(decl, field)
                if not repeats:
                    value = () if value == default else (value,)
                lines += [f"{key} = {write(item)}" for item in value]
            if named or lines:
                out += ["", f"[{kind} {decl.name}]" if named else f"[{kind}]", *lines]
    return "\n".join(out) + "\n"


# -- building ------------------------------------------------------------------------


class BuiltScenario(NamedTuple):
    scenario: Scenario
    table: sc.SymbolTable
    presentations: dict[str, OrbifoldPresentation]
    forms: dict[str, ClosedForm]
    models: dict[str, FoliationModel]
    final: FoliationModel


def _expr_value(table: sc.SymbolTable, expr: Expr) -> sc.SymScalar:
    return table.combination([(coef, name) for name, coef in expr])


def build_scenario(s: Scenario) -> BuiltScenario:
    table = sc.SymbolTable(s.symbols)
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
    # equal declarations on one presentation object share one form, which
    # keeps its invariance, structure and periods; each name still gets its model
    built_forms: dict[tuple, ClosedForm] = {}
    for f in s.forms:
        orbifold = presentations[f.on]
        key = (id(orbifold), f.dtheta, f.dphi, f.bumps, f.basic_override)
        form = built_forms.get(key)
        if form is None:
            bumps = tuple(
                BumpTerm(
                    center=TorusPoint(*b.center),
                    radius=b.radius,
                    amplitude=_expr_value(table, b.amplitude),
                )
                for b in f.bumps
            )
            form = built_forms[key] = ClosedForm(
                linear=(_expr_value(table, f.dtheta), _expr_value(table, f.dphi)),
                orbifold=orbifold,
                bumps=bumps,
                basic_override=f.basic_override,
            )
        forms[f.name] = form
        models[f.name] = analyze(form, f.name)
    def levels(pair):
        return _expr_value(table, pair[0]), _expr_value(table, pair[1])

    # the surgery tree as plain data: a form by its model, a join by its spec
    nodes: dict[str, FoliationModel | SurgerySpec] = dict(models)
    specs = []
    for g in s.surgeries:
        nodes[g.name] = spec = SurgerySpec(
            kind=g.kind,
            left=nodes[g.left],
            right=nodes[g.right],
            left_window=levels(g.left_window),
            right_window=levels(g.right_window),
            tube_levels=levels(g.tube),
            left_region=g.left_region,
            right_region=g.right_region,
            name=g.name,
        )
        specs.append(spec)
    if specs:
        final = build_joins(models, specs)
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
    lines += [f"attach v{a.zero_vertex} <-> v{a.special_vertex} (both)"
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
        honest = form.invariant
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
        for z in sorted(model.zeros, key=lambda z: z.zero_id):
            lines.append(f"{z.zero_id}: index {z.index}, isotropy {z.isotropy_order}, "
                         f"level {z.level.render()}")
    lines.append("")

    lines.append("== periods ==")
    for name in sorted(built.forms):
        form = built.forms[name]
        rendered = ", ".join(f"{g} = {v.render()}" for g, v in form.loop_periods)
        lines.append(f"{name}: {rendered}; rank {form.period_rank}")
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
    polyline = polyline or []  # an inconclusive trace may carry none
    # a leaf that wraps around the square starts a new run of the polyline
    cuts = [
        i
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(polyline, islice(polyline, 1, None)), 1)
        if not (-0.5 <= x1 - x0 <= 0.5 and -0.5 <= y1 - y0 <= 0.5)
    ]
    for lo, hi in zip([0, *cuts], [*cuts, len(polyline)]):
        if hi - lo < 2:
            continue
        points = " ".join(["%.2f,%.2f" % (x * size, (1.0 - y) * size) for x, y in polyline[lo:hi]])
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
            "has_noncompact_leaf": not model.all_leaves_compact(),
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
        return sc.read_rational(parts[0]), sc.read_rational(parts[1])
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a pair of rationals") from None


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
        if args.command == "examples":
            if args.scenario:
                parser.error("examples takes no scenario")
        else:
            if not args.scenario:
                parser.error("this command needs a scenario file")
            if args.scenario in builtin_catalog.SCENARIOS:
                text = builtin_catalog.SCENARIOS[args.scenario]
            else:
                try:
                    with open(args.scenario, encoding="utf-8") as fh:
                        # some editors start a UTF-8 file with a byte order mark
                        text = fh.read().removeprefix("\ufeff")
                except UnicodeDecodeError as err:
                    raise ScenarioError(
                        f"{args.scenario}: not UTF-8 text (byte {err.start}: {err.reason})"
                    ) from None
            built = build_scenario(parse_scenario(text))
        report, artifacts, code = run(args.command, built, vars(args))
        for kind, text in artifacts.items():
            path = getattr(args, kind) or getattr(built.scenario.output, kind)
            if path:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
    except (FoliageError, OSError) as err:
        if isinstance(err, PrecisionExhausted):
            print(f"numeric failure: {err}", file=sys.stderr)
            return 3
        print(f"scenario error: {err}", file=sys.stderr)
        return 2

    print(report, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
