import random
from fractions import Fraction

import pytest

from foliage import SymbolTable
from foliage.catalog import SCENARIOS
from foliage.cli import build_scenario, parse_scenario

SQRT2 = "1.41421356237309504880168872420969807857"
SQRT3 = "1.73205080756887729352744634150587236694"
SQRT5 = "2.23606797749978969640917366873127623544"
PI = "3.14159265358979323846264338327950288420"


@pytest.fixture
def table():
    return SymbolTable([("p", PI), ("q", SQRT2)])


@pytest.fixture
def rng():
    return random.Random(20240817)


def build_catalog_model(name):
    """Final model of a built-in scenario."""
    return build_scenario(parse_scenario(SCENARIOS[name])).final


# the steps of a join that tests hook or call, by the name foliage gives
# each and the arguments it takes; an internal rename touches only this table
JOIN_STEPS = {
    "build": "build_joins",  # (models, specs, shifts=None) -> the last output
    "join": "_join",  # (spec, left, right, extend) -> the record, unfinished
    "pinch": "_rebuild_c_as_pinch",  # as "join": a kind-C rejoin whose levels came apart
    "sites": "_sites",  # (spec, left, right) -> the two disk sites
    "merge": "_merge",  # (spec, left, right, extend, sites) -> the record, inputs copied in
    "apply pinch": "_apply_pinch",  # (model, low, high, low level, high level, low id, high id)
    "rebuild": "_rebuild_with_shifts",  # (model, shifts) -> the companion, finished
    "analyze": "analyze",  # (form, name) -> a virgin model, finished
    "connected_sum": "connected_sum",  # (spec) -> the joined model, finished
    "genericize": "genericize",  # (model) -> the companion
}


def join_step(step):
    """The function foliage runs for a step of a join."""
    from foliage import surgery

    return getattr(surgery, JOIN_STEPS[step])


def hook_join(monkeypatch, step, wrap):
    """Make every call of a join step, in surgery and wherever cli imported
    it, run wrap(real, *args) instead."""
    from foliage import cli, surgery

    name, real = JOIN_STEPS[step], join_step(step)

    def hooked(*args, **kwargs):
        return wrap(real, *args, **kwargs)

    for module in (surgery, cli):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, hooked)


def spec_tree_nodes(model):
    """Every spec and model in the surgery tree under a model's spec, walked
    with a stack of its own."""
    from foliage.surgery import SurgerySpec

    todo = [] if model.spec is None else [model.spec]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, SurgerySpec):
            todo += [node.left, node.right]


def random_rational(rng, max_den=8, max_num=8):
    den = rng.randint(1, max_den)
    num = rng.randint(-max_num, max_num)
    return Fraction(num, den)


def random_gpath(rng, pres, start, n_segments):
    """Random piecewise-linear path with group arrows; returns (path, end)."""
    from foliage.orbifold import GPath, TorusPoint

    cur = start
    segments = []
    arrows = []
    for i in range(n_segments):
        waypoints = [cur]
        for _ in range(rng.randint(1, 3)):
            cur = (cur[0] + random_rational(rng), cur[1] + random_rational(rng))
            waypoints.append(cur)
        segments.append(waypoints)
        if i < n_segments - 1:
            g = rng.randrange(len(pres.action.elements))
            arrows.append(g)
            nxt = pres.action.elements[g].apply(TorusPoint(*cur))
            cur = (Fraction(nxt.theta), Fraction(nxt.phi))
    return GPath.of(pres, segments, arrows), cur


def close_up(rng, pres, start, n_segments):
    """Random loop: a random path whose last segment is extended to a lift of
    its own start point."""
    from foliage.orbifold import GPath

    path, cur = random_gpath(rng, pres, start, n_segments)
    lift = (start[0] + round(cur[0] - start[0]), start[1] + round(cur[1] - start[1]))
    segments = [list(s) for s in path.segments]
    segments[-1].append(lift)
    return GPath.of(pres, segments, path.arrows)


def surgery_chain(kind, n):
    """n + 1 dense pillowcase forms joined in sequence by surgeries of one kind
    through the noncompact components; kind C puts both tube levels at
    i/(4n+8), kind A at i/(4n+8) : (i+1)/(4n+8), and kind B pinches at
    1/2 + i/(4n+8) in the left window [1/2, 1] and at i/(4n+8) in the right
    window [0, 1/2]."""
    out = ["[symbols]", f"p = {PI}", f"q = {SQRT2}"]
    for i in range(n + 1):
        out += [f"[orbifold Q{i}]", "builtin = pillowcase", f"[form w{i}]", f"on = Q{i}",
                "dtheta = 1*p", "dphi = 1*q", "basic_override = true"]
    d = 4 * n + 8
    for i in range(1, n + 1):
        out += [f"[surgery s{i}]", f"kind = {kind}", f"left = {'w0' if i == 1 else f's{i - 1}'}",
                f"right = w{i}", "left_region = w0.inf", f"right_region = w{i}.inf"]
        if kind == "B":
            out += ["left_window = 1/2 : 1", "right_window = 0 : 1/2",
                    f"tube = {i + d // 2}/{d} : {i}/{d}"]
        else:
            out += ["left_window = 0 : 1", "right_window = 0 : 1",
                    f"tube = {i}/{d} : {i + (kind == 'A')}/{d}"]
    return "\n".join(out) + "\n"


def cyclic_presentation(matrix, offset=(0, 0)):
    """The cyclic group one affine map generates, as a presentation, listed
    by powers of the generator."""
    from foliage.orbifold import AffineMap, GroupAction, OrbifoldPresentation

    g = AffineMap.of(matrix, offset)
    elements = [AffineMap.identity()]
    while (h := g.compose(elements[-1])) != elements[0]:
        elements.append(h)
    return OrbifoldPresentation(GroupAction(elements))


# the order-6 rotations of the hexagonal lattice, generated by the element
# line `0 -1 1 1`; of its six elements only the identity and the half-turn
# are isometries of the square torus
HEXAGONAL_MATRIX = ((0, -1), (1, 1))


def random_connected_digraphs(rng, count, table=None):
    from foliage.graph import digraph_from_arcs
    from foliage.scalar import SymbolTable

    table = table or SymbolTable()
    made = 0
    while made < count:
        n = rng.randint(2, 10)
        p = rng.choice([0.15, 0.25, 0.4, 0.6])
        arcs = [(i, j) for i in range(n) for j in range(n) if rng.random() < p]
        g = digraph_from_arcs(n, arcs, table)
        if not g.underlying_connected():
            continue
        made += 1
        yield g


# the linear parts a random tree draws, (dtheta, dphi) as scenario text
TREE_FORMS = [
    ("1", "0"), ("0", "1"), ("2", "3"), ("1/2", "0"), ("1/3", "2/3"),
    ("1*p", "0"), ("1*p", "2*p"), ("1*p", "1*q"), ("1", "1*q"),
]
TREE_BUMPS = [
    ((Fraction(1, 4), Fraction(1, 8)), Fraction(1, 16), "1/200"),
    ((Fraction(1, 8), Fraction(3, 8)), Fraction(1, 32), "1/1000*p"),
]


def _tree_value(table, text):
    coef, _, name = text.rpartition("*")
    return table.symbol(name, Fraction(coef)) if coef else table.rational(Fraction(text))


def _tree_window(rng, span, low=0, high=16):
    """Two grid levels in a region's span, drawn from the sixteenths
    low..high of it; a noncompact component spans [0, 1]."""
    lo, hi = (float(v) for v in span) if span else (0.0, 1.0)
    a, b = sorted(rng.sample(range(low + 1, high), 2))
    return tuple(Fraction(round((lo + (hi - lo) * k / 16) * 64), 64) for k in (a, b))


def _tree_join(rng, kind, left, right):
    """One join's regions, windows and tube levels, drawn from the families
    and components of its inputs as built."""
    (lreg, lspan), (rreg, rspan) = (
        rng.choice([(e.family, e.span) for _, e in sorted(m.graph.edges.items())]
                   + [(cid, None) for cid, _ in m.decomposition.x_inf_components])
        for m in (left, right)
    )
    lw = rw = _tree_window(rng, lspan)
    if kind == "A" and rng.random() < 0.2:
        # a long tube, wrapping a compact side
        lw = rw = (Fraction(0), Fraction(4))
        tube = (Fraction(1, 4), Fraction(1, 4) + rng.choice([Fraction(5, 2), Fraction(3)]))
    elif kind in "AC":
        x, y = sorted(rng.sample(range(1, 8), 2))
        tube = tuple(lw[0] + (lw[1] - lw[0]) * Fraction(k, 8) for k in (x, y if kind == "A" else x))
    else:
        # kind B: one window low in its span, the other high, a level in each
        if rng.random() < 0.5:
            lw, rw = _tree_window(rng, lspan, 0, 8), _tree_window(rng, rspan, 8, 16)
        else:
            lw, rw = _tree_window(rng, lspan, 8, 16), _tree_window(rng, rspan, 0, 8)
        low, high = sorted([lw, rw])
        tube = (high[0] + (high[1] - high[0]) / 2, low[0] + (low[1] - low[0]) / 2)
    return lreg, rreg, lw, rw, tube


def surgery_trees(seed, count):
    """Seeded random surgery trees as scenario texts: 2-5 forms on the three
    built-in orbifolds, with rational or symbolic coefficients and some
    bumps, joined two at a time by kind A, B or C surgeries until one model
    is left.  Each join is drawn from its inputs as built so far; a draw the
    join refuses is drawn again up to three times and then kept, and the
    tree ends there, so that some trees exit 2."""
    from foliage.orbifold import BUILTIN_ORBIFOLDS, TorusPoint
    from foliage.forms import BumpTerm, ClosedForm
    from foliage.scalar import FoliageError
    from foliage.surgery import SurgerySpec, analyze, connected_sum

    rng = random.Random(seed)
    orbifolds = {"T": "torus", "S": "shifted_torus", "Q": "pillowcase"}
    for _ in range(count):
        table = SymbolTable([("p", PI), ("q", SQRT2)])
        out = ["[symbols]", f"p = {PI}", f"q = {SQRT2}"]
        for o, builtin in orbifolds.items():
            out += [f"[orbifold {o}]", f"builtin = {builtin}"]
        models = {}
        for i in range(rng.randint(2, 5)):
            on = rng.choice(sorted(orbifolds))
            dtheta, dphi = rng.choice(TREE_FORMS)
            bumps = [rng.choice(TREE_BUMPS)] if rng.random() < 0.3 else []
            out += [f"[form w{i}]", f"on = {on}", f"dtheta = {dtheta}", f"dphi = {dphi}"]
            out += ["basic_override = true"] * (on == "Q")
            out += [f"bump = center {c[0]} {c[1]} radius {r} amplitude {a}" for c, r, a in bumps]
            form = ClosedForm(
                (_tree_value(table, dtheta), _tree_value(table, dphi)),
                BUILTIN_ORBIFOLDS[orbifolds[on]],
                tuple(BumpTerm(TorusPoint(*c), r, _tree_value(table, a)) for c, r, a in bumps),
                basic_override=on == "Q",
            )
            models[f"w{i}"] = analyze(form, f"w{i}")
        pool = list(models)
        for k in range(1, len(pool)):
            left, right = rng.sample(pool, 2)
            for attempt in range(4):
                kind = rng.choice("ABC")
                lreg, rreg, lw, rw, tube = _tree_join(rng, kind, models[left], models[right])
                spec = SurgerySpec(
                    kind, models[left], models[right],
                    tuple(table.rational(v) for v in lw), tuple(table.rational(v) for v in rw),
                    tuple(table.rational(v) for v in tube), lreg, rreg, name=f"s{k}",
                )
                try:
                    joined = connected_sum(spec)
                    break
                except FoliageError:
                    joined = None
            out += [f"[surgery s{k}]", f"kind = {kind}", f"left = {left}", f"right = {right}",
                    f"left_region = {lreg}", f"right_region = {rreg}",
                    f"left_window = {lw[0]} : {lw[1]}", f"right_window = {rw[0]} : {rw[1]}",
                    f"tube = {tube[0]} : {tube[1]}"]
            if joined is None:
                break
            pool = [name for name in pool if name not in (left, right)] + [f"s{k}"]
            models[f"s{k}"] = joined
        yield "\n".join(out) + "\n"
