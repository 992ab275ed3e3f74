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
