"""Flat 2-orbifolds presented as finite affine group quotients of the torus.

The torus is R^2/Z^2 with coordinates (theta, phi).  A presentation is a
finite group of affine maps x -> A x + b (A an integer matrix, b rational)
acting on it.  Paths through the quotient are modeled as alternating
sequences of piecewise-linear torus paths and group arrows; waypoints are
kept in the universal cover so winding is explicit and every identity is
checkable in exact rational arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .scalar import FoliageError


class OrbifoldError(FoliageError):
    pass


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class TorusPoint(namedtuple("TorusPoint", "theta phi")):
    """Point of the torus with exact coordinates in [0, 1).

    Any rational input is reduced mod 1; a float is read as the binary
    rational it stores.
    """

    __slots__ = ()

    def __new__(cls, theta, phi):
        return tuple.__new__(cls, (_mod1(Fraction(theta)), _mod1(Fraction(phi))))


class AffineMap(NamedTuple):
    """Torus map x -> A x + b with A integer and b rational, taken mod 1."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    offset: tuple[Fraction, Fraction]

    @staticmethod
    def of(matrix, offset) -> "AffineMap":
        (a, b), (c, d) = matrix
        o1, o2 = offset
        return AffineMap(
            ((int(a), int(b)), (int(c), int(d))),
            (_mod1(Fraction(o1)), _mod1(Fraction(o2))),
        )

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap.of(((1, 0), (0, 1)), (0, 0))

    def det(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def is_identity(self) -> bool:
        return self == AffineMap.identity()

    def apply_cover(self, v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        (a, b), (c, d) = self.matrix
        x, y = Fraction(v[0]), Fraction(v[1])
        return (a * x + b * y + self.offset[0], c * x + d * y + self.offset[1])

    def apply(self, p: TorusPoint) -> TorusPoint:
        t, f = self.apply_cover((p.theta, p.phi))
        return TorusPoint(t, f)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x -> self(other(x))."""
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        mat = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
        off = self.apply_cover(other.offset)
        return AffineMap.of(mat, off)

    def inverse(self) -> "AffineMap":
        (a, b), (c, d) = self.matrix
        det = self.det()
        if det not in (1, -1):
            raise OrbifoldError("matrix is not invertible over the integers")
        inv = ((d // det, -b // det), (-c // det, a // det))
        m = AffineMap.of(inv, (0, 0))
        off = m.apply_cover(self.offset)
        return AffineMap.of(inv, (-off[0], -off[1]))

    def is_orthogonal(self) -> bool:
        (a, b), (c, d) = self.matrix
        return a * a + c * c == 1 and b * b + d * d == 1 and a * b + c * d == 0


class GroupAction:
    """A finite group of affine torus maps; the identity sits at index 0."""

    def __init__(self, elements: Iterable[AffineMap]):
        elems = list(elements)
        if not elems or not elems[0].is_identity():
            raise OrbifoldError("element 0 must be the identity")
        if len(set(elems)) != len(elems):
            raise OrbifoldError("duplicate group elements")
        for g in elems:
            if g.det() not in (1, -1):
                raise OrbifoldError("group matrices must be invertible over Z")
        index = {g: i for i, g in enumerate(elems)}
        for g in elems:
            if g.inverse() not in index:
                raise OrbifoldError("element set is not closed under inverse")
            for h in elems:
                if g.compose(h) not in index:
                    raise OrbifoldError("element set is not closed under composition")
        self.elements = tuple(elems)
        self._index = index

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, g: AffineMap) -> int:
        return self._index[g]

    def inverse_index(self, i: int) -> int:
        return self._index[self.elements[i].inverse()]


DEFAULT_BASEPOINT = (Fraction(1, 8), Fraction(1, 8))


class OrbifoldPresentation(namedtuple("OrbifoldPresentation", "action basepoint")):
    """A group action and a basepoint of trivial isotropy, compared as that
    pair; the loop generators there, built once (each loop points back here,
    so they are kept beside the pair), and the cone points of each grid asked
    for, found once per denominator."""

    def __new__(cls, action: GroupAction,
                basepoint: tuple[Fraction, Fraction] = DEFAULT_BASEPOINT):
        self = tuple.__new__(cls, (action, basepoint))
        self._grid_cones: dict[int, tuple[TorusPoint, ...]] = {}
        self.generators: tuple[Generator, ...] = fundamental_generators(self)
        return self

    def singular_points_on_grid(self, denominator: int = 24) -> list[TorusPoint]:
        """Grid points (i/d, j/d) with nontrivial isotropy (display aid), i-major.

        Found on the first call for a denominator and kept; no lock, as
        threads racing on that call find equal points."""
        points = self._grid_cones.get(denominator)
        if points is None:
            points = self._grid_cones[denominator] = _grid_cone_points(self, denominator)
        return list(points)


def _grid_cone_points(presentation: OrbifoldPresentation, d: int) -> tuple[TorusPoint, ...]:
    """A non-identity element x -> A x + b fixes (i, j)/d iff
    (A - I)(i, j)/d + b is integral; scaled by L = lcm(d, denominators of b)
    the test runs on integers.  Fixed points of affine torus maps have small
    denominators, so a modest grid finds them all for the shipped actions."""
    tests = []  # per element: the rows of L*((A - I)(i, j)/d + b), and L
    for g in presentation.action.elements[1:]:
        (a, b), (c, e) = g.matrix
        u, v = g.offset
        scale = lcm(d, u.denominator, v.denominator)
        k = scale // d
        rows = ((k * (a - 1), k * b, int(u * scale)), (k * c, k * (e - 1), int(v * scale)))
        tests.append((rows, scale))
    return tuple(
        TorusPoint(Fraction(i, d), Fraction(j, d))
        for i in range(d)
        for j in range(d)
        if any(all((p * i + q * j + r) % scale == 0 for p, q, r in rows)
               for rows, scale in tests)
    )


# -- orbits and isotropy ------------------------------------------------------


def _images(x: TorusPoint, presentation: OrbifoldPresentation) -> tuple[list[tuple[int, int]], int]:
    """The image of x under each group element, in element order, as numerator
    pairs in [0, L) over one common denominator L, and L."""
    t, f = x.theta, x.phi
    elements = presentation.action.elements
    scale = lcm(t.denominator, f.denominator, *[o.denominator for g in elements for o in g.offset])
    u0, v0 = t.numerator * (scale // t.denominator), f.numerator * (scale // f.denominator)
    images = []
    for g in elements:
        (a, b), (c, d) = g.matrix
        u, v = g.offset
        images.append(((a * u0 + b * v0 + u.numerator * (scale // u.denominator)) % scale,
                       (c * u0 + d * v0 + v.numerator * (scale // v.denominator)) % scale))
    return images, scale


def _reduced_point(theta: Fraction, phi: Fraction) -> TorusPoint:
    """A TorusPoint of coordinates already in [0, 1), built without reducing
    them again."""
    return tuple.__new__(TorusPoint, (theta, phi))


def orbit(x: TorusPoint, presentation: OrbifoldPresentation) -> set[TorusPoint]:
    """The images of x, inserted in element order, so the set iterates as
    {g.apply(x) for g in elements} does."""
    images, scale = _images(x, presentation)
    return {_reduced_point(Fraction(p, scale), Fraction(q, scale)) for p, q in images}


def isotropy_order(x: TorusPoint, presentation: OrbifoldPresentation) -> int:
    images, _ = _images(x, presentation)
    return images.count(images[0])  # element 0 is the identity


# -- paths through the quotient ----------------------------------------------

CoverPoint = tuple[Fraction, Fraction]


def _as_cover(p) -> CoverPoint:
    if isinstance(p, TorusPoint):
        return (p.theta, p.phi)
    return (Fraction(p[0]), Fraction(p[1]))


def _reduce(p: CoverPoint) -> TorusPoint:
    return TorusPoint(p[0], p[1])


class GPath(namedtuple("GPath", "presentation segments arrows")):
    """Alternating sequence of cover-lifted PL paths and group arrows.

    ``segments[k]`` is a waypoint list in the universal cover; ``arrows[k]``
    is the group element index carrying the end of segment k to the start of
    segment k+1.  Junction compatibility is exact and checked on creation.
    ``displacement`` is the segments' summed cover displacement, kept from
    creation beside the three compared fields.
    """

    def __new__(cls, presentation: OrbifoldPresentation,
                segments: tuple[tuple[CoverPoint, ...], ...], arrows: tuple[int, ...]):
        self = tuple.__new__(cls, (presentation, segments, arrows))
        self.displacement: CoverPoint = (sum(s[-1][0] - s[0][0] for s in segments),
                                         sum(s[-1][1] - s[0][1] for s in segments))
        return self

    @staticmethod
    def of(presentation, segments: Sequence[Sequence], arrows: Sequence[int] = ()) -> "GPath":
        segs = tuple(tuple(_as_cover(p) for p in seg) for seg in segments)
        arrs = tuple(int(a) for a in arrows)
        if not segs or any(len(s) < 1 for s in segs):
            raise OrbifoldError("each segment needs at least one waypoint")
        if len(arrs) != len(segs) - 1:
            raise OrbifoldError("need exactly one arrow between consecutive segments")
        path = GPath(presentation, segs, arrs)
        for k, a in enumerate(arrs):
            g = presentation.action.elements[a]
            carried = g.apply(_reduce(segs[k][-1]))
            if carried != _reduce(segs[k + 1][0]):
                raise OrbifoldError(f"arrow {k} does not carry segment {k} onto segment {k + 1}")
        return path

    @property
    def start(self) -> TorusPoint:
        return _reduce(self.segments[0][0])

    @property
    def end(self) -> TorusPoint:
        return _reduce(self.segments[-1][-1])

    def is_loop(self) -> bool:
        """Whether the path ends where it starts: its cover displacement is integral."""
        (x0, y0), (x1, y1) = self.segments[0][0], self.segments[-1][-1]
        return (x1 - x0).denominator == 1 and (y1 - y0).denominator == 1

    def reverse(self) -> "GPath":
        action = self.presentation.action
        segs = tuple(tuple(reversed(s)) for s in reversed(self.segments))
        arrs = tuple(action.inverse_index(a) for a in reversed(self.arrows))
        return GPath(self.presentation, segs, arrs)


def concat(p: GPath, q: GPath) -> GPath:
    """Concatenate two composable paths, inserting the unit arrow in between."""
    if p.presentation is not q.presentation:
        raise OrbifoldError("paths live on different presentations")
    if p.end != q.start:
        raise OrbifoldError("endpoint of the first path does not meet the second")
    return GPath(p.presentation, p.segments + q.segments, p.arrows + (0,) + q.arrows)


class Generator(NamedTuple):
    gen_id: str
    loop: GPath
    arrow_index: int  # 0 for the two torus loops


def fundamental_generators(presentation: OrbifoldPresentation) -> tuple[Generator, ...]:
    """Loop generators: the two torus cycles plus one loop per group element.

    For each non-identity k the loop is a straight cover path from the
    basepoint to the nearest lift of k(basepoint), closed by the arrow k^-1.
    Together with the torus cycles these generate the quotient's fundamental
    group through the translation/deck short exact sequence.  A presentation
    calls this once, when it is built.
    """
    x0 = tuple(_mod1(Fraction(c)) for c in presentation.basepoint)
    if isotropy_order(TorusPoint(*x0), presentation) != 1:
        raise OrbifoldError("basepoint must have trivial isotropy")
    gens = [
        Generator("a", GPath.of(presentation, [[x0, (x0[0] + 1, x0[1])]]), 0),
        Generator("b", GPath.of(presentation, [[x0, (x0[0], x0[1] + 1)]]), 0),
    ]
    for i, g in enumerate(presentation.action.elements):
        if i == 0:
            continue
        target = g.apply(TorusPoint(*x0))
        lift = tuple(_nearest_lift(c, x) for c, x in zip((target.theta, target.phi), x0))
        loop = GPath.of(
            presentation,
            [[x0, lift], [x0]],
            [presentation.action.inverse_index(i)],
        )
        gens.append(Generator(f"k{i}", loop, i))
    return tuple(gens)


def _nearest_lift(coord: Fraction, anchor: Fraction) -> Fraction:
    """Representative of coord mod 1 with coord - anchor in (-1/2, 1/2]."""
    d = _mod1(coord - anchor)
    if d > Fraction(1, 2):
        d -= 1
    return anchor + d


# -- built-in orbifolds: shared immutable presentations, built at import -------

_IDENTITY = AffineMap.identity()
_HALF_TURN = AffineMap.of(((-1, 0), (0, -1)), (0, 0))
_HALF_SHIFT = AffineMap.of(((1, 0), (0, 1)), (Fraction(1, 2), 0))

BUILTIN_ORBIFOLDS = {
    "torus": OrbifoldPresentation(GroupAction([_IDENTITY])),
    "pillowcase": OrbifoldPresentation(GroupAction([_IDENTITY, _HALF_TURN])),
    "shifted_torus": OrbifoldPresentation(GroupAction([_IDENTITY, _HALF_SHIFT])),
}


def torus_presentation() -> OrbifoldPresentation:
    return BUILTIN_ORBIFOLDS["torus"]


def pillowcase_presentation() -> OrbifoldPresentation:
    """Quotient by the half-turn (theta, phi) -> (-theta, -phi)."""
    return BUILTIN_ORBIFOLDS["pillowcase"]


def shifted_torus_presentation() -> OrbifoldPresentation:
    """Free Z2 quotient by the half shift (theta, phi) -> (theta + 1/2, phi)."""
    return BUILTIN_ORBIFOLDS["shifted_torus"]
