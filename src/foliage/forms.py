"""Closed 1-forms on presented 2-orbifolds: linear part, bump terms, basicness.

A form is a*dtheta + b*dphi with coefficients in the symbolic scalar field,
plus optional exact perturbations d(bump).  Bumps use a fixed even polynomial
profile so their potentials take rational values at rational points, which
keeps every path-integral identity exactly testable.  Surgered models carry
no form: their verdicts are read off the leaf graph, its levels and periods.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from . import scalar as sc
from .orbifold import (
    AffineMap,
    GPath,
    OrbifoldPresentation,
    TorusPoint,
    orbit,
)


class FormError(sc.FoliageError):
    pass


class NotBasicError(FormError):
    """The form does not descend to the quotient and no override was declared."""


class BumpDominatesError(FormError):
    """A bump perturbation overwhelms the linear part, creating stray zeros."""


class BumpTerm(namedtuple("BumpTerm", "center radius amplitude")):
    """Exact term amplitude * d(h(dist to center)), orbit-replicated.

    h(r) = (1 - (r/R)^2)^4 inside the support disk, 0 outside.  The orbit
    copies share radius and amplitude, so the term is symmetric by
    construction whenever the group acts by isometries.
    """

    __slots__ = ()

    def __new__(cls, center: TorusPoint, radius: Fraction, amplitude: sc.SymScalar):
        if not (0 < radius < Fraction(1, 2)):
            raise FormError("bump radius must lie in (0, 1/2)")
        return tuple.__new__(cls, (center, radius, amplitude))


class Zero(NamedTuple):
    """A zero of the form with its normal index and quotient data."""

    zero_id: str
    side: str  # id of the model side the zero sits on
    index: int
    isotropy_order: int
    level: Optional[sc.SymScalar] = None


class LinearStructure(NamedTuple):
    """Exact shape of the foliation of a zero-free linear (+ bump) form."""

    rank: int  # 1 exactly when the leaves are compact
    direction: Optional[tuple[int, int]]  # primitive leaf direction on the cover
    quotient_order: int  # collapsing of the leaf circle by the invariant subgroup
    circumference: Optional[sc.SymScalar]  # positive cover-circle period / quotient_order


class ClosedForm(namedtuple("ClosedForm", "linear orbifold bumps basic_override")):
    """A closed 1-form on an orbifold, compared as its four fields; its bump
    copies, invariant elements, structure, loop periods, their rank, their
    distinct values as one periods record and its witness generator ids are
    computed on first read and then kept in its `__dict__`.  None depends on
    the name a model gives the form, so every model of one form shares
    them."""

    def __new__(cls, linear: tuple[sc.SymScalar, sc.SymScalar], orbifold: OrbifoldPresentation,
                bumps: tuple[BumpTerm, ...] = (), basic_override: bool = False):
        a, b = linear
        a._check(b)
        self = tuple.__new__(cls, (linear, orbifold, bumps, basic_override))
        if bumps:
            _validate_bump_supports(self)
        return self

    @property
    def table(self) -> sc.SymbolTable:
        return self.linear[0].table

    def with_bumps(self, bumps: Sequence[BumpTerm]) -> "ClosedForm":
        return ClosedForm(self.linear, self.orbifold, tuple(self.bumps) + tuple(bumps),
                          self.basic_override)

    def rescaled(self, c) -> "ClosedForm":
        c = Fraction(c)
        if c == 0:
            raise FormError("rescaling by zero destroys the form")
        a, b = self.linear
        return ClosedForm((a * c, b * c), self.orbifold,
                          tuple(t._replace(amplitude=t.amplitude * c) for t in self.bumps),
                          self.basic_override)

    @sc.memo
    def bump_copies(self) -> tuple[tuple[TorusPoint, BumpTerm], ...]:
        """Every orbit copy of every bump with its term, bump by bump, each
        bump's copies in `orbit` order; the supports check, the exact
        potential and the tracer all read these."""
        return tuple(
            (copy, term) for term in self.bumps for copy in orbit(term.center, self.orbifold)
        )

    @sc.memo
    def invariant_elements(self) -> tuple[int, ...]:
        """Indices of the group elements whose pullback preserves the form
        exactly.  Bumps are orbit-replicated by construction, so they are
        preserved exactly by the elements that act by (integer) isometries."""
        a, b = self.linear
        return tuple(i for i, g in enumerate(self.orbifold.action.elements)
                     if _pulls_back_to_itself(g, a, b) and (not self.bumps or g.is_orthogonal()))

    @property
    def invariant(self) -> bool:
        """Whether every group element preserves the form."""
        return len(self.invariant_elements) == len(self.orbifold.action)

    @sc.memo
    def structure(self) -> LinearStructure:
        """Rank, compactness and leaf circle of the foliation.  Raises on the
        zero form, and when a bump breaks the nondominance condition
        |amplitude| * sup|h'| < |(a, b)|, under which the linear + bump layer
        is zero-free; the condition is decided exactly in squared form."""
        a, b = self.linear
        if a.is_zero() and b.is_zero():
            raise FormError("the zero form has no foliation")
        if self.bumps:
            (na, da), (nb, db) = a._dot(), b._dot()
            # |(a, b)|^2 = norm_num / norm_den
            norm_num, norm_den = (na * db) ** 2 + (nb * da) ** 2, (da * db) ** 2
            for term in self.bumps:
                # sup of |h'| for h(r) = (1 - (r/R)^2)^4 is (8/R) * (6/7)^3 / sqrt(7),
                # whose square is 64 * 6^6 / 7^7 / R^2; the test amplitude^2 * that
                # >= |(a, b)|^2 runs on integers, every denominator cleared
                n, d = term.amplitude._dot()
                r = term.radius
                if (n * n * 64 * 6**6 * r.denominator**2 * norm_den
                        >= d * d * 7**7 * r.numerator**2 * norm_num):
                    raise BumpDominatesError(
                        f"bump at center {term.center.theta} {term.center.phi} dominates "
                        "the linear part; the perturbation regime is violated"
                    )
        # rank 1 exactly when (a, b) = (m*t, n*t), m and n coprime, t symbolic
        if a.is_zero():
            content, (m, n) = b, (0, 1)
        else:
            r = b.ratio_to(a)
            if r is None:
                return LinearStructure(2, None, 1, None)
            content, (m, n) = a / r.denominator, (r.denominator, r.numerator)
        if sc.sign(content) < 0:
            content, (m, n) = -content, (-m, -n)
        # each invariant element rotates the leaf circle by the level of its
        # offset (its linear part fixes the level functional); the rotations
        # form a cyclic group whose order is the lcm of their denominators
        elements = self.orbifold.action.elements
        order = 1
        for i in self.invariant_elements:
            x, y = elements[i].offset
            den = x.denominator * y.denominator  # of the level m*x + n*y
            order = lcm(order, den // gcd(m * x.numerator * y.denominator
                                          + n * y.numerator * x.denominator, den))
        return LinearStructure(
            rank=1,
            direction=(n, -m),
            quotient_order=order,
            circumference=content / order,
        )

    @sc.memo
    def loop_periods(self) -> tuple[tuple[str, sc.SymScalar], ...]:
        """Loop integrals over the fundamental generators, in generator order.
        Raises unless the form descends to the quotient, that is every group
        element preserves it, or it declares basic_override (which reports
        record beside the honest verdict)."""
        if not (self.basic_override or self.invariant):
            raise NotBasicError(
                "form does not descend to the quotient; declare basic_override to proceed"
            )
        return tuple((g.gen_id, g_path_integral(self, g.loop)) for g in self.orbifold.generators)

    @sc.memo
    def period_rank(self) -> int:
        """The rank over Q of the loop periods."""
        return sc.q_rank([value for _, value in self.loop_periods])

    @sc.memo
    def periods(self) -> sc.Periods:
        """The distinct loop periods as one record, which every model of
        the form shares."""
        return sc.Periods(value for _, value in self.loop_periods)

    @sc.memo
    def witness_gens(self) -> tuple[str, ...]:
        """Ids of the generators whose arrow is an invariant element: the
        witness loops of the side each model of the form has."""
        kept = set(self.invariant_elements)
        return tuple(g.gen_id for g in self.orbifold.generators if g.arrow_index in kept)


def _torus_dist2(x: tuple[Fraction, Fraction], c: TorusPoint) -> Fraction:
    """Exact squared torus distance by the minimal image: per coordinate
    u = (x - c) mod 1, then min(u, 1 - u) squared, summed over both."""
    total = Fraction(0)
    for xi, ci in zip(x, c):
        u = (xi - ci) % 1
        total += min(u, 1 - u) ** 2
    return total


def _validate_bump_supports(form: ClosedForm) -> None:
    """Every two orbit copies of the bumps must have disjoint supports,
    d^2 > (r_i + r_j)^2 with d the torus distance of their centres; scaled by
    the common denominator L of every centre and radius, the test runs on
    integer rows (x, y, r) with the torus wrap at L."""
    copies = form.bump_copies
    scale = lcm(*(v.denominator for copy, term in copies
                  for v in (copy.theta, copy.phi, term.radius)))
    rows = [(copy.theta.numerator * (scale // copy.theta.denominator),
             copy.phi.numerator * (scale // copy.phi.denominator),
             term.radius.numerator * (scale // term.radius.denominator))
            for copy, term in copies]
    for i, (xi, yi, ri) in enumerate(rows):
        for xj, yj, rj in rows[i + 1:]:
            u, v = (xi - xj) % scale, (yi - yj) % scale
            u, v = min(u, scale - u), min(v, scale - v)
            if u * u + v * v <= (ri + rj) ** 2:
                raise FormError("bump supports overlap (orbit copies included)")


def bump_potential(form: ClosedForm, point: TorusPoint) -> sc.SymScalar:
    """Exact value of the summed bump potentials at a torus point."""
    x = (point.theta, point.phi)
    total = form.table.zero()
    for center, term in form.bump_copies:
        r2 = term.radius**2
        d2 = _torus_dist2(x, center)
        if d2 < r2:
            total = total + term.amplitude * (1 - d2 / r2) ** 4
    return total


# -- operations ----------------------------------------------------------------


def _pulls_back_to_itself(g: AffineMap, a: sc.SymScalar, b: sc.SymScalar) -> bool:
    """Whether g's matrix pulls a*dtheta + b*dphi back to itself, that is
    (m00 - 1)*a + m10*b = 0 = m01*a + (m11 - 1)*b, tested column by column
    on the integer rows over the common denominator a.den*b.den."""
    (m00, m01), (m10, m11) = g.matrix
    ka, kb = b.den, a.den
    for x, y in zip_longest(a.nums, b.nums, fillvalue=0):
        x, y = x * ka, y * kb
        if (m00 - 1) * x + m10 * y or m01 * x + (m11 - 1) * y:
            return False
    return True


def g_path_integral(form: ClosedForm, path: GPath) -> sc.SymScalar:
    """Line integral along a path: the linear part over the total cover
    displacement, plus the bump potential's differences, which telescope.

    The potential is Z^2-periodic and invariant under every isometric element
    of the form's own orbifold, so it cancels across such arrows and over a
    closed path.  Only the arrows it does not cancel across, and the two ends
    of an open path, are evaluated.
    """
    a, b = form.linear
    dx, dy = path.displacement
    total = a * dx + b * dy
    if not form.bumps:
        return total
    segs = path.segments
    elements = form.orbifold.action.elements
    on_form = path.presentation is form.orbifold
    jumps = [
        (seg[-1], nxt[0])
        for seg, nxt, g in zip(segs, segs[1:], path.arrows)
        if not (on_form and elements[g].is_orthogonal())
    ]
    if not path.is_loop():
        jumps.append((segs[-1][-1], segs[0][0]))
    for end, start in jumps:
        total = total + bump_potential(form, TorusPoint(*end))
        total = total - bump_potential(form, TorusPoint(*start))
    return total
