"""Closed 1-forms on presented 2-orbifolds: linear part, bump terms, basicness.

A form is a*dtheta + b*dphi with coefficients in the symbolic scalar field,
plus optional exact perturbations d(bump).  Bumps use a fixed even polynomial
profile so their potentials take rational values at rational points, which
keeps every path-integral identity exactly testable.  Surgered models carry
patch records instead; those integrate only through the graph layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import scalar as sc
from .orbifold import (
    AffineMap,
    GPath,
    OrbifoldPresentation,
    TorusPoint,
    fundamental_generators,
    orbit,
)


class FormError(sc.FoliageError):
    pass


class NotBasicError(FormError):
    """The form does not descend to the quotient and no override was declared."""


class BumpDominatesError(FormError):
    """A bump perturbation overwhelms the linear part, creating stray zeros."""


class PatchedFormError(FormError):
    """Surgered models are combinatorial; direct integration is unavailable."""


@dataclass(frozen=True)
class BumpTerm:
    """Exact term amplitude * d(h(dist to center)), orbit-replicated.

    h(r) = (1 - (r/R)^2)^4 inside the support disk, 0 outside.  The orbit
    copies share radius and amplitude, so the term is symmetric by
    construction whenever the group acts by isometries.
    """

    center: TorusPoint
    radius: Fraction
    amplitude: sc.SymScalar

    def __post_init__(self):
        if not (0 < self.radius < Fraction(1, 2)):
            raise FormError("bump radius must lie in (0, 1/2)")


@dataclass(frozen=True)
class Zero:
    """A zero of the form with its normal index and quotient data."""

    zero_id: str
    host: str  # chart or surgery-patch reference
    index: int
    isotropy_order: int
    level: Optional[sc.SymScalar] = None


@dataclass(frozen=True)
class ClosedForm:
    linear: tuple[sc.SymScalar, sc.SymScalar]
    orbifold: OrbifoldPresentation
    bumps: tuple[BumpTerm, ...] = ()
    basic_override: bool = False
    name: str = "form"

    def __post_init__(self):
        a, b = self.linear
        a._check(b)
        _validate_bump_supports(self)

    @property
    def table(self) -> sc.SymbolTable:
        return self.linear[0].table

    def with_bumps(self, bumps: Sequence[BumpTerm]) -> "ClosedForm":
        return replace(self, bumps=tuple(self.bumps) + tuple(bumps))

    def rescaled(self, c) -> "ClosedForm":
        c = Fraction(c)
        if c == 0:
            raise FormError("rescaling by zero destroys the form")
        a, b = self.linear
        return replace(
            self,
            linear=(a * c, b * c),
            bumps=tuple(replace(t, amplitude=t.amplitude * c) for t in self.bumps),
        )


def _torus_dist2(x: tuple[Fraction, Fraction], c: TorusPoint) -> Fraction:
    """Exact squared torus distance by the minimal image: per coordinate
    u = (x - c) mod 1, then min(u, 1 - u) squared, summed over both."""
    total = Fraction(0)
    for xi, ci in zip(x, c):
        u = (xi - ci) % 1
        total += min(u, 1 - u) ** 2
    return total


def _validate_bump_supports(form: ClosedForm) -> None:
    centers: list[tuple[TorusPoint, Fraction]] = []
    for t in form.bumps:
        for copy in sorted(orbit(t.center, form.orbifold), key=lambda p: (p.theta, p.phi)):
            centers.append((copy, t.radius))
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            (ci, ri), (cj, rj) = centers[i], centers[j]
            d2 = _torus_dist2((ci.theta, ci.phi), cj)
            if d2 <= (ri + rj) ** 2:
                raise FormError("bump supports overlap (orbit copies included)")


def bump_potential(form: ClosedForm, point: TorusPoint) -> sc.SymScalar:
    """Exact value of the summed bump potentials at a torus point."""
    return _potential(form, _bump_copies(form), point)


def _bump_copies(form: ClosedForm) -> list[tuple[TorusPoint, Fraction, sc.SymScalar]]:
    """(center, r^2, amplitude) for every orbit copy of every bump."""
    return [
        (copy, term.radius**2, term.amplitude)
        for term in form.bumps
        for copy in orbit(term.center, form.orbifold)
    ]


def _potential(form: ClosedForm, copies, point: TorusPoint) -> sc.SymScalar:
    x = (point.theta, point.phi)
    total = form.table.zero()
    for center, r2, amplitude in copies:
        d2 = _torus_dist2(x, center)
        if d2 < r2:
            total = total + amplitude * (1 - d2 / r2) ** 4
    return total


# -- operations ----------------------------------------------------------------


def check_basic(form: ClosedForm, presentation: OrbifoldPresentation | None = None) -> bool:
    """Whether the form honestly descends to the quotient.

    Linear part: every group matrix must pull it back to itself.  Bumps are
    orbit-replicated by construction, so they descend exactly when the group
    acts by (integer) isometries.  A declared override makes the verdict true
    and is recorded separately by reports.
    """
    if form.basic_override:
        return True
    return invariance_verdict(form, presentation)


def invariance_verdict(form: ClosedForm, presentation: OrbifoldPresentation | None = None) -> bool:
    pres = presentation or form.orbifold
    a, b = form.linear
    for g in pres.action.elements:
        if _pullback_linear(g, a, b) != (a, b):
            return False
        if form.bumps and not g.is_orthogonal():
            return False
    return True


def _pullback_linear(g: AffineMap, a: sc.SymScalar, b: sc.SymScalar):
    (m00, m01), (m10, m11) = g.matrix
    return (a * m00 + b * m10, a * m01 + b * m11)


def invariant_subgroup(form: ClosedForm) -> list[int]:
    """Indices of group elements whose pullback preserves the form exactly."""
    a, b = form.linear
    keep = []
    for i, g in enumerate(form.orbifold.action.elements):
        if _pullback_linear(g, a, b) == (a, b) and (not form.bumps or g.is_orthogonal()):
            keep.append(i)
    return keep


def zeros(form: ClosedForm) -> list[Zero]:
    """The linear + bump layer is zero-free under the nondominance condition
    |amplitude| * sup|h'| < |(a, b)|, decided exactly in squared form."""
    a, b = form.linear
    if a.is_zero() and b.is_zero():
        raise FormError("the zero form has no foliation")
    norm2 = a.value() ** 2 + b.value() ** 2
    for term in form.bumps:
        # sup of |h'| for h(r) = (1 - (r/R)^2)^4 is (8/R) * (6/7)^3 / sqrt(7),
        # whose square is 64 * 6^6 / 7^7 / R^2
        if term.amplitude.value() ** 2 * Fraction(64 * 6**6, 7**7) >= term.radius**2 * norm2:
            raise BumpDominatesError(
                f"bump at {term.center} dominates the linear part; "
                "the perturbation regime is violated"
            )
    return []


def g_path_integral(form: ClosedForm, path: GPath) -> sc.SymScalar:
    """Sum of segment line integrals: linear part in closed form over each
    straight piece, bump terms as potential differences at the endpoints."""
    if isinstance(form, SurgeredForm):
        raise PatchedFormError("path crosses a surgery patch; use the graph layer")
    a, b = form.linear
    copies = _bump_copies(form)
    total = form.table.zero()
    for seg in path.segments:
        d_theta = seg[-1][0] - seg[0][0]
        d_phi = seg[-1][1] - seg[0][1]
        total = total + a * d_theta + b * d_phi
        if copies:
            end = _potential(form, copies, TorusPoint(seg[-1][0], seg[-1][1]))
            start = _potential(form, copies, TorusPoint(seg[0][0], seg[0][1]))
            total = total + end - start
    return total


def periods(
    form: ClosedForm, presentation: OrbifoldPresentation | None = None
) -> list[tuple[str, sc.SymScalar]]:
    """Loop integrals over the fundamental generators, in generator order."""
    pres = presentation or form.orbifold
    if not check_basic(form, pres):
        raise NotBasicError(
            "form does not descend to the quotient; declare basic_override to proceed"
        )
    return [(g.gen_id, g_path_integral(form, g.loop)) for g in fundamental_generators(pres)]


def rank_of_class(form: ClosedForm, presentation: OrbifoldPresentation | None = None) -> int:
    return sc.q_rank([value for _, value in periods(form, presentation)])


# -- surgered forms -------------------------------------------------------------


@dataclass(frozen=True)
class SurgeredForm:
    """Form on an abstract connected sum: side forms plus patch records.

    The geometry near the tubes is never integrated; levels and the two new
    index-1 zeros per patch carry all the information the graph layer needs.
    """

    sides: tuple[ClosedForm, ...]
    patch_zeros: tuple[Zero, ...]
    name: str = "surgered form"

    @property
    def table(self) -> sc.SymbolTable:
        return self.sides[0].table
