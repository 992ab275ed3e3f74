"""Leaf classification, the compact/noncompact decomposition, and a tracer.

The linear layer is decided exactly, once per form (`ClosedForm.structure`):
leaves of a*dtheta + b*dphi close up iff (a, b) is Q-dependent, and the leaf
space of a compact layer is a circle whose total transverse measure is
computed in the symbolic field.  The numeric tracer integrates the kernel
direction field and serves as an independent oracle for the exact
classifier (and draws pictures).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, repeat
from typing import Optional

from . import scalar as sc
from .forms import ClosedForm
from .orbifold import OrbifoldPresentation, TorusPoint


class LeafError(sc.FoliageError):
    pass


COMPACT_REGULAR = "CompactRegular"
NONCOMPACT_REGULAR = "NoncompactRegular"
COMPACT_SINGULAR = "CompactSingular"
NONCOMPACT_SINGULAR = "NoncompactSingular"


class LeafClass(namedtuple("LeafClass", "leaf_id kind zeros components component_ref")):
    __slots__ = ()

    def __new__(cls, leaf_id: str, kind: str, zeros: tuple[str, ...] = (),
                components: tuple[tuple[str, bool], ...] = (),  # (component id, compact?)
                component_ref: Optional[str] = None):  # hosting noncompact component, if any
        if (kind in (COMPACT_SINGULAR, NONCOMPACT_SINGULAR)) != bool(zeros):
            raise LeafError("a leaf is singular exactly when it carries zeros")
        return tuple.__new__(cls, (leaf_id, kind, zeros, components, component_ref))

    @property
    def compact(self) -> bool:
        return self.kind in (COMPACT_REGULAR, COMPACT_SINGULAR)


class Decomposition(namedtuple("Decomposition",
                                "x_c x_inf_components boundary component_periods")):
    """The checked split of a catalog: the compact leaf ids, the leaf ids of
    each noncompact component, the boundary as (leaf id, compact component
    id) pairs, and the distinct periods of each noncompact component, sorted
    by id.  The restricted ranks are computed on first read from the stored
    periods and kept in its `__dict__`; the computation is pure, so a
    decomposition shared between threads reads the same ranks in each.
    The flags are derived from the kept ranks at each read."""

    @sc.memo
    def restricted_ranks(self) -> tuple[tuple[str, Optional[int]], ...]:
        return tuple(
            (cid, sc.q_rank(periods) if periods else None)
            for cid, periods in self.component_periods
        )

    @property
    def flags(self) -> tuple[str, ...]:
        flags = []
        for cid, rank in self.restricted_ranks:
            if rank is None:
                flags.append(f"component {cid}: no generator loops survive; rank unavailable")
            elif rank <= 1:
                flags.append(f"component {cid}: restricted rank {rank} is not > 1")
        return tuple(flags)


# -- the linear layer -----------------------------------------------------------


def classify_leaf(form: ClosedForm, presentation: OrbifoldPresentation, x: TorusPoint) -> LeafClass:
    """Classify the leaf through a point of a zero-free (virgin) form."""
    structure = form.structure
    kind = COMPACT_REGULAR if structure.compact else NONCOMPACT_REGULAR
    return LeafClass(leaf_id=f"leaf({x.theta},{x.phi})", kind=kind)


def singular_components(leaf: LeafClass) -> list[tuple[str, bool]]:
    if leaf.kind not in (COMPACT_SINGULAR, NONCOMPACT_SINGULAR):
        raise LeafError("regular leaves have no singular components")
    return list(leaf.components)


# -- decomposition ---------------------------------------------------------------


def decompose(model) -> Decomposition:
    """Split the catalog into the compact region, the noncompact components
    and their common boundary, checking the structural invariants."""
    catalog = model.catalog
    if not catalog:
        raise LeafError("leaf catalog is incomplete")
    ids = [leaf.leaf_id for leaf in catalog]
    if len(set(ids)) != len(ids):
        raise LeafError("duplicate leaf ids in catalog")

    x_c = frozenset(l.leaf_id for l in catalog if l.compact)
    comp_sets: dict[str, set[str]] = {cid: set() for cid in model.x_inf_periods}
    for leaf in catalog:
        if leaf.compact:
            continue
        if leaf.component_ref not in comp_sets:
            raise LeafError(f"leaf {leaf.leaf_id} references unknown component {leaf.component_ref}")
        comp_sets[leaf.component_ref].add(leaf.leaf_id)

    boundary = tuple(
        (leaf.leaf_id, comp_id)
        for leaf in catalog
        if leaf.kind == NONCOMPACT_SINGULAR
        for comp_id, compact in leaf.components
        if compact
    )

    return Decomposition(
        x_c=x_c,
        x_inf_components=tuple((cid, frozenset(comp_sets[cid])) for cid in sorted(comp_sets)),
        boundary=boundary,
        component_periods=tuple((cid, model.x_inf_periods[cid]) for cid in sorted(comp_sets)),
    )


# -- local quadratic models -------------------------------------------------------


def count_local_components(n: int, lam: int, group: str = "trivial") -> tuple[int, int, int]:
    """Component counts of the model level sets sum(y_i^2) - sum(y_j^2) = t
    (negative block last, size lam) for t < 0, t = 0, t > 0.

    A level set is a sphere-bundle product: S^(lam-1) x R^(n-lam) below zero
    and S^(n-lam-1) x R^lam above, so the count is 2 when the sphere factor
    is S^0, 0 when it is empty, else 1.  The reflection group folds the two
    sheets together exactly when the S^0 coordinate is the reflected one.
    """
    if not (0 <= lam <= n <= 4):
        raise LeafError("need 0 <= lam <= n <= 4")
    if group not in ("trivial", "z2_reflect_last"):
        raise LeafError(f"unknown group {group!r}")

    def sphere_count(dim: int) -> int:
        if dim < 0:
            return 0
        return 2 if dim == 0 else 1

    below = sphere_count(lam - 1)
    above = sphere_count(n - lam - 1)
    at = 1  # the cone through the origin is connected (a point when definite)
    if group == "z2_reflect_last":
        # the reflected coordinate is y_n: in the negative block iff lam >= 1
        if below == 2 and lam == 1:
            below = 1
        if above == 2 and lam == 0 and n - lam == 1:
            above = 1
    return below, at, above


# -- numeric leaf tracing ----------------------------------------------------------


class TraceResult(namedtuple("TraceResult", "verdict return_error period_length coverage "
                                            "steps reason polyline")):
    __slots__ = ()

    def __new__(cls, verdict: str,  # Closed | DenseEvidence | Inconclusive
                return_error: Optional[float] = None, period_length: Optional[float] = None,
                coverage: Optional[float] = None, steps: int = 0, reason: str = "",
                polyline: Optional[list] = None):
        if verdict == "Closed" and period_length is None:
            raise LeafError("closed traces must report a period length")
        return tuple.__new__(cls, (verdict, return_error, period_length, coverage, steps,
                                   reason, polyline))


def trace_leaf(
    form: ClosedForm,
    seed: TorusPoint,
    step: float = 0.01,
    max_steps: int = 1_000_000,
    return_tol: float = 1e-9,
    grid_eps: float = 0.05,
    coverage_threshold: float = 0.99,
    drift_tol: float = 1e-6,
    collect_polyline: bool = False,
) -> TraceResult:
    """Integrate the unit-speed kernel field from the seed on the cover.

    Fourth-order fixed-step integration; boundary crossings wrap mod 1 and
    closure is tested against every form-preserving translate of the seed.
    A step that cannot reach a bump support adds the RK4 increment of the
    constant field there, byte for byte what the four stages would give, and
    a straight run of such steps is taken in one pass.
    Verdicts: Closed when the trace returns within tolerance with matching
    direction, DenseEvidence when grid coverage passes the threshold,
    Inconclusive otherwise (including field-degeneracy and drift aborts,
    steps the float coordinates cannot resolve, and forms whose coefficients
    exceed the float range).
    """
    # floats resolve the square to about 1e-16: a smaller step leaves the point
    # on the seed, where the closure test finds it; past 2**50 a coordinate
    # keeps at most quarters of the square, and the cover runs out of range
    if not 4 * math.ulp(1.0) < step < 2.0**50:
        return TraceResult("Inconclusive", reason="step outside the float resolution of the square")
    # the one place a form becomes floats: the linear part, and one
    # (center, r^2, amplitude) tuple per kept orbit copy of each bump
    try:
        a_num, b_num = float(form.linear[0]), float(form.linear[1])
        bumps = [
            (float(copy.theta), float(copy.phi), float(term.radius) ** 2, float(term.amplitude))
            for copy, term in form.bump_copies
        ]
    except OverflowError:
        return TraceResult("Inconclusive", reason="form overflows the float range")

    def field(x: float, y: float, bumps=bumps):
        wx = a_num + 0.0
        wy = b_num + 0.0
        if bumps:
            _, gx, gy = _bump_sums(bumps, x % 1.0, y % 1.0)
            wx += gx
            wy += gy
        norm = (wx * wx + wy * wy) ** 0.5
        if norm < 1e-8:
            return None
        return wy / norm, -wx / norm

    def rk4(px: float, py: float, h: float):
        k1 = field(px, py)
        if k1 is None:
            return None
        k2 = field(px + 0.5 * h * k1[0], py + 0.5 * h * k1[1])
        if k2 is None:
            return None
        k3 = field(px + 0.5 * h * k2[0], py + 0.5 * h * k2[1])
        if k3 is None:
            return None
        k4 = field(px + h * k3[0], py + h * k3[1])
        if k4 is None:
            return None
        return (
            px + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            py + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )

    def level(px: float, py: float) -> float:
        value = a_num * px + b_num * py
        if bumps:
            value += _bump_sums(bumps, px % 1.0, py % 1.0)[0]
        return value

    sx, sy = float(seed.theta), float(seed.phi)
    v0 = field(sx, sy)
    if v0 is None:
        return TraceResult("Inconclusive", reason="field degenerate at seed", steps=0)

    targets = _closure_targets(form, sx, sy, v0)
    # coverage is read only at the checkpoints and at the end, so each step
    # just keeps its point, and the points since the last checkpoint are
    # mapped to their cells there: the same cells as marking every step; a
    # cell (i, j) is kept as the one int i * ncells + j
    ncells = max(2, round(1.0 / grid_eps))
    cells = {int(sx * ncells) % ncells * ncells + int(sy * ncells) % ncells}
    pending = []
    total_cells = ncells * ncells

    def coverage() -> float:
        cells.update([int(x * ncells) % ncells * ncells + int(y * ncells) % ncells
                      for x, y in pending])
        pending.clear()
        return len(cells) / total_cells

    polyline = [(sx % 1.0, sy % 1.0)] if collect_polyline else None
    stride = 1  # doubled with thinning whenever the polyline outgrows its cap
    px, py = sx, sy
    level0 = level(px, py)
    arc = 0.0
    capture = 1.5 * step

    # off every support the field is c, the field without its bump term, and
    # rk4's increment of it is computed once; the clearance counts say how many
    # coming steps cannot reach a support, and at how many coming points no
    # closure target can be within capture
    c = field(0.0, 0.0, ())
    if c is not None:
        ix = step / 6.0 * (c[0] + 2 * c[0] + 2 * c[0] + c[0])
        iy = step / 6.0 * (c[1] + 2 * c[1] + 2 * c[1] + c[1])
    reach = step * (1 + 1e-6)
    supports = [(cx, cy, r2**0.5) for cx, cy, r2, _ in bumps]
    captures = [(tx, ty, capture) for tx, ty, _ in targets]
    free = quiet = 0  # steps left that cannot reach a support / a closure target

    n = 0
    while n < max_steps:
        n += 1
        if free <= 0 and c is not None:
            free = _free_steps(supports, px, py, reach)
        # a straight run: the coming k steps reach no support, meet no closure
        # target, pass no checkpoint and thin no polyline, so they are taken
        # in one pass, with the same float additions as one step at a time
        k = int(min(free, quiet, -n % 1024, max_steps - n + 1))
        if collect_polyline:
            k = min(k, 200_000 - len(polyline)) if stride == 1 else 0
        if k > 1:
            xs = list(accumulate(repeat(ix, k - 1), initial=px + ix))
            ys = list(accumulate(repeat(iy, k - 1), initial=py + iy))
            px, py = xs[-1], ys[-1]
            *_, arc = accumulate(repeat(step, k), initial=arc)
            points = [(x % 1.0, y % 1.0) for x, y in zip(xs, ys)]
            pending += points
            if collect_polyline:
                polyline += points
            free -= k
            quiet -= k
            n += k - 1
            continue
        if free > 0:
            free -= 1
            px += ix
            py += iy
        else:
            nxt = rk4(px, py, step)
            if nxt is None:
                return TraceResult("Inconclusive", reason="field degenerate along trace", steps=n)
            px, py = nxt
        arc += step
        point = (px % 1.0, py % 1.0)
        pending.append(point)
        if collect_polyline and n % stride == 0:
            polyline.append(point)
            if len(polyline) > 200_000:
                del polyline[::2]
                stride *= 2

        if quiet > 0:
            quiet -= 1
        elif arc > 3.0 * step:
            hit = _try_close(field, rk4, px, py, targets, capture, return_tol)
            if hit is not None:
                err, extra = hit
                if abs(level(px, py) - level0) > drift_tol:
                    return TraceResult(
                        "Inconclusive", reason="level drift exceeds tolerance", steps=n
                    )
                return TraceResult(
                    "Closed",
                    return_error=err,
                    period_length=arc + extra,
                    steps=n,
                    polyline=polyline,
                )
            quiet = _free_steps(captures, px, py, reach)

        if n % 1024 == 0:
            if abs(level(px, py) - level0) > drift_tol:
                return TraceResult("Inconclusive", reason="level drift exceeds tolerance", steps=n)
            covered = coverage()
            if covered >= coverage_threshold:
                return TraceResult("DenseEvidence", coverage=covered, steps=n, polyline=polyline)

    covered = coverage()
    if covered >= coverage_threshold:
        return TraceResult("DenseEvidence", coverage=covered, steps=max_steps, polyline=polyline)
    return TraceResult(
        "Inconclusive",
        reason="step budget exhausted",
        coverage=covered,
        steps=max_steps,
        polyline=polyline,
    )


def _bump_sums(bumps, x: float, y: float) -> tuple[float, float, float]:
    """Summed bump potential and its gradient at a point of [0, 1)^2, over
    the (cx, cy, r^2, amplitude) copies trace_leaf compiles."""
    potential = gx = gy = 0.0
    for cx, cy, r2, amp in bumps:
        dx = (x - cx + 0.5) % 1.0 - 0.5
        dy = (y - cy + 0.5) % 1.0 - 0.5
        s = (dx * dx + dy * dy) / r2
        if s < 1.0:
            potential += amp * (1.0 - s) ** 4
            f = amp * 4.0 * (1.0 - s) ** 3 * (-1.0 / r2)
            gx += f * 2.0 * dx
            gy += f * 2.0 * dy
    return potential, gx, gy


def _free_steps(discs, x: float, y: float, reach: float) -> float:
    """How many coming steps from (x, y), each moving at most `reach` and
    evaluating the field within `reach` of its start, cannot touch any
    (cx, cy, keep_out) disc; one step short of the bound, as a margin, and
    zero or negative when a disc is within reach."""
    x, y = x % 1.0, y % 1.0
    nearest = 1.0  # farther than any point of the unit torus
    for cx, cy, keep_out in discs:
        dx = (x - cx + 0.5) % 1.0 - 0.5
        dy = (y - cy + 0.5) % 1.0 - 0.5
        nearest = min(nearest, (dx * dx + dy * dy) ** 0.5 - keep_out)
    return nearest // reach - 1


def _closure_targets(form, sx, sy, v0):
    """Seed translates under the form-preserving subgroup, with the pushed
    leaf direction at each; returning to any of them closes the quotient leaf."""
    targets = []
    for i in form.invariant_elements:
        g = form.orbifold.action.elements[i]
        (m00, m01), (m10, m11) = g.matrix
        tx = (m00 * sx + m01 * sy + float(g.offset[0])) % 1.0
        ty = (m10 * sx + m11 * sy + float(g.offset[1])) % 1.0
        tv = (m00 * v0[0] + m01 * v0[1], m10 * v0[0] + m11 * v0[1])
        targets.append((tx, ty, tv))
    return targets


def _try_close(field, rk4, px, py, targets, capture, return_tol):
    wx, wy = px % 1.0, py % 1.0
    v = None  # the field is evaluated only once some target is within capture
    for tx, ty, tv in targets:
        dx = (wx - tx + 0.5) % 1.0 - 0.5
        dy = (wy - ty + 0.5) % 1.0 - 0.5
        if dx * dx + dy * dy > capture * capture:
            continue
        if v is None:
            v = field(px, py)
            if v is None:
                return None
        if abs(v[0] * tv[0] + v[1] * tv[1]) < 0.9:
            continue
        # slide along the flow to the closest approach (locally linear)
        s = -(dx * v[0] + dy * v[1])
        qx, qy = (px, py) if abs(s) < 1e-300 else rk4(px, py, s) or (px, py)
        rx = (qx % 1.0 - tx + 0.5) % 1.0 - 0.5
        ry = (qy % 1.0 - ty + 0.5) % 1.0 - 0.5
        err = (rx * rx + ry * ry) ** 0.5
        if err < return_tol:
            return err, s
    return None
