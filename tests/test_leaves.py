from fractions import Fraction

import numpy as np
import pytest

from foliage.forms import ClosedForm
from foliage.leaves import (
    COMPACT_REGULAR,
    NONCOMPACT_REGULAR,
    LeafClass,
    LeafError,
    classify_leaf,
    count_local_components,
)
from foliage.orbifold import BUILTIN_ORBIFOLDS, TorusPoint
T = BUILTIN_ORBIFOLDS["torus"]
Q = BUILTIN_ORBIFOLDS["pillowcase"]
S = BUILTIN_ORBIFOLDS["shifted_torus"]
X0 = TorusPoint(Fraction(1, 8), Fraction(1, 8))


class TestClassify:
    def test_dtheta_vertical_circles(self, table):
        form = ClosedForm((table.rational(1), table.zero()), T)
        assert classify_leaf(form, T, X0).kind == COMPACT_REGULAR

    def test_independent_symbols_dense(self, table):
        form = ClosedForm((table.symbol("p"), table.symbol("q")), T)
        assert classify_leaf(form, T, X0).kind == NONCOMPACT_REGULAR

    def test_rational_slope_closes_on_the_lattice(self, table):
        form = ClosedForm((table.rational(2), table.rational(3)), T)
        leaf = classify_leaf(form, T, X0)
        assert leaf.kind == COMPACT_REGULAR
        assert form.structure.direction == (3, -2)

    def test_symbolic_but_dependent_coefficients(self, table):
        p = table.symbol("p")
        form = ClosedForm((p * 2, p * 3), T)
        assert classify_leaf(form, T, X0).kind == COMPACT_REGULAR


class TestLinearStructure:
    def test_circumference_of_torus_circle(self, table):
        form = ClosedForm((table.rational(2), table.rational(3)), T)
        s = form.structure
        assert s.rank == 1 and s.circumference == table.rational(1)

    def test_symbolic_content(self, table):
        a = table.symbol("p")
        form = ClosedForm((a * 2, a * 3), T)
        s = form.structure
        assert s.circumference == table.symbol("p")

    def test_shifted_torus_halves_the_circle(self, table):
        form = ClosedForm((table.rational(1), table.zero()), S)
        s = form.structure
        assert s.quotient_order == 2
        assert s.circumference == table.rational(Fraction(1, 2))

    def test_shift_along_leaves_does_not_collapse(self, table):
        form = ClosedForm((table.zero(), table.rational(1)), S)  # leaves theta-circles
        s = form.structure
        assert s.quotient_order == 1
        assert s.circumference == table.rational(1)

    def test_override_reduction_on_pillowcase(self, table):
        form = ClosedForm((table.rational(1), table.zero()), Q, basic_override=True)
        s = form.structure
        assert form.invariant_elements == (0,)
        assert not form.invariant
        assert s.circumference == table.rational(1)

    def test_negative_orientation_normalized(self, table):
        form = ClosedForm((table.rational(-2), table.rational(-3)), T)
        s = form.structure
        assert s.circumference == table.rational(1)


class TestSingularComponents:
    def test_components_round_trip(self):
        leaf = LeafClass(
            "s", "NoncompactSingular", zeros=("z",),
            components=(("c0", True), ("c1", False)), component_ref="inf",
        )
        assert leaf.components == (("c0", True), ("c1", False))

    def test_zero_bookkeeping_enforced(self):
        with pytest.raises(LeafError):
            LeafClass("bad", "CompactSingular")  # singular without zeros
        with pytest.raises(LeafError):
            LeafClass("bad", COMPACT_REGULAR, zeros=("z",))


# -- local quadratic models ------------------------------------------------------


def sampled_components(n, lam, t, group):
    """Independent oracle: sample a thin geometric shell around the level set
    on a grid, cluster by union-find on an epsilon-graph (plus reflection
    identifications).  The algebraic tolerance is scaled by the local gradient
    so the shell has roughly uniform geometric thickness."""
    if n == 0:
        return 1 if t == 0 else 0
    h = 0.2
    radius = 2.5
    axes = [np.arange(-radius, radius + h / 2, h)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    signs = np.array([1.0] * (n - lam) + [-1.0] * lam)
    values = (grid * grid * signs).sum(axis=1)
    grad = 2.0 * np.sqrt((grid * grid).sum(axis=1))
    shell = np.abs(values - t) <= 0.55 * h * np.maximum(grad, 1.0)
    pts = grid[shell]
    if len(pts) == 0:
        return 0
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    eps2 = (1.8 * h) ** 2
    for i in range(len(pts)):
        d2 = ((pts[i + 1:] - pts[i]) ** 2).sum(axis=1)
        for off in np.nonzero(d2 <= eps2)[0]:
            union(i, i + 1 + int(off))
    if group == "z2_reflect_last":
        reflected = pts.copy()
        reflected[:, -1] *= -1.0
        for i in range(len(pts)):
            d2 = ((pts - reflected[i]) ** 2).sum(axis=1)
            j = int(np.argmin(d2))
            if d2[j] <= eps2:
                union(i, j)
    return len({find(i) for i in range(len(pts))})


class TestLocalModels:
    def test_saddle_in_three_space(self):
        assert count_local_components(3, 1, "trivial") == (2, 1, 1)

    def test_saddle_with_reflection(self):
        assert count_local_components(3, 1, "z2_reflect_last") == (1, 1, 1)

    def test_definite_minimum_in_the_plane(self):
        assert count_local_components(2, 0, "trivial") == (0, 1, 1)

    def test_bad_arguments(self):
        with pytest.raises(LeafError):
            count_local_components(2, 3, "trivial")
        with pytest.raises(LeafError):
            count_local_components(2, 1, "dihedral")

    @pytest.mark.parametrize(
        "n,lam,group",
        [
            (n, lam, group)
            for n in range(1, 4)
            for lam in range(n + 1)
            for group in ("trivial", "z2_reflect_last")
        ],
    )
    def test_matches_the_sampling_oracle(self, n, lam, group):
        below, at, above = count_local_components(n, lam, group)
        assert below == sampled_components(n, lam, -1.0, group)
        assert above == sampled_components(n, lam, 1.0, group)
        if lam in (0, n):
            assert at == 1  # the cone degenerates to the origin; grids miss it
        else:
            assert at == sampled_components(n, lam, 0.0, group)
