from fractions import Fraction

import pytest

from foliage.orbifold import (
    AffineMap,
    GPath,
    GroupAction,
    OrbifoldError,
    OrbifoldPresentation,
    TorusPoint,
    concat,
    fundamental_generators,
    isotropy_order,
    orbit,
    pillowcase_presentation,
    shifted_torus_presentation,
    torus_presentation,
)

Q = pillowcase_presentation()
T = torus_presentation()
S = shifted_torus_presentation()


class TestPoints:
    def test_reduction_mod_one(self):
        p = TorusPoint(Fraction(9, 8), Fraction(-1, 3))
        assert (p.theta, p.phi) == (Fraction(1, 8), Fraction(2, 3))

    def test_numeric_tag(self):
        p = TorusPoint(1.25, 0.5)
        assert p.theta == Fraction(1, 4)
        assert abs(p.theta - 0.25) < 1e-12


class TestGroupAction:
    def test_pillowcase_is_a_group(self):
        assert len(Q.action) == 2

    def test_rejects_non_group(self):
        rot = AffineMap.of(((0, -1), (1, 0)), (0, 0))  # order 4, alone with id
        with pytest.raises(OrbifoldError):
            GroupAction([AffineMap.identity(), rot])

    def test_rejects_missing_identity(self):
        flip = AffineMap.of(((-1, 0), (0, -1)), (0, 0))
        with pytest.raises(OrbifoldError):
            GroupAction([flip, AffineMap.identity()])


class TestOrbits:
    def test_pillowcase_fixed_corner(self):
        assert orbit(TorusPoint(0, 0), Q) == {TorusPoint(0, 0)}

    def test_pillowcase_generic_orbit(self):
        got = orbit(TorusPoint(Fraction(1, 4), Fraction(1, 3)), Q)
        assert got == {
            TorusPoint(Fraction(1, 4), Fraction(1, 3)),
            TorusPoint(Fraction(3, 4), Fraction(2, 3)),
        }

    def test_trivial_action(self):
        x = TorusPoint(Fraction(2, 7), Fraction(3, 11))
        assert orbit(x, T) == {x}

    def test_isotropy_at_cone_points(self):
        assert isotropy_order(TorusPoint(Fraction(1, 2), Fraction(1, 2)), Q) == 2
        assert isotropy_order(TorusPoint(Fraction(1, 4), Fraction(1, 3)), Q) == 1
        assert isotropy_order(TorusPoint(Fraction(1, 4), Fraction(1, 3)), T) == 1

    def test_isotropy_constant_on_orbits(self):
        for num in range(5):
            x = TorusPoint(Fraction(num, 5), Fraction(num, 7))
            for g in Q.action.elements:
                assert isotropy_order(g.apply(x), Q) == isotropy_order(x, Q)

    def test_orbit_sizes_tile_a_grid(self):
        # every orbit size divides |K|, and orbits partition any exact grid
        n = 12
        grid = {
            TorusPoint(Fraction(i, n), Fraction(j, n)) for i in range(n) for j in range(n)
        }
        seen = set()
        total = 0
        for x in sorted(grid, key=lambda p: (p.theta, p.phi)):
            if x in seen:
                continue
            o = orbit(x, Q)
            assert len(Q.action) % len(o) == 0
            assert o <= grid
            seen |= o
            total += len(o)
        assert total == n * n


def cyclic_presentation(name, matrix, offset=(0, 0)):
    """The cyclic group one affine map generates, as a presentation."""
    g = AffineMap.of(matrix, offset)
    elements = [AffineMap.identity()]
    while (h := g.compose(elements[-1])) != elements[0]:
        elements.append(h)
    return OrbifoldPresentation(GroupAction(elements), name)


class TestSingularGrid:
    """singular_points_on_grid decides fixed points by an integer test; the
    isotropy_order scan over the same grid is its reference."""

    PRESENTATIONS = [
        T,
        Q,
        S,
        cyclic_presentation("order-4 rotation", ((0, -1), (1, 0))),
        cyclic_presentation("order-6 hexagonal rotation", ((1, -1), (1, 0))),
        cyclic_presentation("glide reflection", ((1, 0), (0, -1)), (Fraction(1, 2), 0)),
        cyclic_presentation("shifted half-turn", ((-1, 0), (0, -1)), (Fraction(1, 3), 0)),
    ]

    @pytest.mark.parametrize("d", [8, 12, 24])
    @pytest.mark.parametrize("pres", PRESENTATIONS, ids=lambda p: p.name)
    def test_matches_the_isotropy_scan(self, pres, d):
        grid = [TorusPoint(Fraction(i, d), Fraction(j, d)) for i in range(d) for j in range(d)]
        assert pres.singular_points_on_grid(d) == [p for p in grid if isotropy_order(p, pres) > 1]

    def test_group_orders(self):
        assert [len(p.action) for p in self.PRESENTATIONS] == [1, 2, 2, 4, 6, 2, 2]


class TestGenerators:
    def test_counts(self):
        assert [g.gen_id for g in fundamental_generators(Q)] == ["a", "b", "k1"]
        assert [g.gen_id for g in fundamental_generators(T)] == ["a", "b"]
        assert [g.gen_id for g in fundamental_generators(S)] == ["a", "b", "k1"]

    def test_all_are_loops(self):
        for pres in (Q, T, S):
            for g in fundamental_generators(pres):
                assert g.loop.is_loop()

    def test_singular_basepoint_rejected(self):
        with pytest.raises(OrbifoldError):
            fundamental_generators(Q, (Fraction(0), Fraction(0)))


class TestPaths:
    def test_arrow_compatibility_checked(self):
        with pytest.raises(OrbifoldError):
            GPath.of(Q, [[(Fraction(1, 8), Fraction(1, 8))], [(0, 0)]], [1])

    def test_concat_with_constant_path(self):
        x0 = (Fraction(1, 8), Fraction(1, 8))
        a = GPath.of(T, [[x0, (Fraction(9, 8), Fraction(1, 8))]])
        const = GPath.of(T, [[x0]])
        joined = concat(a, const)
        assert joined.start == joined.end == TorusPoint(*x0)
        assert len(joined.segments) == 2

    def test_concat_endpoint_mismatch(self):
        a = GPath.of(T, [[(0, 0), (Fraction(1, 2), 0)]])
        b = GPath.of(T, [[(Fraction(1, 4), 0), (1, 0)]])
        with pytest.raises(OrbifoldError):
            concat(a, b)

    def test_reverse_inverts_arrows(self):
        gens = fundamental_generators(Q)
        k1 = next(g for g in gens if g.gen_id == "k1")
        rev = k1.loop.reverse()
        assert rev.is_loop()
        assert len(rev.arrows) == len(k1.loop.arrows)
