from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from foliage.orbifold import (
    BUILTIN_ORBIFOLDS,
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
)

from conftest import (
    HEXAGONAL_MATRIX,
    close_up,
    cyclic_presentation,
    random_gpath,
    random_rational,
)

Q = BUILTIN_ORBIFOLDS["pillowcase"]
T = BUILTIN_ORBIFOLDS["torus"]
S = BUILTIN_ORBIFOLDS["shifted_torus"]
H = cyclic_presentation(HEXAGONAL_MATRIX)


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


def reference_orbit(x, presentation):
    return {g.apply(x) for g in presentation.action.elements}


R4 = cyclic_presentation(((0, -1), (1, 0)))
GLIDE = cyclic_presentation(((1, 0), (0, -1)), (Fraction(1, 2), 0))
THIRDS = cyclic_presentation(((1, 0), (0, 1)), (Fraction(1, 3), Fraction(2, 3)))
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)


class TestOrbitOracle:
    """orbit works on integer numerators; the orbit of g.apply images is its
    reference, down to the set's iteration order, which fixes the order bump
    copies are summed in."""

    PRESENTATIONS = [*BUILTIN_ORBIFOLDS.values(), R4, H, GLIDE, THIRDS]

    @given(theta=RATIONALS, phi=RATIONALS)
    @example(theta=Fraction(1, 2), phi=Fraction(1, 2))  # fixed by the half-turn
    @example(theta=Fraction(-1, 3), phi=Fraction(5, 3))
    def test_same_points_in_the_same_order(self, theta, phi):
        x = TorusPoint(theta, phi)
        for presentation in self.PRESENTATIONS:
            got, want = orbit(x, presentation), reference_orbit(x, presentation)
            assert got == want and list(got) == list(want)
            for p in got:
                assert type(p) is TorusPoint and TorusPoint(p.theta, p.phi) == p
                assert type(p.theta) is Fraction and 0 <= p.theta < 1 and 0 <= p.phi < 1
            assert isotropy_order(x, presentation) == sum(
                1 for g in presentation.action.elements if g.apply(x) == x)


class TestSingularGrid:
    """singular_points_on_grid keeps the grid points of nontrivial isotropy;
    its reference is the definition, a grid point that some non-identity
    element fixes."""

    PRESENTATIONS = [
        T,
        Q,
        S,
        cyclic_presentation(((0, -1), (1, 0))),
        cyclic_presentation(((1, -1), (1, 0))),
        cyclic_presentation(((1, 0), (0, -1)), (Fraction(1, 2), 0)),
        cyclic_presentation(((-1, 0), (0, -1)), (Fraction(1, 3), 0)),
    ]
    IDS = [
        "torus",
        "pillowcase",
        "shifted_torus",
        "order-4 rotation",
        "order-6 hexagonal rotation",
        "glide reflection",
        "shifted half-turn",
    ]

    @pytest.mark.parametrize("d", [8, 12, 24])
    @pytest.mark.parametrize("pres", PRESENTATIONS, ids=IDS)
    def test_matches_the_fixed_points(self, pres, d):
        grid = [TorusPoint(Fraction(i, d), Fraction(j, d)) for i in range(d) for j in range(d)]
        assert pres.singular_points_on_grid(d) == [
            p for p in grid if any(g.apply(p) == p for g in pres.action.elements[1:])]

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
        with pytest.raises(OrbifoldError, match="basepoint must have trivial isotropy"):
            OrbifoldPresentation(Q.action, (0, 0))


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

    @pytest.mark.parametrize(
        "pres", [T, Q, S, H], ids=["torus", "pillowcase", "shifted_torus", "hexagonal"]
    )
    @given(rng=st.randoms(use_true_random=False), close=st.booleans())
    def test_is_loop_agrees_with_the_reduced_ends(self, pres, rng, close):
        start = (random_rational(rng), random_rational(rng))
        if close:
            path = close_up(rng, pres, start, rng.randint(1, 3))
        else:
            path, _ = random_gpath(rng, pres, start, rng.randint(1, 3))
        assert path.is_loop() == (path.start == path.end)

    def test_reverse_inverts_arrows(self):
        gens = fundamental_generators(Q)
        k1 = next(g for g in gens if g.gen_id == "k1")
        rev = k1.loop.reverse()
        assert rev.is_loop()
        assert len(rev.arrows) == len(k1.loop.arrows)


def step_sum(path):
    """The cover displacement summed step by step over every waypoint pair."""
    steps = [(q[0] - p[0], q[1] - p[1]) for seg in path.segments for p, q in zip(seg, seg[1:])]
    return (sum(dx for dx, _ in steps), sum(dy for _, dy in steps))


class TestDisplacement:
    PRESENTATIONS = [*BUILTIN_ORBIFOLDS.values(), H]
    IDS = [*BUILTIN_ORBIFOLDS, "hexagonal"]

    @pytest.mark.parametrize("pres", PRESENTATIONS, ids=IDS)
    def test_every_generator_loop_keeps_its_step_sum(self, pres):
        assert len(pres.generators) == len(pres.action) + 1
        for g in pres.generators:
            assert g.loop.displacement == step_sum(g.loop)

    @pytest.mark.parametrize("pres", PRESENTATIONS, ids=IDS)
    @given(rng=st.randoms(use_true_random=False), close=st.booleans())
    def test_reversed_and_concatenated_paths_keep_their_step_sums(self, pres, rng, close):
        start = (random_rational(rng), random_rational(rng))
        if close:
            path = close_up(rng, pres, start, rng.randint(1, 3))
        else:
            path, _ = random_gpath(rng, pres, start, rng.randint(1, 3))
        rev = path.reverse()
        dx, dy = path.displacement
        assert path.displacement == step_sum(path)
        assert rev.displacement == step_sum(rev) == (-dx, -dy)
        for joined in (concat(path, rev), concat(rev, path)):
            assert joined.displacement == step_sum(joined) == (0, 0)
