import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foliage.forms import (
    BumpDominatesError,
    BumpTerm,
    ClosedForm,
    FormError,
    NotBasicError,
    _torus_dist2,
    bump_potential,
    check_basic,
    g_path_integral,
    invariance_verdict,
    periods,
    rank_of_class,
    zeros,
)
from foliage.orbifold import (
    GPath,
    TorusPoint,
    concat,
    fundamental_generators,
    pillowcase_presentation,
    torus_presentation,
)
from foliage.scalar import SymbolTable, q_rank

from conftest import PI, SQRT2, close_up, random_gpath, random_rational

T = torus_presentation()
Q = pillowcase_presentation()


def make_table():
    return SymbolTable([("p", PI), ("q", SQRT2)])


def pq_form(pres, table):
    return ClosedForm((table.symbol("p"), table.symbol("q")), pres)


def small_bump(table, center=(Fraction(1, 4), Fraction(1, 8)), amplitude=Fraction(1, 50)):
    return BumpTerm(
        center=TorusPoint(*center),
        radius=Fraction(1, 32),
        amplitude=table.rational(amplitude),
    )


class TestCheckBasic:
    def test_torus_everything_is_basic(self, table):
        assert check_basic(pq_form(T, table)) is True

    def test_pillowcase_dtheta_is_anti_invariant(self, table):
        form = ClosedForm((table.rational(1), table.rational(0)), Q)
        assert invariance_verdict(form) is False
        assert check_basic(form) is False

    def test_override_recorded_but_passes(self, table):
        form = ClosedForm((table.rational(1), table.rational(0)), Q, basic_override=True)
        assert check_basic(form) is True
        assert invariance_verdict(form) is False  # the honest verdict stays visible

    def test_zero_linear_part_is_invariant(self, table):
        form = ClosedForm((table.zero(), table.zero()), Q)
        assert check_basic(form) is True


class TestZeros:
    def test_nonvanishing_linear_form(self, table):
        assert zeros(pq_form(T, table)) == []

    def test_bump_domination_rejected(self, table):
        big = BumpTerm(
            center=TorusPoint(Fraction(1, 4), Fraction(1, 8)),
            radius=Fraction(1, 32),
            amplitude=table.rational(10),
        )
        form = ClosedForm((table.rational(1), table.zero()), T, bumps=(big,))
        with pytest.raises(BumpDominatesError):
            zeros(form)

    # the nondominance bound |amplitude| < R / sup|h'| is (1/32)*343*sqrt(7)/1728
    # on 1 dtheta with radius 1/32; these 40-digit literals bracket it
    BELOW_BOUND = "0.01641154332492684050459444089081066127782"
    ABOVE_BOUND = "0.01641154332492684050459444089081066127783"

    def boundary_form(self, literal):
        table = SymbolTable([("amp", literal)])
        bump = BumpTerm(TorusPoint(Fraction(1, 4), Fraction(1, 8)), Fraction(1, 32),
                        table.symbol("amp"))
        return ClosedForm((table.rational(1), table.zero()), T, bumps=(bump,))

    def test_amplitude_just_below_the_bound_is_accepted(self):
        assert zeros(self.boundary_form(self.BELOW_BOUND)) == []

    def test_amplitude_just_above_the_bound_dominates(self):
        # a float comparison puts this amplitude's peak slope below the norm 1
        with pytest.raises(BumpDominatesError):
            zeros(self.boundary_form(self.ABOVE_BOUND))

    def test_overlapping_supports_rejected(self, table):
        b1 = small_bump(table)
        b2 = small_bump(table, center=(Fraction(1, 4) + Fraction(1, 64), Fraction(1, 8)))
        with pytest.raises(FormError):
            ClosedForm((table.rational(1), table.zero()), T, bumps=(b1, b2))

    def test_orbit_copies_must_stay_disjoint(self, table):
        # on the pillowcase the orbit copy of a center near the fixed point
        # collides with the bump itself
        near_cone = BumpTerm(
            center=TorusPoint(Fraction(1, 2) + Fraction(1, 100), Fraction(1, 2)),
            radius=Fraction(1, 32),
            amplitude=table.rational(Fraction(1, 50)),
        )
        with pytest.raises(FormError):
            ClosedForm((table.rational(1), table.zero()), Q, bumps=(near_cone,),
                       basic_override=True)


def nine_shift_dist2(x, c):
    """Reference: the squared distance minimised over the nine nearest lattice shifts."""
    return min(
        (x[0] - c.theta + dx) ** 2 + (x[1] - c.phi + dy) ** 2
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    )


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda f: f < 1
)


class TestTorusDistance:
    @given(st.tuples(unit_rationals, unit_rationals), st.tuples(unit_rationals, unit_rationals))
    def test_minimal_image_equals_the_nine_shift_minimum(self, x, c):
        center = TorusPoint(*c)
        assert _torus_dist2(x, center) == nine_shift_dist2(x, center)


class TestPathIntegral:
    def test_theta_loop(self, table):
        form = pq_form(T, table)
        a = next(g for g in fundamental_generators(T) if g.gen_id == "a")
        assert g_path_integral(form, a.loop) == table.symbol("p")

    def test_phi_loop(self, table):
        form = pq_form(T, table)
        b = next(g for g in fundamental_generators(T) if g.gen_id == "b")
        assert g_path_integral(form, b.loop) == table.symbol("q")

    def test_constant_path(self, table):
        form = pq_form(T, table)
        const = GPath.of(T, [[(Fraction(1, 8), Fraction(1, 8))]])
        assert g_path_integral(form, const).is_zero()

    def test_inverse_path_cancels(self, table):
        form = pq_form(Q, table)
        k1 = next(g for g in fundamental_generators(Q) if g.gen_id == "k1")
        roundtrip = concat(k1.loop, k1.loop.reverse())
        assert g_path_integral(form, roundtrip).is_zero()




class TestPeriodHomomorphism:
    def test_additivity_on_random_concatenations(self, rng, table):
        # the path integral is a homomorphism under concatenation
        for pres in (T, Q):
            form = ClosedForm(
                (table.symbol("p"), table.symbol("q")), pres,
                basic_override=(pres is Q),
            )
            for _ in range(50):
                start = (random_rational(rng), random_rational(rng))
                p, mid = random_gpath(rng, pres, start, rng.randint(1, 3))
                q, _ = random_gpath(rng, pres, mid, rng.randint(1, 3))
                lhs = g_path_integral(form, concat(p, q))
                rhs = g_path_integral(form, p) + g_path_integral(form, q)
                assert lhs == rhs

    def test_cohomologous_perturbation_on_loops_and_paths(self, rng, table):
        base = ClosedForm((table.symbol("p"), table.symbol("q")), T)
        bumped = base.with_bumps([small_bump(table)])
        for _ in range(50):
            start = (random_rational(rng), random_rational(rng))
            loop = close_up(rng, T, start, rng.randint(1, 3))
            assert g_path_integral(bumped, loop) == g_path_integral(base, loop)
            path, end = random_gpath(rng, T, start, rng.randint(1, 3))
            diff = g_path_integral(bumped, path) - g_path_integral(base, path)
            f_end = bump_potential(bumped, TorusPoint(*end))
            f_start = bump_potential(bumped, TorusPoint(*start))
            assert diff == f_end - f_start

    def test_pullback_invariance_of_segment_integrals(self, rng, table):
        # honestly basic forms integrate equally over g-translates
        from foliage.orbifold import shifted_torus_presentation

        S = shifted_torus_presentation()
        cases = [
            (Q, ClosedForm((table.zero(), table.zero()), Q).with_bumps([small_bump(table)])),
            (S, ClosedForm((table.rational(1), table.symbol("q")), S)),
        ]
        for pres, form in cases:
            assert check_basic(form)
            for _ in range(20):
                start = (random_rational(rng), random_rational(rng))
                seg, _ = random_gpath(rng, pres, start, 1)
                for g in pres.action.elements:
                    moved = GPath.of(
                        pres, [[g.apply_cover(w) for w in seg.segments[0]]], []
                    )
                    assert g_path_integral(form, moved) == g_path_integral(form, seg)


class TestPeriods:
    def test_torus_pq(self, table):
        got = periods(pq_form(T, table))
        assert got == [("a", table.symbol("p")), ("b", table.symbol("q"))]

    def test_torus_dtheta(self, table):
        form = ClosedForm((table.rational(1), table.zero()), T)
        assert periods(form) == [("a", table.rational(1)), ("b", table.zero())]

    def test_bumps_do_not_change_periods(self, table):
        form = pq_form(T, table)
        bumped = form.with_bumps([small_bump(table)])
        assert periods(bumped) == periods(form)

    def test_requires_basic_or_override(self, table):
        form = ClosedForm((table.rational(1), table.zero()), Q)
        with pytest.raises(NotBasicError):
            periods(form)

    def test_pillowcase_override_full_generator_list(self, table):
        form = ClosedForm((table.rational(1), table.zero()), Q, basic_override=True)
        got = dict(periods(form))
        assert got["a"] == table.rational(1)
        assert got["b"] == table.zero()
        assert got["k1"] == table.rational(Fraction(-1, 4))


class TestRank:
    def test_independent_symbols(self, table):
        assert rank_of_class(pq_form(T, table)) == 2

    def test_rational_form(self, table):
        form = ClosedForm((table.rational(3), table.zero()), T)
        assert rank_of_class(form) == 1

    def test_dependent_coefficients(self, table):
        form = ClosedForm((table.rational(1), table.rational(2)), T)
        assert rank_of_class(form) == 1

    def test_invariant_under_bumps_and_rescaling(self, table):
        form = pq_form(T, table)
        assert rank_of_class(form.with_bumps([small_bump(table)])) == rank_of_class(form)
        assert rank_of_class(form.rescaled(Fraction(7, 3))) == rank_of_class(form)
        assert rank_of_class(form.rescaled(-2)) == rank_of_class(form)

    def test_pillowcase_k_loop_never_raises_rank(self, table):
        form = ClosedForm((table.symbol("p"), table.symbol("q")), Q, basic_override=True)
        vals = [v for _, v in periods(form)]
        assert q_rank(vals) == 2
