import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from foliage.forms import (
    BumpDominatesError,
    BumpTerm,
    ClosedForm,
    FormError,
    NotBasicError,
    _torus_dist2,
    bump_potential,
    g_path_integral,
)
from foliage.orbifold import (
    BUILTIN_ORBIFOLDS,
    GPath,
    TorusPoint,
    concat,
    fundamental_generators,
    orbit,
)
from foliage.leaves import classify_leaf
from foliage.scalar import SymbolTable, q_rank
from foliage.surgery import analyze

from conftest import (
    HEXAGONAL_MATRIX,
    PI,
    SQRT2,
    close_up,
    cyclic_presentation,
    random_gpath,
    random_rational,
)
from test_scalar import (
    RefScalar,
    as_ref,
    forty_digit_pairs,
    fraction_ratio_to,
    nonzero_rationals,
    ref_q_rank,
)

T = BUILTIN_ORBIFOLDS["torus"]
Q = BUILTIN_ORBIFOLDS["pillowcase"]
S = BUILTIN_ORBIFOLDS["shifted_torus"]
H = cyclic_presentation(HEXAGONAL_MATRIX)


def make_table():
    return SymbolTable([("p", PI), ("q", SQRT2)])


def pq_form(pres, table):
    return ClosedForm((table.symbol("p"), table.symbol("q")), pres)


def descends(form):
    """Whether the form's loop periods are defined: it is invariant, or
    declared basic."""
    try:
        form.loop_periods
    except NotBasicError:
        return False
    return True


def small_bump(table, center=(Fraction(1, 4), Fraction(1, 8)), amplitude=Fraction(1, 50)):
    return BumpTerm(
        center=TorusPoint(*center),
        radius=Fraction(1, 32),
        amplitude=table.rational(amplitude),
    )


class TestCheckBasic:
    def test_torus_everything_is_basic(self, table):
        assert descends(pq_form(T, table)) is True

    def test_pillowcase_dtheta_is_anti_invariant(self, table):
        form = ClosedForm((table.rational(1), table.rational(0)), Q)
        assert form.invariant is False
        assert descends(form) is False

    def test_override_recorded_but_passes(self, table):
        form = ClosedForm((table.rational(1), table.rational(0)), Q, basic_override=True)
        assert descends(form) is True
        assert form.invariant is False  # the honest verdict stays visible

    def test_zero_linear_part_is_invariant(self, table):
        form = ClosedForm((table.zero(), table.zero()), Q)
        assert descends(form) is True


class TestZeros:
    def test_nonvanishing_linear_form(self, table):
        assert pq_form(T, table).structure.rank == 2

    def test_bump_domination_rejected(self, table):
        big = BumpTerm(
            center=TorusPoint(Fraction(1, 4), Fraction(1, 8)),
            radius=Fraction(1, 32),
            amplitude=table.rational(10),
        )
        form = ClosedForm((table.rational(1), table.zero()), T, bumps=(big,))
        with pytest.raises(BumpDominatesError):
            form.structure

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
        assert self.boundary_form(self.BELOW_BOUND).structure.rank == 1

    def test_amplitude_just_above_the_bound_dominates(self):
        # a float comparison puts this amplitude's peak slope below the norm 1
        with pytest.raises(BumpDominatesError):
            self.boundary_form(self.ABOVE_BOUND).structure

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


def reference_overlaps(orbifold, bumps) -> bool:
    """The supports check before it ran on integer rows: the Fraction torus
    distance of every pair of orbit copies, each bump's copies sorted."""
    centers = []
    for t in bumps:
        for copy in sorted(orbit(t.center, orbifold), key=lambda p: (p.theta, p.phi)):
            centers.append((copy, t.radius))
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            (ci, ri), (cj, rj) = centers[i], centers[j]
            if _torus_dist2((ci.theta, ci.phi), cj) <= (ri + rj) ** 2:
                return True
    return False


@st.composite
def grid_fractions(draw):
    """A coordinate k/d of [0, 1) with d <= 64."""
    d = draw(st.integers(1, 64))
    return Fraction(draw(st.integers(0, d - 1)), d)


RADII = st.fractions(min_value=Fraction(1, 300), max_value=Fraction(1, 4), max_denominator=300)
# (a, b, c) with a^2 + b^2 = c^2: the unit directions of rational length
PYTHAGOREAN = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (-4, 3, 5), (5, -12, 13), (-8, -15, 17)]


class TestSupportsCheck:
    """Two orbit copies overlap when d^2 <= (r_i + r_j)^2; the check runs on
    integer rows over one common denominator, and the Fraction check it
    replaced is the reference."""

    @settings(deadline=None, max_examples=200)
    @given(orbifold=st.sampled_from([T, Q, S]),
           bumps=st.lists(st.tuples(grid_fractions(), grid_fractions(), RADII),
                          min_size=1, max_size=3))
    def test_the_integer_check_matches_the_fraction_check(self, orbifold, bumps):
        table = make_table()
        terms = tuple(BumpTerm(TorusPoint(x, y), r, table.rational(Fraction(1, 200)))
                      for x, y, r in bumps)
        if reference_overlaps(orbifold, terms):
            with pytest.raises(FormError, match="bump supports overlap"):
                ClosedForm((table.rational(1), table.zero()), orbifold, bumps=terms)
        else:
            form = ClosedForm((table.rational(1), table.zero()), orbifold, bumps=terms)
            assert form.bumps == terms

    @settings(deadline=None)
    @given(orbifold=st.sampled_from([T, Q, S]), x=grid_fractions(), y=grid_fractions(),
           radii=st.tuples(RADII, RADII), direction=st.sampled_from(PYTHAGOREAN))
    def test_supports_that_touch_overlap(self, orbifold, x, y, radii, direction):
        # the second centre sits at distance exactly r_1 + r_2 < 1/2 from the
        # first, so the minimal image is that displacement and d = r_1 + r_2
        table = make_table()
        (r1, r2), (a, b, c) = radii, direction
        reach = (r1 + r2) / c
        terms = (BumpTerm(TorusPoint(x, y), r1, table.rational(Fraction(1, 200))),
                 BumpTerm(TorusPoint(x + a * reach, y + b * reach), r2,
                          table.rational(Fraction(1, 300))))
        assert reference_overlaps(orbifold, terms)
        with pytest.raises(FormError, match="bump supports overlap"):
            ClosedForm((table.rational(1), table.zero()), orbifold, bumps=terms)

    @pytest.mark.parametrize("orbifold, bumps", [
        (T, [((Fraction(1, 16), 0), Fraction(1, 16)), ((Fraction(15, 16), 0), Fraction(1, 16))]),
        (Q, [((Fraction(9, 16), Fraction(1, 2)), Fraction(1, 16))]),
        (S, [((Fraction(1, 8), Fraction(1, 4)), Fraction(1, 4))]),
    ], ids=["across-the-seam", "own-half-turn-copy", "own-half-shift-copy"])
    def test_copies_that_touch_overlap(self, table, orbifold, bumps):
        terms = tuple(BumpTerm(TorusPoint(*c), r, table.rational(Fraction(1, 200)))
                      for c, r in bumps)
        assert reference_overlaps(orbifold, terms)
        with pytest.raises(FormError, match="bump supports overlap"):
            ClosedForm((table.rational(1), table.zero()), orbifold, bumps=terms)


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




def reference_path_integral(form, path):
    """Differential oracle for `g_path_integral`: the per-segment sum, with
    the bump potential evaluated at both ends of every segment."""
    a, b = form.linear
    total = form.table.zero()
    for seg in path.segments:
        d_theta = seg[-1][0] - seg[0][0]
        d_phi = seg[-1][1] - seg[0][1]
        total = total + a * d_theta + b * d_phi
        if form.bumps:
            end = bump_potential(form, TorusPoint(seg[-1][0], seg[-1][1]))
            start = bump_potential(form, TorusPoint(seg[0][0], seg[0][1]))
            total = total + end - start
    return total


class TestTelescopedPathIntegral:
    """Bump potentials telescope across isometric arrows and over loops; the
    per-segment sum is the reference.  The hexagonal action has arrows that
    are not isometries.  On a pillowcase path, the arrow 1 of a shifted-torus
    form is the half-turn, not the form's half shift, so it keeps its term."""

    CASES = [(T, T), (Q, Q), (S, S), (H, H), (S, Q)]  # (form's orbifold, path's)
    IDS = ["torus", "pillowcase", "shifted_torus", "hexagonal", "shifted-form-pillowcase-path"]

    @staticmethod
    def bumped_form(rng, form_pres, path):
        """p dtheta + q dphi with bumps centred just off the path's ends and
        junctions, so the potentials there are nonzero and differ across a
        non-isometric arrow; a bump whose orbit copies would overlap is left out."""
        table = SymbolTable([("p", PI), ("q", SQRT2)])
        form = ClosedForm((table.symbol("p"), table.symbol("q")), form_pres, basic_override=True)
        corners = [path.segments[0][0]] + [seg[-1] for seg in path.segments]
        for x, y in rng.sample(corners, min(3, len(corners))):
            radius = rng.choice([Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)])
            nudge = (rng.choice([-1, 1]) * radius / rng.randint(2, 5), radius / rng.randint(2, 5))
            bump = BumpTerm(
                TorusPoint(x + nudge[0], y + nudge[1]),
                radius,
                table.rational(Fraction(rng.randint(1, 9), rng.choice([200, 400, 1000]))),
            )
            try:
                form = form.with_bumps([bump])
            except FormError:
                continue
        return form

    @pytest.mark.parametrize("form_pres, path_pres", CASES, ids=IDS)
    @settings(deadline=None)
    @given(rng=st.randoms(use_true_random=False), loop=st.booleans())
    def test_equals_the_per_segment_sum(self, form_pres, path_pres, rng, loop):
        start = (random_rational(rng), random_rational(rng))
        n_segments = rng.randint(1, 3)
        if loop:
            path = close_up(rng, path_pres, start, n_segments)
        else:
            path, _ = random_gpath(rng, path_pres, start, n_segments)
        form = self.bumped_form(rng, form_pres, path)
        assert g_path_integral(form, path) == reference_path_integral(form, path)


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
        S = BUILTIN_ORBIFOLDS["shifted_torus"]
        cases = [
            (Q, ClosedForm((table.zero(), table.zero()), Q).with_bumps([small_bump(table)])),
            (S, ClosedForm((table.rational(1), table.symbol("q")), S)),
        ]
        for pres, form in cases:
            assert descends(form)
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
        got = pq_form(T, table).loop_periods
        assert got == (("a", table.symbol("p")), ("b", table.symbol("q")))

    def test_torus_dtheta(self, table):
        form = ClosedForm((table.rational(1), table.zero()), T)
        assert form.loop_periods == (("a", table.rational(1)), ("b", table.zero()))

    def test_bumps_do_not_change_periods(self, table):
        form = pq_form(T, table)
        bumped = form.with_bumps([small_bump(table)])
        assert bumped.loop_periods == form.loop_periods

    def test_requires_basic_or_override(self, table):
        form = ClosedForm((table.rational(1), table.zero()), Q)
        with pytest.raises(NotBasicError):
            form.loop_periods

    def test_pillowcase_override_full_generator_list(self, table):
        form = ClosedForm((table.rational(1), table.zero()), Q, basic_override=True)
        got = dict(form.loop_periods)
        assert got["a"] == table.rational(1)
        assert got["b"] == table.zero()
        assert got["k1"] == table.rational(Fraction(-1, 4))


class TestRank:
    def test_independent_symbols(self, table):
        assert pq_form(T, table).period_rank == 2

    def test_rational_form(self, table):
        form = ClosedForm((table.rational(3), table.zero()), T)
        assert form.period_rank == 1

    def test_dependent_coefficients(self, table):
        form = ClosedForm((table.rational(1), table.rational(2)), T)
        assert form.period_rank == 1

    def test_invariant_under_bumps_and_rescaling(self, table):
        form = pq_form(T, table)
        assert form.with_bumps([small_bump(table)]).period_rank == form.period_rank
        assert form.rescaled(Fraction(7, 3)).period_rank == form.period_rank
        assert form.rescaled(-2).period_rank == form.period_rank

    def test_pillowcase_k_loop_never_raises_rank(self, table):
        form = ClosedForm((table.symbol("p"), table.symbol("q")), Q, basic_override=True)
        vals = [v for _, v in form.loop_periods]
        assert q_rank(vals) == 2


@st.composite
def forty_digit_linear_parts(draw):
    """(a, b) over a table of 40-digit literals, not both zero, each built as
    a SymScalar and as a RefScalar: drawn free, with a or b zero, or with b a
    rational multiple of a, so rank 1 rows of several entries occur."""
    (a, ra), (b, rb) = draw(forty_digit_pairs(count=2))
    how = draw(st.sampled_from(["free", "a zero", "b zero", "multiple"]))
    if how == "a zero":
        a, ra = a.table.zero(), RefScalar(a.table, {})
    elif how == "b zero":
        b, rb = b.table.zero(), RefScalar(b.table, {})
    elif how == "multiple":
        c = draw(nonzero_rationals)
        b, rb = a * c, ra * c
    assume(ra.coeffs or rb.coeffs)
    # the leaf circle's content takes the sign of a, or of b when a = 0
    assume((ra if ra.coeffs else rb).value() != 0)
    return (a, ra), (b, rb)


class TestStructureAgainstTheFractionReference:
    @given(parts=forty_digit_linear_parts())
    def test_rank_content_and_direction(self, parts):
        (a, ra), (b, rb) = parts
        structure = ClosedForm((a, b), T).structure
        assert structure.rank == ref_q_rank([ra, rb])
        assert (structure.direction is not None) == (structure.rank == 1)
        if structure.rank == 1:
            # (a, b) = content * (m, n), m and n coprime, leaves along (n, -m),
            # where content is the cover circle's period
            n, minus_m = structure.direction
            content = as_ref(structure.circumference * structure.quotient_order)
            assert content.value() > 0
            assert gcd(-minus_m, n) == 1
            assert ra == content * -minus_m and rb == content * n
        # the ratio of two rows is read at their last entries, the Fraction
        # definition at the first nonzero ones
        assert a.ratio_to(b) == fraction_ratio_to(a, b)
        assert b.ratio_to(a) == fraction_ratio_to(b, a)


NONDOMINANCE_TABLE = SymbolTable([("p", PI), ("q", SQRT2)])


def fraction_dominates(form):
    """The nondominance test as it was decided on Fractions, before `ClosedForm.structure`
    cleared every denominator: amplitude^2 * 64*6^6/7^7 >= radius^2 * |(a, b)|^2."""
    a, b = form.linear
    norm2 = a.value() ** 2 + b.value() ** 2
    return any(t.amplitude.value() ** 2 * Fraction(64 * 6**6, 7**7) >= t.radius**2 * norm2
               for t in form.bumps)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=40)


class TestNondominance:
    @given(linear=st.tuples(small_fractions, small_fractions, small_fractions),
           amplitude=st.tuples(st.fractions(min_value=-1, max_value=1, max_denominator=500),
                               st.fractions(min_value=-1, max_value=1, max_denominator=500)),
           radius=st.sampled_from([Fraction(1, 32), Fraction(1, 8), Fraction(3, 7)]))
    # a = 1, b = 0, radius 1/32: the bound sits between 0.016411 and 0.016412
    @example(linear=(Fraction(1), Fraction(0), Fraction(0)),
             amplitude=(Fraction(16411, 10**6), Fraction(0)), radius=Fraction(1, 32))
    @example(linear=(Fraction(1), Fraction(0), Fraction(0)),
             amplitude=(Fraction(-16412, 10**6), Fraction(0)), radius=Fraction(1, 32))
    def test_the_integer_test_matches_the_fraction_test(self, linear, amplitude, radius):
        t = NONDOMINANCE_TABLE
        a = t.combination([(linear[0], "one"), (linear[1], "p")])
        b = t.combination([(linear[2], "q")])
        bump = BumpTerm(TorusPoint(Fraction(1, 4), Fraction(1, 8)), radius,
                        t.combination([(amplitude[0], "one"), (amplitude[1], "p")]))
        form = ClosedForm((a, b), T, bumps=(bump,))
        if a.is_zero() and b.is_zero():
            with pytest.raises(FormError, match="the zero form"):
                form.structure
        elif fraction_dominates(form):
            with pytest.raises(BumpDominatesError):
                form.structure
        else:
            assert form.structure.rank >= 1


class TestKeptStructure:
    """A form decides its invariant elements and its structure on first read
    and keeps them; only the structure enforces nondominance."""

    def test_threads_racing_on_the_first_read_get_equal_records(self, table):
        p = table.symbol("p")
        form = ClosedForm((p * 2, p * 3), Q, bumps=(small_bump(table),), basic_override=True)
        start = threading.Barrier(4)

        def first_read(_):
            start.wait(timeout=30)
            return form.structure, form.invariant_elements

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                records = list(pool.map(first_read, range(4), timeout=60))
        finally:
            sys.setswitchinterval(saved)
        fresh = form._replace()
        assert records == [(fresh.structure, fresh.invariant_elements)] * 4
        assert not form.invariant and records[0][1] == (0,)

    def test_threads_racing_on_the_first_read_get_equal_copies_and_cones(self, table,
                                                                          monkeypatch):
        bumps = (small_bump(table), small_bump(table, center=(Fraction(5, 8), Fraction(3, 4))))
        form = ClosedForm((table.rational(1), table.rational(2)), Q, bumps=bumps,
                          basic_override=True)
        # the supports check read the copies at construction: forget them,
        # and the pillowcase's kept grids, so the threads make the first reads
        del form.__dict__["bump_copies"]
        for d in list(Q._grid_cones):
            monkeypatch.delitem(Q._grid_cones, d)
        start = threading.Barrier(4)

        def first_read(_):
            start.wait(timeout=30)
            return form.bump_copies, Q.singular_points_on_grid(8), Q.singular_points_on_grid()

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                records = list(pool.map(first_read, range(4), timeout=60))
        finally:
            sys.setswitchinterval(saved)
        fresh = form._replace()
        cones = [TorusPoint(Fraction(i, 2), Fraction(j, 2)) for i in (0, 1) for j in (0, 1)]
        assert records == [(fresh.bump_copies, cones, cones)] * 4
        assert [copy for copy, _ in fresh.bump_copies] == [
            copy for term in bumps for copy in orbit(term.center, Q)]

    @staticmethod
    def structure_reads(form):
        """Every entry point that decides the structure, each read twice
        (a structure that raised is not kept)."""
        reads = [lambda: form.structure,
                 lambda: classify_leaf(form, form.orbifold, TorusPoint(0, 0)),
                 lambda: analyze(form, "w")]
        return reads * 2

    def test_a_dominating_bump_raises_from_the_structure_only(self, table):
        big = small_bump(table, amplitude=10)
        form = ClosedForm((table.rational(1), table.zero()), T, bumps=(big,))
        assert descends(form) is True and form.invariant is True
        assert form.loop_periods == (("a", table.rational(1)), ("b", table.zero()))
        for read in self.structure_reads(form):
            with pytest.raises(BumpDominatesError, match=r"^bump at center 1/4 1/8 dominates"):
                read()

    def test_the_zero_form_raises_from_the_structure_only(self, table):
        form = ClosedForm((table.zero(), table.zero()), Q)
        assert descends(form) is True and form.invariant_elements == (0, 1)
        for read in self.structure_reads(form):
            with pytest.raises(FormError, match="the zero form has no foliation"):
                read()
