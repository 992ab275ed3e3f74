from fractions import Fraction
from math import gcd, sqrt

import pytest

from foliage import leaves
from foliage.forms import BumpTerm, ClosedForm, bump_potential
from foliage.leaves import _bump_sums, classify_leaf, trace_leaf
from foliage.orbifold import (
    TorusPoint,
    orbit,
    pillowcase_presentation,
    shifted_torus_presentation,
    torus_presentation,
)
from foliage.scalar import SymbolTable

from conftest import SQRT2, SQRT3

T = torus_presentation()
S = shifted_torus_presentation()
Q = pillowcase_presentation()
SEED = TorusPoint(Fraction(1, 8), Fraction(1, 8))


def rational_form(table, p, q):
    return ClosedForm((table.rational(p), table.rational(q)), T)


class TestClosedTraces:
    def test_two_three_slope(self, table):
        form = rational_form(table, 2, 3)
        result = trace_leaf(form, SEED, step=0.01)
        assert result.verdict == "Closed"
        assert result.return_error < 1e-9
        assert abs(result.period_length - sqrt(13)) < 1e-6

    def test_vertical_circle(self, table):
        form = rational_form(table, 1, 0)
        result = trace_leaf(form, SEED, step=0.01)
        assert result.verdict == "Closed"
        assert abs(result.period_length - 1.0) < 1e-6

    def test_group_identification_shortens_the_leaf(self, table):
        # horizontal circles on the half-shift quotient close at length 1/2
        form = ClosedForm((table.zero(), table.rational(1)), S)
        result = trace_leaf(form, SEED, step=0.01)
        assert result.verdict == "Closed"
        assert abs(result.period_length - 0.5) < 1e-6

    def test_bump_perturbation_keeps_the_leaf_closed(self, table):
        bump = BumpTerm(
            center=TorusPoint(Fraction(5, 8), Fraction(5, 8)),
            radius=Fraction(1, 16),
            amplitude=table.rational(Fraction(1, 200)),
        )
        form = rational_form(table, 2, 3).with_bumps([bump])
        result = trace_leaf(form, SEED, step=0.002, return_tol=1e-6)
        assert result.verdict == "Closed"
        assert result.return_error < 1e-6


class TestDenseTraces:
    def test_irrational_slope_covers_the_grid(self, table):
        form = ClosedForm((table.rational(1), table.symbol("q")), T)
        result = trace_leaf(form, SEED, step=0.02, max_steps=1_000_000)
        assert result.verdict == "DenseEvidence"
        assert result.coverage >= 0.99

    def test_degenerate_field_is_inconclusive(self, table):
        form = ClosedForm((table.zero(), table.zero()), T)
        result = trace_leaf(form, SEED)
        assert result.verdict == "Inconclusive"


class TestDichotomy:
    """Zero-free forms: rank <= 1 makes every leaf compact, rank > 1 makes
    every leaf dense; sampled over ten seeds each."""

    SEEDS = [
        TorusPoint(Fraction(i, 11), Fraction((3 * i + 1) % 11, 11)) for i in range(10)
    ]

    def test_rank_one_all_seeds_close(self, table):
        form = rational_form(table, 2, 3)
        for seed in self.SEEDS:
            result = trace_leaf(form, seed, step=0.01, return_tol=1e-6)
            assert result.verdict == "Closed", seed

    def test_rank_two_all_seeds_dense(self, table):
        form = ClosedForm((table.symbol("p"), table.symbol("q")), T)
        for seed in self.SEEDS:
            result = trace_leaf(form, seed, step=0.02, max_steps=1_000_000)
            assert result.verdict == "DenseEvidence", seed


class TestOracleAgreement:
    """The exact classifier and the numeric tracer must agree."""

    RATIONAL_SLOPES = [
        (p, q)
        for q in range(0, 11)
        for p in range(-10, 11)
        if (p, q) != (0, 0) and gcd(p, q) == 1 and abs(p) + q <= 9
    ][:50]
    assert len(RATIONAL_SLOPES) == 50

    IRRATIONAL_SLOPES = [
        ("one", "q"), ("one", "r"), ("q", "r"), ("one", "g"), ("q", "g")
    ]

    @pytest.mark.parametrize("p,q", RATIONAL_SLOPES)
    def test_rational_slopes_close(self, table, p, q):
        form = rational_form(table, p, q)
        assert classify_leaf(form, T, SEED).kind == "CompactRegular"
        result = trace_leaf(form, SEED, step=0.01, return_tol=1e-6)
        assert result.verdict == "Closed"
        assert result.return_error < 1e-6

    @pytest.mark.parametrize("a,b", IRRATIONAL_SLOPES)
    def test_irrational_slopes_are_dense(self, a, b):
        table = SymbolTable([("q", SQRT2), ("r", SQRT3), ("g", "1.61803398874989484820458683436563811772")])
        form = ClosedForm((table.symbol(a), table.symbol(b)), T)
        assert classify_leaf(form, T, SEED).kind == "NoncompactRegular"
        result = trace_leaf(form, SEED, step=0.02, max_steps=1_000_000)
        assert result.verdict == "DenseEvidence"
        assert result.coverage >= 0.99


class TestCompiledField:
    """trace_leaf turns a form into floats once; these pin that the compiled
    field keeps the numbers of the exact geometry."""

    BUMP_RADIUS = Fraction(1, 16)

    def bump(self, table, center):
        return BumpTerm(TorusPoint(*center), self.BUMP_RADIUS, table.rational(Fraction(1, 200)))

    def assert_crosses_support(self, result, center):
        def dist2(x, y):
            dx = (x - float(center[0]) + 0.5) % 1.0 - 0.5
            dy = (y - float(center[1]) + 0.5) % 1.0 - 0.5
            return dx * dx + dy * dy

        assert min(dist2(x, y) for x, y in result.polyline) < float(self.BUMP_RADIUS) ** 2

    def test_golden_torus_bumped_leaf(self, table):
        center = (Fraction(5, 8), Fraction(5, 8))
        form = rational_form(table, 2, 3).with_bumps([self.bump(table, center)])
        seed = TorusPoint(Fraction(29, 400), 0)
        result = trace_leaf(form, seed, step=0.002, return_tol=1e-6, collect_polyline=True)
        assert (result.verdict, result.steps) == ("Closed", 1802)
        assert result.period_length.hex() == "0x1.cd8420521fbccp+1"
        self.assert_crosses_support(result, center)

    def test_golden_pillowcase_bumped_leaf(self, table):
        center = (Fraction(1, 4), Fraction(3, 8))
        form = ClosedForm(
            (table.rational(1), table.rational(2)), Q, bumps=(self.bump(table, center),)
        )
        seed = TorusPoint(Fraction(1, 100), 0)
        result = trace_leaf(form, seed, step=0.002, return_tol=1e-6, collect_polyline=True)
        assert (result.verdict, result.steps) == ("Closed", 1117)
        assert result.period_length.hex() == "0x1.1e3f0ced0c62dp+1"
        self.assert_crosses_support(result, center)

    def test_orbits_are_compiled_once_per_bump(self, table, monkeypatch):
        calls = []

        def counting_orbit(x, presentation):
            calls.append(x)
            return orbit(x, presentation)

        bumps = [
            self.bump(table, (Fraction(5, 8), Fraction(5, 8))),
            self.bump(table, (Fraction(1, 4), Fraction(7, 8))),
        ]
        form = ClosedForm((table.rational(2), table.rational(3)), Q, bumps=tuple(bumps))
        monkeypatch.setattr(leaves, "orbit", counting_orbit)
        result = trace_leaf(form, SEED, step=0.01, max_steps=500)
        assert result.steps > 100
        assert calls == [b.center for b in bumps]

    def test_four_field_evaluations_per_step(self, table, monkeypatch):
        # _try_close evaluates the field only once a closure target is within
        # capture, so the RK4 stages make nearly all of the calls
        calls = []

        def counting_bump_sums(bumps, x, y):
            calls.append((x, y))
            return _bump_sums(bumps, x, y)

        center = (Fraction(1, 4), Fraction(3, 8))
        form = ClosedForm(
            (table.rational(1), table.rational(2)), Q, bumps=(self.bump(table, center),)
        )
        monkeypatch.setattr(leaves, "_bump_sums", counting_bump_sums)
        result = trace_leaf(form, TorusPoint(Fraction(1, 100), 0), step=0.002, return_tol=1e-6)
        assert (result.verdict, result.steps) == ("Closed", 1117)
        assert len(calls) <= 4 * result.steps + 16

    POINTS = [
        (Fraction(5, 8), Fraction(5, 8)),  # a center
        (Fraction(5, 8) + Fraction(1, 40), Fraction(5, 8) - Fraction(1, 50)),
        (Fraction(3, 8) - Fraction(1, 30), Fraction(3, 8) + Fraction(1, 45)),  # orbit copy
        (Fraction(1, 4) + Fraction(1, 23), Fraction(7, 8)),
        (Fraction(1, 4), Fraction(15, 16) + Fraction(1, 100)),
        (Fraction(0), Fraction(1, 2)),  # outside every support
        (Fraction(1, 7), Fraction(2, 9)),
    ]

    @pytest.mark.parametrize("x, y", POINTS)
    def test_bump_sums_match_the_exact_potential(self, table, x, y):
        bumps = [
            self.bump(table, (Fraction(5, 8), Fraction(5, 8))),
            BumpTerm(TorusPoint(Fraction(1, 4), Fraction(7, 8)), Fraction(1, 10),
                     table.rational(Fraction(-3, 400))),
        ]
        form = ClosedForm((table.rational(2), table.rational(3)), Q, bumps=tuple(bumps))
        compiled = [
            (float(c.theta), float(c.phi), float(b.radius) ** 2, float(b.amplitude))
            for b in bumps
            for c in orbit(b.center, Q)
        ]
        potential, gx, gy = _bump_sums(compiled, float(x), float(y))
        assert abs(potential - float(bump_potential(form, TorusPoint(x, y)))) < 1e-12
        h = 1e-6
        dx = (_bump_sums(compiled, float(x) + h, float(y))[0]
              - _bump_sums(compiled, float(x) - h, float(y))[0]) / (2 * h)
        dy = (_bump_sums(compiled, float(x), float(y) + h)[0]
              - _bump_sums(compiled, float(x), float(y) - h)[0]) / (2 * h)
        assert abs(gx - dx) < 1e-6 and abs(gy - dy) < 1e-6
