import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import cos, gcd, sin, sqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from foliage import leaves
from foliage.cli import build_scenario, parse_scenario, run
from foliage.forms import BumpTerm, ClosedForm, FormError, bump_potential
from foliage.leaves import TraceResult, _bump_sums, classify_leaf, trace_leaf
from foliage.orbifold import (
    BUILTIN_ORBIFOLDS,
    AffineMap,
    GroupAction,
    OrbifoldPresentation,
    TorusPoint,
    orbit,
)
from foliage.scalar import SymbolTable

from conftest import PI, SQRT2, SQRT3, build_catalog_model

T = BUILTIN_ORBIFOLDS["torus"]
S = BUILTIN_ORBIFOLDS["shifted_torus"]
Q = BUILTIN_ORBIFOLDS["pillowcase"]
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


class TestUnresolvableSteps:
    """A step the float coordinates cannot resolve ends Inconclusive before
    the first step: a tiny one never moves the point, so the closure test
    would find the seed again, and a huge one runs the cover coordinates out
    of the float range."""

    SEEDS = [SEED, TorusPoint(Fraction(5, 7), Fraction(2, 9))]
    NAMES = ["torus-dense", "torus-rational", "pillowcase-dense"]

    @pytest.mark.parametrize("name", NAMES)
    def test_tiny_steps_never_close(self, name):
        form = build_catalog_model(name).form
        for exponent in range(17, 41):
            for seed in self.SEEDS:
                result = trace_leaf(form, seed, step=10.0**-exponent, max_steps=200)
                assert result.verdict == "Inconclusive", (exponent, seed)
                assert result.reason == "step outside the float resolution of the square"

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("step", [1e300, 1e307, 1e308])
    def test_huge_steps_are_inconclusive(self, name, step):
        form = build_catalog_model(name).form
        for seed in self.SEEDS:
            result = trace_leaf(form, seed, step=step, max_steps=200)
            assert result.verdict == "Inconclusive"
            assert result.reason == "step outside the float resolution of the square"

    def test_resolvable_steps_still_trace(self, table):
        form = rational_form(table, 2, 3)
        for step in (1e-15, 2.0):
            result = trace_leaf(form, SEED, step=step, max_steps=200)
            assert result.steps > 0 and "float resolution" not in result.reason


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
        # a form keeps its bump copies: the supports check at construction
        # and the trace read the same ones, so building the scenario and
        # tracing it find each bump's orbit once
        calls = []

        def counting_orbit(x, presentation):
            calls.append(x)
            return orbit(x, presentation)

        centers = [(Fraction(5, 8), Fraction(5, 8)), (Fraction(1, 4), Fraction(7, 8))]
        text = "\n".join([
            "[orbifold P]", "builtin = pillowcase", "",
            "[form w]", "on = P", "dtheta = 2", "dphi = 3", "basic_override = true",
            *(f"bump = center {x} {y} radius {self.BUMP_RADIUS} amplitude 1/200" for x, y in centers),
            "", "[tracer]", "seed = 1/8, 1/8", "step = 0.01", "max_steps = 500", "",
        ])
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "foliage"]:
            if getattr(module, "orbit", None) is orbit:
                monkeypatch.setattr(module, "orbit", counting_orbit)
        built = build_scenario(parse_scenario(text))
        report, artifacts, _ = run("trace", built)
        assert "trace verdict:" in report and artifacts["svg"]
        assert calls == [TorusPoint(*c) for c in centers]

    def test_four_field_evaluations_per_step(self, table, monkeypatch):
        # this leaf crosses its support: steps that cannot reach it add the
        # constant increment without a field call, steps that can run the
        # four RK4 stages, and _try_close evaluates the field only once a
        # closure target is within capture
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


def reference_trace(form, seed, step=0.01, max_steps=1_000_000, return_tol=1e-9,
                    coverage_threshold=0.99, drift_tol=1e-6, collect_polyline=False):
    """The tracer before it stepped straight off the bump supports: four
    field evaluations on every step and a closure test after each one."""
    a_num, b_num = float(form.linear[0]), float(form.linear[1])
    bumps = [
        (float(copy.theta), float(copy.phi), float(term.radius) ** 2, float(term.amplitude))
        for term in form.bumps
        for copy in orbit(term.center, form.orbifold)
    ]

    def field(x, y):
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

    def rk4(px, py, h):
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

    def level(px, py):
        value = a_num * px + b_num * py
        if bumps:
            value += _bump_sums(bumps, px % 1.0, py % 1.0)[0]
        return value

    sx, sy = float(seed.theta), float(seed.phi)
    v0 = field(sx, sy)
    if v0 is None:
        return TraceResult("Inconclusive", reason="field degenerate at seed", steps=0)
    targets = leaves._closure_targets(form, sx, sy, v0)
    ncells = 20
    visited = [[False] * ncells for _ in range(ncells)]
    visited[int(sx * ncells) % ncells][int(sy * ncells) % ncells] = True
    marked = 1
    total_cells = ncells * ncells
    polyline = [(sx % 1.0, sy % 1.0)] if collect_polyline else None
    stride = 1
    px, py = sx, sy
    level0 = level(px, py)
    arc = 0.0
    capture = 1.5 * step
    for n in range(1, max_steps + 1):
        nxt = rk4(px, py, step)
        if nxt is None:
            return TraceResult("Inconclusive", reason="field degenerate along trace", steps=n)
        px, py = nxt
        arc += step
        if collect_polyline and n % stride == 0:
            polyline.append((px % 1.0, py % 1.0))
            if len(polyline) > 200_000:
                del polyline[::2]
                stride *= 2
        cx, cy = int((px % 1.0) * ncells) % ncells, int((py % 1.0) * ncells) % ncells
        if not visited[cx][cy]:
            visited[cx][cy] = True
            marked += 1
        if arc > 3.0 * step:
            hit = leaves._try_close(field, rk4, px, py, targets, capture, return_tol)
            if hit is not None:
                err, extra = hit
                if abs(level(px, py) - level0) > drift_tol:
                    return TraceResult("Inconclusive", reason="level drift exceeds tolerance", steps=n)
                return TraceResult("Closed", return_error=err, period_length=arc + extra,
                                   steps=n, polyline=polyline)
        if n % 1024 == 0:
            if abs(level(px, py) - level0) > drift_tol:
                return TraceResult("Inconclusive", reason="level drift exceeds tolerance", steps=n)
            if marked / total_cells >= coverage_threshold:
                return TraceResult("DenseEvidence", coverage=marked / total_cells, steps=n,
                                   polyline=polyline)
    if marked / total_cells >= coverage_threshold:
        return TraceResult("DenseEvidence", coverage=marked / total_cells, steps=max_steps,
                           polyline=polyline)
    return TraceResult("Inconclusive", reason="step budget exhausted",
                       coverage=marked / total_cells, steps=max_steps, polyline=polyline)


R4 = OrbifoldPresentation(GroupAction([
    AffineMap.identity(),
    AffineMap.of(((0, -1), (1, 0)), (0, 0)),
    AffineMap.of(((-1, 0), (0, -1)), (0, 0)),
    AffineMap.of(((0, 1), (-1, 0)), (0, 0)),
]))
GRID = st.integers(0, 63).map(lambda i: Fraction(i, 64))


@st.composite
def bumped_leaves(draw):
    """A bumped form on one of four orbifolds, and a seed that lands inside,
    at the edge of or away from the first support, so that many leaves cross
    one; irrational slopes make the dense leaves."""
    table = SymbolTable([("p", PI), ("q", SQRT2)])
    orbifold = draw(st.sampled_from([T, S, Q, R4]))
    if draw(st.booleans()):
        linear = (table.symbol("p"), table.symbol("q"))
    else:
        m, n = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (2, -3), (4, 1)]))
        linear = (table.rational(m), table.rational(n))
    radius = Fraction(1, draw(st.sampled_from([16, 32, 64])))
    bumps = tuple(
        BumpTerm(TorusPoint(draw(GRID), draw(GRID)), radius,
                 table.rational(Fraction(draw(st.sampled_from([1, -1])),
                                         draw(st.sampled_from([200, 1000, 40000])))))
        for _ in range(draw(st.integers(1, 2)))
    )
    try:
        form = ClosedForm(linear, orbifold, bumps=bumps)
    except FormError:
        assume(False)
    offset = draw(st.floats(0.0, 3.0)) * float(radius)
    angle = draw(st.floats(0.0, 6.3))
    x = (float(bumps[0].center.theta) + offset * cos(angle)) % 1.0
    y = (float(bumps[0].center.phi) + offset * sin(angle)) % 1.0
    seed = TorusPoint(Fraction(x).limit_denominator(10**6), Fraction(y).limit_denominator(10**6))
    return form, seed, draw(st.sampled_from([0.002, 0.005, 0.01, 0.02]))


class TestStraightSteps:
    """Steps that cannot reach a support add one constant increment, and the
    closure test runs only near a target; neither may change a byte."""

    @staticmethod
    def assert_same_trace(form, seed, **args):
        fast, slow = trace_leaf(form, seed, **args), reference_trace(form, seed, **args)
        assert (fast.verdict, fast.steps, fast.reason) == (slow.verdict, slow.steps, slow.reason)
        for got, want in [(fast.period_length, slow.period_length),
                          (fast.return_error, slow.return_error), (fast.coverage, slow.coverage)]:
            assert (got is None and want is None) or got.hex() == want.hex()
        assert fast.polyline == slow.polyline
        return fast

    @settings(max_examples=60, deadline=None)
    @given(case=bumped_leaves())
    def test_matches_the_all_rk4_tracer(self, case):
        form, seed, step = case
        self.assert_same_trace(form, seed, step=step, max_steps=3000, return_tol=1e-6,
                               collect_polyline=True)

    # straight runs stop short of every 1024th step, of the step budget and of
    # the polyline cap; these leaves put those limits inside a run
    def plain_and_bumped(self, table):
        plain = rational_form(table, 2, 3)
        bump = BumpTerm(TorusPoint(Fraction(5, 8), Fraction(5, 8)), Fraction(1, 16),
                        table.rational(Fraction(1, 200)))
        return {"plain": plain, "bumped": plain.with_bumps([bump])}

    @pytest.mark.parametrize("drift_tol, verdict, steps", [
        (1e-6, "Closed", 1802), (0.0, "Inconclusive", 1024)])
    @pytest.mark.parametrize("kind", ["plain", "bumped"])
    def test_runs_straddle_the_checkpoints(self, table, kind, drift_tol, verdict, steps):
        # the leaf closes after 1802 steps, so a run meets step 1024, whose
        # drift check a zero tolerance fails
        form = self.plain_and_bumped(table)[kind]
        result = self.assert_same_trace(form, SEED, step=0.002, return_tol=1e-6,
                                        drift_tol=drift_tol, collect_polyline=True)
        assert (result.verdict, result.steps) == (verdict, steps)

    @pytest.mark.parametrize("collect_polyline", [True, False], ids=["polyline", "no-polyline"])
    @pytest.mark.parametrize("kind", ["plain", "bumped"])
    @pytest.mark.parametrize("max_steps", [1023, 1024, 1025])
    def test_runs_stop_at_the_step_budget(self, table, kind, max_steps, collect_polyline):
        form = self.plain_and_bumped(table)[kind]
        result = self.assert_same_trace(form, SEED, step=0.002, max_steps=max_steps,
                                        return_tol=1e-6, collect_polyline=collect_polyline)
        assert (result.verdict, result.reason, result.steps) == (
            "Inconclusive", "step budget exhausted", max_steps)
        assert (result.polyline is not None) == collect_polyline

    def test_runs_stop_at_the_polyline_cap(self, table):
        # a dense leaf that may not end dense: its polyline passes 200,000
        # points at step 200,000 and is thinned to 100,000, and the steps
        # after that keep every second point
        form = ClosedForm((table.rational(1), table.symbol("q")), T)
        result = self.assert_same_trace(form, SEED, step=0.02, max_steps=200_500,
                                        coverage_threshold=2.0, collect_polyline=True)
        assert result.steps == 200_500
        assert len(result.polyline) == 100_000 + 500 // 2

    def count(self, monkeypatch, name):
        calls = []
        original = getattr(leaves, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(leaves, name, counting)
        return calls

    def test_a_leaf_clear_of_its_support_rarely_evaluates_it(self, table, monkeypatch):
        bump_sums = self.count(monkeypatch, "_bump_sums")
        closures = self.count(monkeypatch, "_try_close")
        bump = BumpTerm(TorusPoint(Fraction(5, 8), Fraction(5, 8)), Fraction(1, 16),
                        table.rational(Fraction(1, 200)))
        form = rational_form(table, 2, 3).with_bumps([bump])
        result = trace_leaf(form, SEED, step=0.002, return_tol=1e-6)
        assert (result.verdict, result.steps) == ("Closed", 1802)
        assert len(bump_sums) <= result.steps / 10
        assert len(closures) <= result.steps / 10

    # a straight run lasts until its line comes within a step of a support or
    # a closure target, or reaches a checkpoint; each run makes three
    # accumulate calls (its two coordinates and its arc length)
    @pytest.mark.parametrize("kind", ["plain", "bumped"])
    def test_a_closed_leaf_clear_of_its_support_is_one_or_two_runs(self, table, monkeypatch,
                                                                  kind):
        runs = self.count(monkeypatch, "accumulate")
        closures = self.count(monkeypatch, "_try_close")
        result = trace_leaf(self.plain_and_bumped(table)[kind], SEED, step=0.005)
        assert (result.verdict, result.steps) == ("Closed", 720)
        assert len(runs) <= 3 * 2
        assert len(closures) <= 5

    def test_a_dense_leaf_is_one_run_per_checkpoint(self, table, monkeypatch):
        runs = self.count(monkeypatch, "accumulate")
        form = ClosedForm((table.symbol("p"), table.symbol("q")), T)
        result = trace_leaf(form, SEED, step=0.005)
        assert (result.verdict, result.steps) == ("DenseEvidence", 5120)
        assert len(runs) <= 3 * (result.steps // 1024 + 2)

    def test_a_dense_leaf_tests_closure_only_near_its_seed(self, table, monkeypatch):
        closures = self.count(monkeypatch, "_try_close")
        form = ClosedForm((table.rational(1), table.symbol("q")), T)
        result = trace_leaf(form, SEED, step=0.01)
        assert result.verdict == "DenseEvidence"
        assert len(closures) <= result.steps / 10

    # coverage is counted at the 1024-step checkpoints and at the end; the
    # reference marks its grid on every step, so these pin that both count
    # the same cells, bit for bit
    TABLE = SymbolTable([("p", PI), ("q", SQRT2), ("r", SQRT3)])
    GRID_LINE_SEED = TorusPoint(Fraction(3, 20), Fraction(7, 20))

    @pytest.mark.parametrize("orbifold, a, b, step, steps", [
        (T, "one", "q", 0.02, 2048), (T, "p", "q", 0.02, 2048), (S, "q", "r", 0.05, 1024)])
    @pytest.mark.parametrize("seed", [SEED, GRID_LINE_SEED], ids=["seed", "grid-line-seed"])
    def test_dense_leaves_stop_at_the_same_checkpoint(self, orbifold, a, b, step, steps, seed):
        t = self.TABLE
        form = ClosedForm((t.symbol(a), t.symbol(b)), orbifold, basic_override=True)
        result = self.assert_same_trace(form, seed, step=step)
        assert (result.verdict, result.steps, result.coverage) == ("DenseEvidence", steps, 1.0)

    @pytest.mark.parametrize("max_steps", [1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("seed", [SEED, GRID_LINE_SEED], ids=["seed", "grid-line-seed"])
    def test_an_exhausted_budget_counts_the_same_cells(self, max_steps, seed):
        form = ClosedForm((self.TABLE.symbol("p"), self.TABLE.symbol("q")), T)
        result = self.assert_same_trace(form, seed, step=0.002, max_steps=max_steps)
        assert (result.verdict, result.reason, result.steps) == (
            "Inconclusive", "step budget exhausted", max_steps)
        assert 0 < result.coverage < 0.99

    def test_a_budget_ending_between_checkpoints_can_end_dense(self):
        form = ClosedForm((self.TABLE.rational(1), self.TABLE.symbol("q")), T)
        result = self.assert_same_trace(form, SEED, step=0.02, max_steps=2047)
        assert (result.verdict, result.steps, result.coverage) == ("DenseEvidence", 2047, 1.0)

    @pytest.mark.parametrize("max_steps", [30, 150, 250])
    def test_a_leaf_along_a_grid_line_counts_the_same_cells(self, table, max_steps):
        # the horizontal circle through the seed runs on the line phi = 7/20
        # between two rows of cells; it closes after 200 steps
        form = ClosedForm((table.zero(), table.rational(1)), T)
        args = dict(step=0.005, max_steps=max_steps, return_tol=1e-6)
        result = self.assert_same_trace(form, self.GRID_LINE_SEED, **args)
        assert result.verdict == ("Inconclusive" if max_steps < 200 else "Closed")


@st.composite
def lines_and_discs(draw):
    """A point on the cover, a straight step of at most 0.1 in any direction,
    and discs anywhere on the square, near its corners too, so that the
    line meets their translates."""
    coordinate = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                           st.sampled_from([0.0, 1e-9, 0.01, 0.99, 1.0 - 1e-9]))
    point = (draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    angle = draw(st.floats(0.0, 6.3))
    step = draw(st.floats(1e-4, 0.1))
    # the increment trace_leaf compiles from a unit field
    c = (cos(angle), sin(angle))
    ix = step / 6.0 * (c[0] + 2 * c[0] + 2 * c[0] + c[0])
    iy = step / 6.0 * (c[1] + 2 * c[1] + 2 * c[1] + c[1])
    discs = draw(st.lists(st.tuples(coordinate, coordinate, st.floats(1e-3, 0.15)),
                          min_size=0, max_size=4))
    return point, (ix, iy), discs


def segment_distance(px, py, qx, qy, cx, cy):
    """Distance on the torus from (cx, cy) to the segment from (px, py) to
    (qx, qy), over the minimal image and its eight neighbours."""
    sx, sy = qx - px, qy - py
    best = float("inf")
    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            dx = (cx - px % 1.0 + 0.5) % 1.0 - 0.5 + ox
            dy = (cy - py % 1.0 + 0.5) % 1.0 - 0.5 + oy
            t = min(1.0, max(0.0, (dx * sx + dy * sy) / (sx * sx + sy * sy)))
            best = min(best, ((dx - t * sx) ** 2 + (dy - t * sy) ** 2) ** 0.5)
    return best


class TestLineClearance:
    @staticmethod
    def assert_clear(discs, px, py, ix, iy):
        k = leaves._line_clearance(discs, px, py, ix, iy)
        assert 0 <= k <= 1024
        # the points a straight run of k steps visits, with trace_leaf's additions
        xs = list(accumulate(repeat(ix, k), initial=px))
        ys = list(accumulate(repeat(iy, k), initial=py))
        for j in range(k):
            for cx, cy, keep_out in discs:
                assert segment_distance(xs[j], ys[j], xs[j + 1], ys[j + 1], cx, cy) >= keep_out
        return k

    @settings(max_examples=300, deadline=None)
    @given(case=lines_and_discs())
    def test_no_counted_step_comes_within_a_keep_out(self, case):
        (px, py), (ix, iy), discs = case
        self.assert_clear(discs, px, py, ix, iy)

    def test_the_count_allows_for_rounding_at_tiny_steps(self):
        # on [1, 2) each addition of 3.9 ulps moves the point 4, so 1024 steps
        # run 100 ulps, some 25 steps, past the line: a keep-out 1025.5 steps
        # ahead would be entered if the count trusted the line
        ulp = 2.0**-52
        ix = 3.9 * ulp
        edge = 1.25 + 1025.5 * ix
        keep_out = 0.01
        assert self.assert_clear([((edge + keep_out) % 1.0, 0.5, keep_out)], 1.25, 0.5, ix, 0.0) == 0

    def test_a_clear_line_runs_to_its_horizon(self):
        # the line phi = 0 passes midway between two rows of translates; the
        # horizon is 1024 steps, or 8 units of length for a longer step
        discs = [(0.5, 0.5, 0.1)]
        assert leaves._line_clearance(discs, 0.25, 0.0, 0.005, 0.0) == 1024
        assert leaves._line_clearance(discs, 0.25, 0.0, 0.05, 0.0) == 159

    @pytest.mark.parametrize("px, py, ix, iy", [
        (0.77, 0.0, 0.05, 0.0),  # the translate at theta = 3/2
        (0.23, 0.0, -0.05, 0.0),  # the translate at theta = -1/2
        (0.0, 0.77, 0.0, 0.05),  # along the other axis
        (5.77, -3.0, 0.05, 0.0),  # from far out on the cover
    ])
    def test_the_count_stops_a_step_short_of_the_first_translate(self, px, py, ix, iy):
        # the widened keep-out begins 0.58 ahead, 11.6 steps: the 12th step
        # would end within a step of the keep-out
        discs = [(0.5, 0.0, 0.1)] if iy == 0.0 else [(0.0, 0.5, 0.1)]
        assert leaves._line_clearance(discs, px, py, ix, iy) == 11

    def test_inside_a_widened_disc_the_count_is_zero(self):
        assert leaves._line_clearance([(0.5, 0.0, 0.1)], 0.36, 0.0, -0.05, 0.0) == 0
        assert leaves._line_clearance([(0.5, 0.0, 0.1)], 0.36, 0.0, 0.0, 0.05) == 0

    @pytest.mark.parametrize("step", [0.2, 0.4, 10.0])
    def test_a_disc_too_wide_for_one_translate_per_column_gives_zero(self, step):
        assert leaves._line_clearance([(0.5, 0.5, 0.2)], 0.0, 0.0, step, step) == 0
