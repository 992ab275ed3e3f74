import sys
from fractions import Fraction
from math import cos, gcd, sin, sqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from foliage import leaves
from foliage.cli import build_scenario, parse_scenario, run
from foliage.forms import BumpTerm, ClosedForm, FormError, bump_potential
from foliage.leaves import TraceResult, _bump_sums, classify_leaf, trace_leaf
from foliage.orbifold import (
    AffineMap,
    GroupAction,
    OrbifoldPresentation,
    TorusPoint,
    orbit,
    pillowcase_presentation,
    shifted_torus_presentation,
    torus_presentation,
)
from foliage.scalar import SymbolTable

from conftest import PI, SQRT2, SQRT3

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
                    grid_eps=0.05, coverage_threshold=0.99, drift_tol=1e-6,
                    collect_polyline=False):
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
    ncells = max(2, round(1.0 / grid_eps))
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

    @settings(max_examples=60, deadline=None)
    @given(case=bumped_leaves())
    def test_matches_the_all_rk4_tracer(self, case):
        form, seed, step = case
        args = dict(step=step, max_steps=3000, return_tol=1e-6, collect_polyline=True)
        fast, slow = trace_leaf(form, seed, **args), reference_trace(form, seed, **args)
        assert (fast.verdict, fast.steps, fast.reason) == (slow.verdict, slow.steps, slow.reason)
        for got, want in [(fast.period_length, slow.period_length),
                          (fast.return_error, slow.return_error), (fast.coverage, slow.coverage)]:
            assert (got is None and want is None) or got.hex() == want.hex()
        assert fast.polyline == slow.polyline

    def count(self, monkeypatch, name):
        calls = []
        original = getattr(leaves, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

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

    def assert_same_coverage(self, form, seed, **args):
        fast, slow = trace_leaf(form, seed, **args), reference_trace(form, seed, **args)
        assert (fast.verdict, fast.steps, fast.reason) == (slow.verdict, slow.steps, slow.reason)
        assert (fast.coverage is None and slow.coverage is None) or \
            fast.coverage.hex() == slow.coverage.hex()
        return fast

    @pytest.mark.parametrize("orbifold, a, b, step, steps", [
        (T, "one", "q", 0.02, 2048), (T, "p", "q", 0.02, 2048), (S, "q", "r", 0.05, 1024)])
    @pytest.mark.parametrize("seed", [SEED, GRID_LINE_SEED], ids=["seed", "grid-line-seed"])
    def test_dense_leaves_stop_at_the_same_checkpoint(self, orbifold, a, b, step, steps, seed):
        t = self.TABLE
        form = ClosedForm((t.symbol(a), t.symbol(b)), orbifold, basic_override=True)
        result = self.assert_same_coverage(form, seed, step=step)
        assert (result.verdict, result.steps, result.coverage) == ("DenseEvidence", steps, 1.0)

    @pytest.mark.parametrize("max_steps", [1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("seed", [SEED, GRID_LINE_SEED], ids=["seed", "grid-line-seed"])
    def test_an_exhausted_budget_counts_the_same_cells(self, max_steps, seed):
        form = ClosedForm((self.TABLE.symbol("p"), self.TABLE.symbol("q")), T)
        result = self.assert_same_coverage(form, seed, step=0.002, max_steps=max_steps)
        assert (result.verdict, result.reason, result.steps) == (
            "Inconclusive", "step budget exhausted", max_steps)
        assert 0 < result.coverage < 0.99

    def test_a_budget_ending_between_checkpoints_can_end_dense(self):
        form = ClosedForm((self.TABLE.rational(1), self.TABLE.symbol("q")), T)
        result = self.assert_same_coverage(form, SEED, step=0.02, max_steps=2047)
        assert (result.verdict, result.steps, result.coverage) == ("DenseEvidence", 2047, 1.0)

    @pytest.mark.parametrize("max_steps", [30, 150, 250])
    def test_a_leaf_along_a_grid_line_counts_the_same_cells(self, table, max_steps):
        # the horizontal circle through the seed runs on the line phi = 7/20
        # between two rows of cells; it closes after 200 steps
        form = ClosedForm((table.zero(), table.rational(1)), T)
        args = dict(step=0.005, max_steps=max_steps, return_tol=1e-6)
        result = self.assert_same_coverage(form, self.GRID_LINE_SEED, **args)
        assert result.verdict == ("Inconclusive" if max_steps < 200 else "Closed")
