import ast
import contextlib
import gc
import io
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import foliage
from foliage import cli, scalar
from foliage.catalog import SCENARIOS
from foliage.cli import (
    ScenarioError,
    build_report,
    build_scenario,
    main,
    parse_scenario,
    render_svg,
    run,
    run_examples,
    serialize_scenario,
)
from foliage.forms import ClosedForm
from foliage.graph import SPECIAL, ZERO, FoliationGraph
from foliage.orbifold import BUILTIN_ORBIFOLDS
from foliage.scalar import FoliageError, PrecisionExhausted, SymbolTable, q_rank
from foliage.surgery import FoliationModel, SurgerySpec, analyze, connected_sum, verdicts

from conftest import surgery_trees

EX1 = SCENARIOS["pillowcase-ex1"]

# a scenario that sets every key the format has
EVERY_KEY = """[symbols]
p = 3.14159
q = 3/2 independent

[orbifold T]
builtin = torus
basepoint = 1/16, 1/8

[orbifold H]
element = 1 0 0 1 ; 1/2 0
element = 1 0 0 1 ; 0 1/2
element = 1 0 0 1 ; 1/2 1/2

[form w0]
on = T
dtheta = 1*p + 1/2
dphi = 2*q
basic_override = true
bump = center 1/4 1/8 radius 1/32 amplitude 1/100*p
bump = center 3/4 5/8 radius 1/16 amplitude -1/200

[form w1]
on = H
dtheta = 1
dphi = 0

[surgery s1]
kind = A
left = w0
right = w1
left_region = w0.inf
right_region = w1.f0
left_window = 1/8 : 3/8
right_window = 1/8 : 3/8
tube = 3/16 : 5/16

[tracer]
seed = 1/3, -2/7
step = 0.01
max_steps = 5000

[output]
dot = leaf.dot
svg = leaf.svg
"""


class TestParsing:
    def test_builtin_ex1_structure(self):
        s = parse_scenario(EX1)
        assert [f.name for f in s.forms] == ["wL", "wR"]
        assert [o.builtin for o in s.orbifolds] == ["pillowcase", "pillowcase"]
        assert s.surgeries[0].kind == "A"
        assert s.surgeries[0].left == "wL"

    def test_empty_file_is_an_error(self):
        with pytest.raises(ScenarioError):
            parse_scenario("")

    def test_undeclared_symbol_is_an_error(self):
        bad = EX1.replace("dtheta = 1*p", "dtheta = 1*r")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "r" in str(err.value)

    def test_unknown_section_reports_the_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[nonsense]\nx = 1\n")
        assert "line 1" in str(err.value)

    def test_lines_need_key_value_shape(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[symbols]\nnot a key value line\n")

    def test_non_group_action_table_rejected(self):
        text = """[symbols]

[orbifold O]
element = 0 -1 1 0 ; 0 0

[form w]
on = O
dtheta = 1
dphi = 0
"""
        from foliage.orbifold import OrbifoldError

        with pytest.raises(OrbifoldError):
            build_scenario(parse_scenario(text))

    def test_round_trip_is_identity(self):
        texts = dict(sorted(SCENARIOS.items()))
        texts.update((f"tree {i}", text) for i, text in enumerate(surgery_trees()))
        texts["every key"] = EVERY_KEY
        for name, text in texts.items():
            s = parse_scenario(text)
            assert parse_scenario(serialize_scenario(s)) == s, name

    def test_every_key_is_written(self):
        keys = {key for _, _, _, row in cli.FORMAT.values() for key in row}
        assert len(keys) == 21
        written = serialize_scenario(parse_scenario(EVERY_KEY))
        assert {line.partition(" = ")[0] for line in written.splitlines()} >= keys

    def test_symbols_carry_the_values_their_literals_write(self, monkeypatch):
        reads = []
        real = scalar.read_symbol
        monkeypatch.setattr(scalar, "read_symbol", lambda *a: reads.append(a) or real(*a))
        s = parse_scenario(EVERY_KEY)
        assert [(name, value) for name, _, value in s.symbols] == [
            ("p", Fraction(314159, 100000)), ("q", Fraction(3, 2))]
        build_report(build_scenario(s), "periods")
        assert reads == [("p", "3.14159"), ("q", "3/2")]  # read once, while parsing

    @settings(max_examples=200, deadline=None)
    @given(literal=st.builds(
        "{}{}e{}".format, st.integers(-99, 999), st.sampled_from(["", ".5", ".07"]),
        st.integers(-999_999, 999_999),
    ).filter(lambda text: len(text) <= 12))
    @example(literal="1e4299")
    @example(literal="1e4300")
    @example(literal="0e9999999")
    def test_any_short_symbol_literal_is_read_in_bounded_time(self, literal):
        text = f"[symbols]\np = {literal}\n[orbifold T]\nbuiltin = torus\n" \
               "[form w]\non = T\ndtheta = 1\ndphi = 1*p\n"
        # CPU time of this process with the collector paused, so neither other
        # load on the machine nor a full collection of what earlier tests left
        # behind (over 0.1 s in a full test run) counts against the parse
        with collector_paused():
            start = time.process_time()
            try:
                value = parse_scenario(text).symbols[0][2]
            except ScenarioError as err:
                assert str(err).startswith("line 2: symbol 'p': ")
            else:
                assert value != 0
            elapsed = time.process_time() - start
        assert elapsed < 0.05


@contextlib.contextmanager
def collector_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_parses_as_fraction(text):
    """`_parse_rational` equals Fraction(text.strip()) wherever that succeeds
    within the literal bound, and raises the same `bad rational` error
    wherever it fails.  The bound: the mantissa's digits plus the exponent's
    size are at most 4,300, so Fraction never expands a longer integer."""
    try:
        mantissa, _, exponent = text.strip().lower().partition("e")
        if sum(c.isdigit() for c in mantissa) + abs(int(exponent or 0)) > 4300:
            raise ValueError("past the literal bound")
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ScenarioError) as err:
            cli._parse_rational(text, 7)
        assert str(err.value) == f"line 7: bad rational {text!r}"
        assert err.value.line == 7
    else:
        got = cli._parse_rational(text, 7)
        assert got == want and type(got) in (int, Fraction)


class TestRationalParity:
    @pytest.mark.parametrize("text", [
        "3/0", "0/0", "-0", "007", "+5", "1_0", "1e3", " 2 / 3", "\u0663",
        "  -7/14\t", "\n5\n", "-3/007", "12/-4", "1/2/3", "--5", "-", "/", "",
        "0.25", "-0/5", "3/00", "1/", "/2", "\u0663/4",
        # decimals: -?digits.digits is read with int, the rest by Fraction
        "0.5", "-0.5", "0.0", "-0.0", "00.250", "-007.1000", "1.10", "12.5 ", "\t-3.75",
        "1.", ".5", "-.5", "1.5e3", "-2.5E-2", "1.5.5", "1.5/2", "1/2.5", "+1.5", "1_0.5",
        "-.", ".", "1.-5", "\u0663.5", "3.\u0663",
    ])
    def test_named_texts(self, text):
        assert_parses_as_fraction(text)

    def test_digit_strings_beyond_the_int_limit(self):
        for text in ("1" * 5000, "1/" + "7" * 5000):
            assert_parses_as_fraction(text)

    def test_decimals_at_and_across_the_digit_bound(self):
        for digits in (4298, 4299, 4300, 4301, 5000):
            for whole in (1, digits // 2, digits - 1):
                body = "7" * whole + "." + "3" * (digits - whole)
                for text in (body, "-" + body, "0" * whole + "." + "0" * (digits - whole - 1) + "9"):
                    assert_parses_as_fraction(text)
                    assert_parses_as_fraction(text + "0")

    @given(text=st.text(alphabet="0123456789-+/_. e\t\u0663\u00b2", max_size=8))
    def test_any_short_text(self, text):
        assert_parses_as_fraction(text)


def split_expr(key, text, line, names):
    """Reference for `cli._expr`: every term split at '+', stripped and read
    alone, one spelling at a time; a name after '*' is one identifier."""
    coeffs = {}
    for raw in text.split("+"):
        term = raw.strip()
        if not term:
            raise ScenarioError(f"empty term in expression {text!r}", line)
        numeral = term.replace("-", "").replace("/", "").replace(".", "").isdigit()
        if "*" in term:
            coef_text, _, name = term.partition("*")
            name = name.strip()
            coef = cli._parse_rational(coef_text, line)
            if not name.isidentifier():
                raise ScenarioError(f"bad term {term!r}: terms are joined by '+'", line)
        elif term.isidentifier() or term in names and not numeral:
            name, coef = term, 1
        else:
            name, coef = "one", cli._parse_rational(term, line)
        if name != "one" and name not in names:
            raise ScenarioError(f"unresolved symbol {name!r}", line)
        if name in coeffs:
            coef = coeffs[name] + coef
            if max(abs(coef.numerator), coef.denominator) >= 10**scalar.LITERAL_DIGITS:
                raise ScenarioError(
                    f"coefficient of {name!r} expands past {scalar.LITERAL_DIGITS} digits", line)
        coeffs[name] = coef
    return tuple(sorted((n, c) for n, c in coeffs.items() if c))


EXPR_NAMES = {"p", "q", "x1"}


def read_expr(read, text):
    """What a reader makes of `text` on line 7: the expression with each
    coefficient's type, or the error's text and line.  Any other exception
    propagates."""
    try:
        expr = read("dtheta", text, 7, EXPR_NAMES)
    except ScenarioError as err:
        return "error", str(err), err.line
    return "expr", expr, [type(c) for _, c in expr]


def assert_reads_as_split(text):
    got = read_expr(cli._expr, text)
    assert got == read_expr(split_expr, text)
    return got


class TestExpressionReader:
    @pytest.mark.parametrize("text, want", [
        ("3/0*p", ("error", "line 7: bad rational '3/0'", 7)),
        ("-0*p", ("expr", (), [])),
        ("1*one", ("expr", (("one", 1),), [int])),
        ("one", ("expr", (("one", 1),), [int])),
        ("p + p", ("expr", (("p", 2),), [int])),
        ("1/2*p + -1/2*p", ("expr", (), [])),
        (" -6/4 * x1\t", ("expr", (("x1", Fraction(-3, 2)),), [Fraction])),
        ("4/2", ("expr", (("one", 2),), [Fraction])),
        ("2*r", ("error", "line 7: unresolved symbol 'r'", 7)),
        ("r", ("error", "line 7: unresolved symbol 'r'", 7)),
        ("1/0", ("error", "line 7: bad rational '1/0'", 7)),
        ("", ("error", "line 7: empty term in expression ''", 7)),
        ("1*p - 3/2", ("error", "line 7: bad term '1*p - 3/2': terms are joined by '+'", 7)),
        ("1*p*q", ("error", "line 7: bad term '1*p*q': terms are joined by '+'", 7)),
        ("1*p -3/2", ("error", "line 7: bad term '1*p -3/2': terms are joined by '+'", 7)),
    ])
    def test_named_texts(self, text, want):
        assert assert_reads_as_split(text) == want

    def test_terms_past_the_digit_bound_are_bad_rationals(self):
        for term in ("1" * 5000, "-" + "2" * 4301, "1/" + "3" * 5000):
            for text in (term, f"{term}*p", f" {term} * q ", f"1 + {term}"):
                kind, message, line = assert_reads_as_split(text)
                assert kind == "error" and line == 7
                assert message.startswith("line 7: bad rational ")

    @given(text=st.lists(st.sampled_from(
        list("0123456789-/.*+ ") + ["\t", "p", "q", "one", "x1", "_", "e"]), max_size=10,
    ).map("".join))
    def test_any_short_text(self, text):
        assert_reads_as_split(text)


class TestCommands:
    def test_examples_all_rows_match(self):
        text, code = run_examples()
        assert code == 0
        assert "4/4 rows match" in text
        for name, _ in __import__("foliage.catalog", fromlist=["EXAMPLES"]).EXAMPLES:
            assert name in text

    def test_periods_report(self):
        built = build_scenario(parse_scenario(SCENARIOS["torus-dense"]))
        report, artifacts, code = run("periods", built)
        assert code == 0
        assert "rank 2" in report

    def test_graph_command_emits_dot(self):
        built = build_scenario(parse_scenario(EX1))
        report, artifacts, code = run("graph", built)
        assert code == 0
        assert artifacts["dot"].startswith("digraph foliation {\n")
        assert artifacts["dot"].endswith("}\n")

    def test_trace_command_makes_an_svg(self):
        built = build_scenario(parse_scenario(SCENARIOS["torus-rational"]))
        report, artifacts, code = run("trace", built)
        assert code == 0
        assert "trace verdict: Closed" in report
        assert artifacts["svg"].startswith("<svg")

    def test_trace_rejects_surgered_models(self):
        built = build_scenario(parse_scenario(EX1))
        with pytest.raises(ScenarioError):
            run("trace", built)

    def test_surgery_report_records_override_and_criteria(self):
        built = build_scenario(parse_scenario(EX1))
        report, _, _ = run("surgery", built)
        assert "declared-basic override active" in report
        assert "criterion: transitivity" in report
        assert "== decomposition ==" in report


def reference_polylines(polyline, size=512):
    """Reference for the `<polyline>` elements of `render_svg`: split the
    points into runs point by point, then format each coordinate alone."""
    parts = []
    if polyline:
        runs = [[]]
        prev = None
        for x, y in polyline:
            if prev is not None and (abs(x - prev[0]) > 0.5 or abs(y - prev[1]) > 0.5):
                runs.append([])
            runs[-1].append((x, y))
            prev = (x, y)
        for run in runs:
            if len(run) < 2:
                continue
            points = " ".join([f"{x * size:.2f},{(1.0 - y) * size:.2f}" for x, y in run])
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="#1f6feb" stroke-width="1"/>'
            )
    return parts


unit_floats = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def torus_walks(draw):
    """Points of a walk on the unit square taken mod 1, so it wraps in one or
    both coordinates, with jumps that leave runs of a single point."""
    x, y = draw(unit_floats), draw(unit_floats)
    points = []
    for _ in range(draw(st.integers(0, 40))):
        points.append((x, y))
        if draw(st.integers(0, 5)) == 0:
            x, y = draw(unit_floats), draw(unit_floats)
        else:
            x = (x + draw(st.floats(-0.2, 0.2))) % 1.0
            y = (y + draw(st.floats(-0.2, 0.2))) % 1.0
    return points


class TestRenderSvg:
    @given(polyline=torus_walks())
    @example(polyline=[])
    @example(polyline=[(0.25, 0.75)])
    @example(polyline=[(0.95, 0.5), (0.05, 0.52), (0.1, 0.54)])  # wraps in theta
    @example(polyline=[(0.5, 0.02), (0.52, 0.97), (0.7, 0.1)])  # wraps in phi, one-point runs
    @example(polyline=[(0.98, 0.99), (0.01, 0.02), (0.03, 0.04)])  # wraps in both
    def test_polylines_match_the_point_by_point_reference(self, polyline):
        lines = render_svg(polyline, None).splitlines()
        assert lines[2:-1] == reference_polylines(polyline)

    def test_a_trace_without_a_polyline_draws_none(self):
        assert render_svg(None, None) == render_svg([], None)


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        for name in ("pillowcase-ex1", "pillowcase-ex2", "sum-b-compact"):
            s = SCENARIOS[name]
            r1, _, _ = run("surgery", build_scenario(parse_scenario(s)))
            r2, _, _ = run("surgery", build_scenario(parse_scenario(s)))
            assert r1 == r2

    def test_reports_are_byte_identical_across_threads(self):
        def reports(name):
            built = build_scenario(parse_scenario(SCENARIOS[name]))
            return [build_report(built, c) for c in ("surgery", "transitivity", "periods")]

        names = sorted(SCENARIOS)
        serial = [reports(n) for n in names]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside sign() too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(reports, names * 4))
        finally:
            sys.setswitchinterval(saved)
        assert threaded == serial * 4

    def test_dot_is_byte_identical(self):
        for name in ("pillowcase-ex3", "torus-rational"):
            s = SCENARIOS[name]
            d1 = build_scenario(parse_scenario(s)).final.graph.to_dot()
            d2 = build_scenario(parse_scenario(s)).final.graph.to_dot()
            assert d1 == d2


def _translations_scenario(order, dtheta, dphi):
    """A form on the torus quotient by the translations by k/order."""
    elements = "".join(f"element = 1 0 0 1 ; {k}/{order} 0\n" for k in range(1, order))
    orbifold = elements if order > 1 else "builtin = torus\n"
    return (f"[symbols]\np = 3.14159265358979323846264338327950288420\n\n[orbifold O]\n"
            f"{orbifold}\n[form w]\non = O\ndtheta = {dtheta}\ndphi = {dphi}\n"
            "basic_override = true\n")


# coefficients whose numerator or denominator has about 4,300 digits, written
# as exponents or as quotients, and small ones
near_bound_coefficients = st.one_of(
    st.builds(lambda m, sign, e, name: f"{m}e{sign}{e}*{name}", st.integers(1, 99),
              st.sampled_from(["", "-"]), st.integers(4290, 4300), st.sampled_from(["p", "one"])),
    st.builds(lambda n, lead, k, name: f"{n}/{lead}{'0' * k}*{name}", st.integers(1, 99),
              st.integers(1, 9), st.integers(4290, 4299), st.sampled_from(["p", "one"])),
    st.sampled_from(["1", "1*p", "0", "1/3*p"]),
)


class TestEntryPoint:
    def test_examples_exit_zero(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "4/4 rows match" in out

    def test_examples_with_a_scenario_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["examples", "pillowcase-ex2"])
        assert exited.value.code == 2
        assert "examples takes no scenario" in capsys.readouterr().err

    def test_scenario_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("this is not a scenario\n")
        assert main(["periods", str(bad)]) == 2

    def test_bad_rational_exit_two_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad_rational.scn"
        path.write_text(
            "[symbols]\n"
            "q = 1.41421356237309504880168872420969807857\n\n"
            "[orbifold T]\nbuiltin = torus\n\n"
            "[form w]\non = T\ndtheta = 1*q\ndphi = 3/0*q\n"
        )
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 10: bad rational '3/0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("symbol, dphi, code", [
        ("1e9999999", "1*p", 2), ("1e-9999999", "1*p", 2), ("3/2", "1e4300*p", 2),
        ("3/2", "1e9999999*p", 2), ("3/2", "1e4299*p", 0), ("1e4299", "1*p", 0),
    ])
    def test_literals_are_bounded_by_their_digits(self, tmp_path, capsys, symbol, dphi, code):
        # |exponent| plus the mantissa's digits may be 4,300: the longest
        # integer a literal expands into still prints
        path = tmp_path / "long.scn"
        path.write_text(
            f"[symbols]\np = {symbol}\n\n[orbifold T]\nbuiltin = torus\n\n"
            f"[form w]\non = T\ndtheta = 1\ndphi = {dphi}\n"
        )
        start = time.perf_counter()
        assert main(["periods", str(path)]) == code
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 2:
            assert "4300 digits" in err if dphi == "1*p" else "line 10: bad rational" in err
        else:
            assert "w: a = 1, b = " in out and "; rank 2" in out

    @pytest.mark.parametrize("dphi, code", [
        ("9e4299*p + 9e4299*p", 2), ("1e-4299*p + 1/11*p", 2), ("-9e4299*p + 1 + -9e4299*p", 2),
        ("4e4299*p + 5e4299*p", None), ("1e-4299*p + 1/7*p", None),
    ])
    @pytest.mark.parametrize("command", ["periods", "surgery", "trace"])
    def test_summed_coefficients_are_bounded_by_their_digits(self, tmp_path, capsys, command,
                                                             dphi, code):
        # every literal is accepted, and the refused sums need 4,301 digits
        # in their numerator or their denominator, which no report may write
        path = tmp_path / "sum.scn"
        path.write_text(
            "[symbols]\np = 3/2\n\n[orbifold T]\nbuiltin = torus\n\n"
            f"[form w]\non = T\ndtheta = 1\ndphi = {dphi}\n"
        )
        got = main([command, str(path)])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 2:
            assert got == 2
            assert "line 10: coefficient of 'p' expands past 4300 digits" in err
        else:
            # a trace may end Inconclusive (exit 3): 9e4299 overflows a float
            assert got in (0, 3) and "== periods ==" in out

    @pytest.mark.parametrize("written, plain", [("1e3", "1000"), ("-2.5e-1", "-1/4")])
    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "examples"])
    def test_a_bare_constant_in_exponent_form_reads_as_its_rational(
            self, tmp_path, capsys, command, written, plain):
        path = tmp_path / "bare.scn"
        outputs = []
        for dtheta in (written, plain):
            path.write_text(
                "[symbols]\np = 3/2\n\n[orbifold T]\nbuiltin = torus\n\n"
                f"[form w]\non = T\ndtheta = {dtheta}\ndphi = 1*p\n"
            )
            outputs.append((main([command, str(path)]), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 3) and "Traceback" not in outputs[0][1].err

    @pytest.mark.parametrize("dtheta, message", [
        ("1e4300", "line 8: bad rational '1e4300'"),
        ("xyz", "line 8: unresolved symbol 'xyz'"),
        ("1e4299", None),
    ])
    def test_a_bare_term_that_names_no_symbol_is_a_rational_or_unresolved(
            self, tmp_path, capsys, dtheta, message):
        path = tmp_path / "bare.scn"
        path.write_text(
            "[symbols]\n\n[orbifold T]\nbuiltin = torus\n\n"
            f"[form w]\non = T\ndtheta = {dtheta}\ndphi = 0\n"
        )
        code = main(["periods", str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if message is None:
            assert code == 0, err
        else:
            assert code == 2 and message in err

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "examples"])
    def test_a_period_past_the_digit_bound_exit_two(self, tmp_path, capsys, command):
        # the translations by k/11 put 11 * 10^4299 under the period of
        # dtheta = 1e-4299*p: 4,301 digits, though every literal has 4,300
        path = tmp_path / "period.scn"
        path.write_text(_translations_scenario(11, "1e-4299*p", "1"))
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "scenario error: w: the period of loop k1 expands past 4300 digits\n"

    def test_equal_forms_past_the_digit_bound_exit_two_naming_the_first(self, tmp_path,
                                                                        capsys):
        # v equals w, which it follows: the one form is checked once, under w
        text = _translations_scenario(11, "1e-4299*p", "1")
        text += "\n[form v]\non = O\ndtheta = 1e-4299*p\ndphi = 1\nbasic_override = true\n"
        path = tmp_path / "period.scn"
        path.write_text(text)
        assert main(["periods", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "scenario error: w: the period of loop k1 expands past 4300 digits\n"

    def test_a_circumference_past_the_digit_bound_exit_two(self, tmp_path, capsys):
        # the periods p/(6*10^4299) and p/(4*10^4299) print, but the leaf
        # circle they close up is p/(12*10^4299): 4,301 digits
        zeros = "0" * 4299
        path = tmp_path / "circle.scn"
        path.write_text(_translations_scenario(1, f"1/6{zeros}*p", f"1/4{zeros}*p"))
        assert main(["graph", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "scenario error: w: the leaf circle's circumference expands past 4300 digits\n"

    @pytest.mark.parametrize("dot", [False, True])
    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "examples"])
    def test_a_computed_weight_past_the_digit_bound_exit_two(self, tmp_path, capsys, command, dot):
        # every literal has 4,300 digits, but genericize shifts a level of
        # this kind-C join by j/7 and a companion weight gets 4,301
        zeros = "0" * 4299
        forms = "".join(f"[form w{i}]\non = T\ndtheta = 1\ndphi = 0\n" for i in (0, 1))
        path = tmp_path / "weight.scn"
        path.write_text(
            f"[orbifold T]\nbuiltin = torus\n{forms}[surgery s1]\nkind = C\n"
            "left = w0\nright = w1\nleft_region = w0.f0\nright_region = w1.f0\n"
            f"left_window = 1/7{zeros} : 1/3\nright_window = 1/7{zeros} : 1/3\n"
            f"tube = 1/6{zeros} : 1/6{zeros}\n")
        argv = [command, str(path)] + (["--dot", str(tmp_path / "g.dot")] if dot else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == "scenario error: a computed value expands past 4300 digits\n"
        assert not (tmp_path / "g.dot").exists()

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "examples"])
    def test_no_admissible_level_shift_exit_two(self, tmp_path, capsys, command):
        # genericize shifts the second zero of this kind-C join by 1/(7*2^k),
        # k < 20, each a whole number of laps of the circumference
        # 1/7340032 = 1/(7*2^20), so no shift set separates the two levels
        forms = "".join(f"[form {w}]\non = T\ndtheta = 1/7340032\ndphi = 0\n" for w in "uv")
        path = tmp_path / "inseparable.scn"
        path.write_text(
            f"[orbifold T]\nbuiltin = torus\n{forms}[surgery s]\nkind = C\nleft = u\n"
            "right = v\nleft_window = 1/58720256 : 3/58720256\n"
            "right_window = 1/58720256 : 3/58720256\ntube = 1/29360128 : 1/29360128\n")
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and "(None)" not in err
        assert err == ("scenario error: no admissible genericity amplitudes after 20 attempts "
                       "(every shift set put two singular levels in one lattice class)\n")

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(order=st.integers(1, 12), dtheta=near_bound_coefficients, dphi=near_bound_coefficients)
    @example(order=11, dtheta="1e-4299*p", dphi="1")
    @example(order=11, dtheta="1e-4299*one", dphi="0")
    @example(order=2, dtheta="1e4300*one", dphi="1*p")
    @example(order=1, dtheta=f"1/6{'0' * 4299}*p", dphi=f"1/4{'0' * 4299}*p")
    def test_forms_near_the_digit_bound_never_end_in_a_traceback(
            self, tmp_path, capsys, order, dtheta, dphi):
        # coefficients of about 4,300 digits, over translation groups whose
        # offsets multiply the periods' denominators by their order
        path = tmp_path / "near.scn"
        path.write_text(_translations_scenario(order, dtheta, dphi))
        for command in ("periods", "classify", "graph", "transitivity", "surgery"):
            code = main([command, str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 2), (command, err)
            if code == 2:
                # a literal past the bound, a period or circumference computed
                # from bounded ones, or a form with no foliation
                assert any(word in err for word in ("bad rational", "4300 digits", "zero form")), err
        assert main(["trace", str(path), "--steps", "50"]) in (0, 2, 3)
        capsys.readouterr()

    @pytest.mark.parametrize("literal, message", [
        ("abc", "value 'abc' is not a decimal literal of at most 4300 digits"),
        ("1e9999999", "4300 digits"),
        ("0.0", "numeric value must be nonzero"),
        ("-0/7", "numeric value must be nonzero"),
    ])
    def test_bad_symbol_literal_exit_two_with_its_line(self, literal, message, tmp_path, capsys):
        path = tmp_path / "bad_symbol.scn"
        path.write_text(
            f"[symbols]\nq = 3/2\np = {literal}\n\n[orbifold T]\nbuiltin = torus\n\n"
            "[form w]\non = T\ndtheta = 1*q\ndphi = 1*p\n"
        )
        start = time.perf_counter()
        assert main(["periods", str(path)]) == 2
        assert time.perf_counter() - start < 0.1
        err = capsys.readouterr().err
        assert err.startswith("scenario error: line 3: symbol 'p': ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["2", "p q", "r+s"])
    def test_a_symbol_name_that_is_no_identifier_exits_two(self, name, tmp_path, capsys):
        # no expression could name it, and '2' would read as the constant 2
        path = tmp_path / "bad_name.scn"
        path.write_text(
            f"[symbols]\n{name} = 1.41421356237309504880168872420969807857\n\n"
            "[orbifold T]\nbuiltin = torus\n\n[form w]\non = T\ndtheta = 2\ndphi = 1\n"
        )
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"scenario error: line 2: symbol name {name!r} is not an identifier\n"

    def test_bare_dependent_flag_exit_two(self, tmp_path, capsys):
        # the flag names no relation, so honouring it is impossible and
        # ignoring it would treat r as a new constant: rank 2, not compact
        path = tmp_path / "dependent.scn"
        path.write_text(
            "[symbols]\n"
            "q = 1.41421356237309504880168872420969807857\n"
            "r = 2.82842712474619009760337744841939615714 dependent\n\n"
            "[orbifold T]\nbuiltin = torus\n\n"
            "[form w]\non = T\ndtheta = 1*q\ndphi = 1*r\n"
        )
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3: a dependent symbol needs its relation" in err
        assert "Traceback" not in err

    def test_readme_scenario_example_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario files", 1)[1]
        example = section.split("```\n", 2)[1]
        path = tmp_path / "readme.scn"
        path.write_text(example)
        monkeypatch.chdir(tmp_path)  # its [output] section writes graph.dot here
        for command in ("periods", "surgery"):
            assert main([command, str(path)]) == 0, capsys.readouterr().err
        assert (tmp_path / "graph.dot").exists()

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace: dict = {}
        results = []
        for statement in ast.parse(block).body:
            if isinstance(statement, ast.Expr):
                expression = ast.Expression(statement.value)
                results.append(eval(compile(expression, "README", "eval"), namespace))
            else:
                exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
        # the values the block's comments state, in order
        assert results == [2, "NoncompactRegular", True, "IntrinsicallyHarmonic", None]

    def test_trace_on_surgered_model_exit_two(self, capsys):
        assert main(["trace", "pillowcase-ex2"]) == 2
        assert "trace works on unsurgered forms only" in capsys.readouterr().err

    def test_wrapping_an_already_surgered_side_exit_two(self, tmp_path, capsys):
        # s1 puts zero s1.x on side w1; s2 then wraps disks (tube band 23/8,
        # over twice the unit circumference) around that side
        tori = "".join(
            f"[orbifold T{i}]\nbuiltin = torus\n\n"
            f"[form w{i}]\non = T{i}\ndtheta = 1\ndphi = 0\n\n"
            for i in (1, 2, 3)
        )
        path = tmp_path / "wrap.scn"
        path.write_text(
            "[symbols]\n\n" + tori
            + "[surgery s1]\nkind = C\nleft = w1\nright = w2\n"
            "left_window = 1/8 : 3/8\nright_window = 1/8 : 3/8\ntube = 1/4 : 1/4\n\n"
            "[surgery s2]\nkind = A\nleft = s1\nright = w3\nleft_region = w1.f0:1\n"
            "left_window = -1/8 : 3\nright_window = -1/8 : 3\ntube = 0 : 23/8\n"
        )
        assert main(["surgery", str(path)]) == 2
        assert "wrapping disks on already-surgered sides" in capsys.readouterr().err

    def test_unused_orbifold_with_a_singular_basepoint_exit_two(self, tmp_path, capsys):
        # x -> -x + (1/4, 1/4) fixes the default basepoint (1/8, 1/8); the
        # orbifold is checked when it is built, whether or not a form uses it
        path = tmp_path / "isotropic.scn"
        path.write_text(
            "[symbols]\n\n[orbifold T]\nbuiltin = torus\n\n"
            "[orbifold X]\nelement = -1 0 0 -1 ; 1/4 1/4\n\n"
            "[form w]\non = T\ndtheta = 1\ndphi = 2\n"
        )
        assert main(["periods", str(path)]) == 2
        assert "basepoint must have trivial isotropy" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", "1/8", "1/0,1", "1e9999999,0"])
    def test_malformed_seed_exit_two(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "torus-dense", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        ["step = abc", "step = nan", "step = inf", "step = -0.01", "max_steps = 1e3"],
    )
    def test_malformed_tracer_value_exit_two(self, line, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(SCENARIOS["torus-dense"] + f"\n[tracer]\n{line}\n")
        assert main(["trace", str(path), "--steps", "100"]) == 2
        err = capsys.readouterr().err
        assert f"{line.split()[0]}: " in err and "line " in err
        assert "Traceback" not in err

    def test_a_field_that_vanishes_along_the_trace_exits_three(self, tmp_path, capsys):
        # a valid form whose bump slope cancels its tiny linear part inside
        # the support: the trace steps through the support by RK4 until the
        # field falls below the degeneracy threshold
        path = tmp_path / "degenerate.scn"
        path.write_text(
            "[symbols]\n\n[orbifold T]\nbuiltin = torus\n\n"
            "[form w]\non = T\ndtheta = 3/200000000\ndphi = 0\n"
            "bump = center 1/2 1/2 radius 1/8 amplitude 9/10000000000\n\n"
            "[tracer]\nseed = 91/160, 1/5\nstep = 0.005\n"
        )
        assert main(["trace", str(path)]) == 3
        out, err = capsys.readouterr()
        assert "trace verdict: Inconclusive\nreason: field degenerate along trace\n" in out
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value", [("--step", "nan"), ("--step", "inf"), ("--step", "-1"), ("--steps", "-5")]
    )
    def test_malformed_tracer_flag_exit_two(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "torus-dense", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    def test_non_boolean_override_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        ex2 = SCENARIOS["pillowcase-ex2"]
        path.write_text(ex2.replace("basic_override = true", "basic_override = yes"))
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "basic_override must be true or false" in err and "line " in err
        assert "Traceback" not in err
        upper = ex2.replace("basic_override = true", "basic_override = TRUE")
        assert all(f.basic_override for f in parse_scenario(upper).forms)

    TORUS = SCENARIOS["torus-rational"]

    UNKNOWN_KEYS = [
        ("[form w]", "bumb = center 1/4 1/4 radius 1/16 amplitude 1/100"),
        ("[form w]", "basic_overide = true"),
        ("[tracer]", "sead = 1/3, 1/5"),
        ("[orbifold T]", "bultin = torus"),
        ("[output]", "svgg = leaf.svg"),
        ("[surgery ex1]", "tubes = 1/3 : 1/3"),
    ]

    @pytest.mark.parametrize(
        "header, line", UNKNOWN_KEYS, ids=[line.split()[0] for _, line in UNKNOWN_KEYS]
    )
    def test_unknown_key_exit_two(self, header, line, tmp_path, capsys):
        text = EX1 if header.startswith("[surgery") else self.TORUS + "\n[tracer]\n\n[output]\n"
        assert header in text
        text = text.replace(header + "\n", f"{header}\n{line}\n", 1)
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        lineno = text.splitlines().index(line) + 1
        assert f"line {lineno}: unknown key {line.split()[0]!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section", ["[tracer]\nstep = 0.01", "[output]\ndot = g.dot"], ids=["tracer", "output"]
    )
    def test_repeated_section_exit_two(self, section, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(self.TORUS + f"\n{section}\n\n{section}\n")
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repeated section" in err and "line " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", [
        "[symbols extra]\nr = 3/2", "[tracer fast]\nstep = 0.01", "[output pics]\ndot = g.dot",
    ], ids=["symbols", "tracer", "output"])
    def test_name_on_an_unnamed_section_exit_two(self, section, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        text = self.TORUS + f"\n{section}\n"
        path.write_text(text)
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        lineno = text.splitlines().index(section.splitlines()[0]) + 1
        kind = section[1:].split()[0]
        assert f"line {lineno}: section {kind!r} takes no name" in err
        assert "Traceback" not in err

    def test_graph_error_in_a_report_exit_two(self, monkeypatch, capsys):
        from foliage.graph import GraphError

        def broken(model):
            raise GraphError("circuit edges missing from graph")

        monkeypatch.setattr(cli, "factorization_witness", broken)
        assert main(["classify", "torus-rational"]) == 2
        err = capsys.readouterr().err
        assert "circuit edges missing" in err
        assert "Traceback" not in err

    def test_missing_file_exit_two(self):
        assert main(["periods", "/nonexistent/path.scn"]) == 2

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "binary.scn"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and "not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, name):
        # some editors start a UTF-8 file with the mark EF BB BF
        text = SCENARIOS[name].encode("utf-8")
        plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        for command in ("periods", "surgery"):
            got = []
            for path in (plain, marked):
                code = main([command, str(path)])
                got.append((code, capsys.readouterr().out))
            assert got[1] == got[0]

    def test_a_bad_byte_after_a_byte_order_mark_is_placed_in_the_file(self, tmp_path, capsys):
        path = tmp_path / "marked.scn"
        path.write_bytes(b"\xef\xbb\xbf[symbols]\n\x80\n")
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8 text (byte 13: " in err
        assert "Traceback" not in err

    def test_dominating_bump_exit_two_names_the_centre_as_written(self, tmp_path, capsys):
        path = tmp_path / "dominating.scn"
        path.write_text(
            "[symbols]\n\n[orbifold T]\nbuiltin = torus\n\n"
            "[form w]\non = T\ndtheta = 1\ndphi = 0\n"
            "bump = center 0 3/8 radius 1/8 amplitude 100\n"
        )
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: bump at center 0 3/8 dominates the linear part")
        assert "Fraction(" not in err and "Traceback" not in err

    def test_dot_file_written(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert main(["graph", "pillowcase-ex1", "--dot", str(out)]) == 0
        assert out.read_text().startswith("digraph foliation {")

    def test_unwritable_output_path_exit_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "g.dot"
        assert main(["graph", "pillowcase-ex1", "--dot", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and str(path) in err
        assert "Traceback" not in err

    def test_subprocess_console_script(self, tmp_path):
        # the child finds the package under test, installed or not
        src = str(Path(foliage.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "foliage.cli", "examples"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "4/4 rows match" in result.stdout

    def test_scenario_file_from_disk(self, tmp_path, capsys):
        path = tmp_path / "ex.scn"
        path.write_text(SCENARIOS["torus-rational"])
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "CompactRegular" in out

    def test_inconclusive_trace_exits_three(self, capsys):
        # a dense leaf cannot settle within a 2000-step budget
        assert main(["trace", "torus-dense", "--steps", "2000"]) == 3
        out = capsys.readouterr().out
        assert "Inconclusive" in out

    @pytest.mark.parametrize("name", ["torus-dense", "torus-rational", "pillowcase-dense"])
    @pytest.mark.parametrize("step", ["1e-17", "1e-30", "1e300", "1e307", "1e308"])
    def test_unresolvable_step_exits_three_with_a_reason(self, name, step, tmp_path, capsys):
        # a tiny step never moves the point off its seed, and a huge one runs
        # the cover out of the float range; as a flag and as [tracer] step
        path = tmp_path / "step.scn"
        path.write_text(SCENARIOS[name] + f"\n[tracer]\nstep = {step}\nmax_steps = 200\n")
        for argv in (["trace", name, "--step", step, "--steps", "200"], ["trace", str(path)]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert "trace verdict: Inconclusive\n" in captured.out
            assert "reason: step outside the float resolution of the square" in captured.out
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, code", [("periods", 0), ("transitivity", 0), ("trace", 3)])
    def test_overflowing_symbol_never_tracebacks(self, command, code, tmp_path, capsys):
        # p = 1e400 is exact everywhere but the tracer, where it has no float
        path = tmp_path / "huge.scn"
        path.write_text(SCENARIOS["torus-dense"].replace(
            "p = 3.14159265358979323846264338327950288420", "p = 1e400"))
        assert main([command, str(path)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if command == "trace":
            assert "reason: form overflows the float range" in captured.out


# -- refusals: each ends with its exit code, message and line

def _elements(*lines):
    """A one-form scenario on an orbifold declared by its element lines."""
    return ("[symbols]\n\n[orbifold H]\n" + "\n".join(lines)
            + "\n\n[form w]\non = H\ndtheta = 1\ndphi = 0\n")


def _models(*names, tables=None):
    """Zero-free models of dtheta on the pillowcase, one per name, on one
    table unless each is given its own."""
    tables = tables or [SymbolTable()] * len(names)
    return [analyze(ClosedForm((t.rational(1), t.zero()), BUILTIN_ORBIFOLDS["pillowcase"],
                               basic_override=True), name) for t, name in zip(tables, names)]


def _join(left, right):
    t = left.table
    window = (t.rational(Fraction(1, 8)), t.rational(Fraction(3, 8)))
    tube = (t.rational(Fraction(3, 16)), t.rational(Fraction(5, 16)))
    return connected_sum(SurgerySpec("A", left, right, window, window, tube, name="s"))


def _join_colliding():
    """The join s of models a and b, joined to another model named b."""
    a, b, again = _models("a", "b", "b")
    return _join(_join(a, b), again)


def _graph_refusal(start, end):
    """An attachment from a new vertex of kind start to one of kind end."""
    graph = FoliationGraph()
    return graph.attach(graph.add_vertex(start), graph.add_vertex(end))


TORUS = SCENARIOS["torus-rational"]
EX2 = SCENARIOS["pillowcase-ex2"]
SECOND_JOIN = EX1 + """
[orbifold Q3]
builtin = pillowcase

[form w3]
on = Q3
dtheta = 1*p
dphi = 1*q
basic_override = true

[surgery s2]
kind = A
left = ex1
right = w3
left_window = 1/8 : 3/8
right_window = 1/8 : 3/8
tube = 3/16 : 5/16
"""
DEPENDENT = """[symbols]
p = 1.5 independent

[orbifold T]
builtin = torus

[form w]
on = T
dtheta = 1*p + -3/2
dphi = 0
"""

# every refusal no other test reaches: (id, scenario text or library call,
# exit code, message, the offending line where the parser names one)
REFUSALS = [
    ("bad section header", TORUS.replace("[form w]", "[form w extra]"), 2,
     "bad section header '[form w extra]'", "[form w extra]"),
    ("section without its name", TORUS.replace("[form w]", "[form]"), 2,
     "section 'form' needs a name", "[form]"),
    ("duplicate symbol", TORUS.replace("[symbols]", "[symbols]\np = 1.5\np = 2.5"), 2,
     "duplicate symbol 'p'", "p = 2.5"),
    ("window", EX1.replace("left_window = 1/8 : 3/8", "left_window = 1/8 3/8"), 2,
     "expected '<lo> : <hi>', got '1/8 3/8'", "left_window = 1/8 3/8"),
    ("basepoint", TORUS.replace("torus", "torus\nbasepoint = 1/16 1/8"), 2,
     "basepoint needs 'theta, phi'", "basepoint = 1/16 1/8"),
    ("element syntax", _elements("element = 1 0 0 1 ; 1/2"), 2,
     "element needs 'a b c d ; e f'", "element = 1 0 0 1 ; 1/2"),
    ("matrix entries", _elements("element = 1 0 0 1.5 ; 0 0"), 2,
     "matrix entries must be integers", "element = 1 0 0 1.5 ; 0 0"),
    ("bump syntax", TORUS + "bump = center 1/4 radius 1/8 amplitude 1/100\n", 2,
     "bump needs 'center <th> <ph> radius <r> amplitude <expr>'",
     "bump = center 1/4 radius 1/8 amplitude 1/100"),
    ("names not unique", TORUS.replace("[form w]", "[form T]"), 2,
     "orbifold/form/surgery names must be unique", None),
    ("no form", "[symbols]\n\n[orbifold T]\nbuiltin = torus\n", 2,
     "scenario declares no form", None),
    ("several forms", TORUS + "\n[form v]\non = T\ndtheta = 1\ndphi = 0\n", 2,
     "several forms and no surgery; the final model is ambiguous", None),
    ("auto region", SECOND_JOIN, 2,
     "surgery 's2': left: region 'auto' needs a single-family model; name the region", None),
    ("region not found", EX1.replace("kind = A", "kind = A\nleft_region = nope"), 2,
     "surgery 'ex1': left: region 'nope' not found", None),
    ("surgery kind", EX1.replace("kind = A", "kind = D"), 2,
     "unknown surgery kind 'D'", "kind = D"),
    ("builtin orbifold", TORUS.replace("builtin = torus", "builtin = klein"), 2,
     "unknown builtin orbifold 'klein'", "builtin = klein"),
    ("kind C level", EX2.replace("tube = 1/4 : 1/4", "tube = 3/8 : 3/8"), 2,
     "surgery 'ex2': kind C level must lie strictly inside the window overlap", None),
    ("duplicate elements", _elements(*["element = -1 0 0 -1 ; 0 0"] * 2), 2,
     "duplicate group elements", None),
    ("not invertible", _elements("element = 2 0 0 1 ; 0 0"), 2,
     "group matrices must be invertible over Z", None),
    ("not closed", _elements("element = -1 0 0 -1 ; 0 0", "element = 1 0 0 1 ; 1/2 0"), 2,
     "element set is not closed under composition", None),
    ("dependent literals", DEPENDENT, 3,
     "sign of -3/2 + 1*p undecided: it embeds to exactly 0; "
     "the symbol table's numeric embedding is ill-conditioned", None),
    ("join across tables", lambda: _join(*_models("a", "b", tables=[SymbolTable(),
                                                                     SymbolTable()])), 2,
     "surgery 's': surgery inputs must share one symbol table", None),
    ("join of equal names", lambda: _join(*_models("a", "a")), 2,
     "surgery 's': surgery inputs need distinct model names", None),
    ("join of colliding sides", _join_colliding, 2,
     "surgery 's': side names collide between the two inputs", None),
    ("rescaled by zero", lambda: _models("a")[0].form.rescaled(0), 2,
     "rescaling by zero destroys the form", None),
    ("verdicts of an empty model", lambda: verdicts(FoliationModel()), 2,
     "zero-free form with vanishing periods cannot be of Morse type", None),
    ("attach to a zero vertex", lambda: _graph_refusal(ZERO, ZERO), 2,
     "attachments end at special vertices", None),
    ("attach from a special vertex", lambda: _graph_refusal(SPECIAL, SPECIAL), 2,
     "attachments start at zero vertices", None),
    ("rank of no values", lambda: q_rank([]), 2, "q_rank needs a nonempty list", None),
    ("rank across tables", lambda: q_rank([SymbolTable().rational(1), SymbolTable().rational(1)]),
     2, "q_rank inputs span several symbol tables", None),
]


class TestRefusals:
    @pytest.mark.parametrize("run, code, message, line", [row[1:] for row in REFUSALS],
                             ids=[row[0] for row in REFUSALS])
    def test_a_refusal_ends_with_its_code_message_and_line(self, run, code, message, line,
                                                           tmp_path, capsys):
        if callable(run):
            with pytest.raises(FoliageError) as refused:
                run()
            # main ends on a FoliageError with exit 2, on a PrecisionExhausted with 3
            ended = 3 if isinstance(refused.value, PrecisionExhausted) else 2
            assert (ended, str(refused.value)) == (code, message)
            return
        path = tmp_path / "refused.scn"
        path.write_text(run)
        assert main(["periods", str(path)]) == code
        where = "" if line is None else f"line {run.splitlines().index(line) + 1}: "
        ending = "numeric failure: " if code == 3 else "scenario error: "
        assert capsys.readouterr().err == f"{ending}{where}{message}\n"


# -- fuzz: mutated catalog scenarios end in exit 0, 2 or 3, never in an exception

FUZZ_TOKENS = [
    "1e400", "-1e400", "1e-400", "nan", "1/0", "inf", "0", "-1", "1/3", "7/2",
    "1e400*p", "1e-400*q", "-1*p", "abc", "true", "",
]
FUZZ_LINES = [
    "[tracer]", "[symbols]", "seed = 1e400, 1/3", "seed = 1e-400, -1e400",
    "step = 1e-400", "max_steps = 1e400", "r = 1e400", "s = 1e-400 dependent",
    "bump = center 1/4 1/8 radius 1/32 amplitude 1e400*p",
    "bump = center 1/4 1/8 radius 1/32 amplitude 1e-400",
    "basic_override = true", "dtheta = 1e400*p", "dphi = 1/0",
]
FUZZ_COMMANDS = [c for c in cli.COMMANDS if c != "examples"]


@st.composite
def mutated_scenarios(draw):
    lines = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))].splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
        elif "=" in lines[i]:
            key, _, value = lines[i].partition("=")
            words = value.split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = f"{key}= {' '.join(words)}"
    return "\n".join(lines) + "\n"


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_scenarios(), command=st.sampled_from(FUZZ_COMMANDS))
    def test_mutated_scenarios_exit_cleanly(self, tmp_path, text, command):
        path = tmp_path / "fuzz.scn"
        path.write_text(text)
        argv = [command, str(path)] + (["--steps", "2000"] if command == "trace" else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3), text
