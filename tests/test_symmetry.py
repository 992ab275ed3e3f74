"""The verdicts respect the symmetries of the mathematics.

Scaling: for rational c > 0, c*omega has the same leaves as omega, and every
level, window and weight scales by c.  So a scenario whose form
coefficients, bump amplitudes, windows and tube levels are all multiplied by
c builds exactly when the original does, and its transitivity, Calabi,
harmonicity and leaf-count lines agree.  Ids, weights and the genericity note
may change, so bytes are not compared: `genericize`'s shifts j/(7*2^k) do not
scale with the form, so the companion may differ, but its verdicts may not.
"""

from fractions import Fraction

import pytest

from foliage.catalog import SCENARIOS
from foliage.cli import build_scenario, parse_scenario, run, serialize_scenario
from foliage.scalar import FoliageError

from conftest import surgery_chain

CORPUS = {**SCENARIOS,
          **{f"chain-{kind}{n}": surgery_chain(kind, n) for kind in "ABC" for n in (1, 2, 4, 8)}}

VERDICT_LINES = ("transitive:", "Calabi graph:", "intrinsically harmonic:", "counts:")


def outcome(text):
    """The exit code and verdict lines of the transitivity report, or the
    class of the error that refuses the scenario."""
    try:
        report, _, code = run("transitivity", build_scenario(parse_scenario(text)))
    except FoliageError as err:
        return type(err).__name__
    return code, [line for line in report.splitlines() if line.startswith(VERDICT_LINES)]


def scaled(text, c):
    """The scenario with c times every form coefficient, bump amplitude,
    window and tube level, written back as scenario text."""
    def times(expr):
        return tuple((name, c * coef) for name, coef in expr)

    def pair(levels):
        return times(levels[0]), times(levels[1])

    s = parse_scenario(text)
    return serialize_scenario(s._replace(
        forms=tuple(f._replace(dtheta=times(f.dtheta), dphi=times(f.dphi),
                               bumps=tuple(b._replace(amplitude=times(b.amplitude))
                                           for b in f.bumps))
                    for f in s.forms),
        surgeries=tuple(g._replace(left_window=pair(g.left_window),
                                   right_window=pair(g.right_window), tube=pair(g.tube))
                        for g in s.surgeries),
    ))


class TestScaling:
    @pytest.mark.parametrize("name", CORPUS)
    def test_scaled_scenarios_keep_the_verdicts(self, name):
        text = CORPUS[name]
        expected = outcome(text)
        assert isinstance(expected, str) or any(
            line.startswith("transitive:") for line in expected[1])
        for c in (3, Fraction(1, 5), Fraction(7, 3)):
            image = scaled(text, c)
            assert image != text
            assert outcome(image) == expected, c

    def test_the_map_scales_what_it_names_and_nothing_else(self):
        s = parse_scenario(scaled(CORPUS["chain-B1"], Fraction(1, 5)))
        assert [f.dtheta for f in s.forms] == [(("p", Fraction(1, 5)),)] * 2
        (g,) = s.surgeries
        assert g.left_window == ((("one", Fraction(1, 10)),), (("one", Fraction(1, 5)),))
        assert g.tube == ((("one", Fraction(7, 60)),), (("one", Fraction(1, 60)),))
        assert (g.left_region, g.right_region) == ("w0.inf", "w1.inf")
