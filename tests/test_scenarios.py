"""Scenario-level coverage beyond the built-in catalog: custom actions,
bump declarations, basepoint overrides, virgin decompositions, level shifts
by whole circumferences, reordered symbols and renamed models."""

from fractions import Fraction

import pytest

from foliage.catalog import SCENARIOS
from foliage.cli import build_report, build_scenario, parse_scenario, run, serialize_scenario
from foliage.leaves import trace_leaf
from foliage.orbifold import TorusPoint

CUSTOM_ACTION = """[symbols]

[orbifold H]
element = 1 0 0 1 ; 1/2 0
basepoint = 1/16, 1/16

[form w]
on = H
dtheta = 1
dphi = 0
"""

BUMPED = """[symbols]
p = 3.14159265358979323846264338327950288420
q = 1.41421356237309504880168872420969807857

[form w]
on = T
dtheta = 1*p
dphi = 1*q
bump = center 5/8 5/8 radius 1/16 amplitude 1/200

[orbifold T]
builtin = torus
"""


class TestCustomAction:
    def test_declared_shift_matches_the_builtin(self):
        built = build_scenario(parse_scenario(CUSTOM_ACTION))
        model = built.final
        assert model.sides["w"].circumference == model.table.rational(Fraction(1, 2))

    def test_basepoint_override_propagates(self):
        built = build_scenario(parse_scenario(CUSTOM_ACTION))
        pres = built.presentations["H"]
        assert pres.basepoint == (Fraction(1, 16), Fraction(1, 16))
        assert pres.generators[0].loop.start == TorusPoint(Fraction(1, 16), Fraction(1, 16))

    def test_round_trip_keeps_custom_sections(self):
        s = parse_scenario(CUSTOM_ACTION)
        assert parse_scenario(serialize_scenario(s)) == s


class TestBumpScenario:
    def test_bump_parses_and_builds(self):
        built = build_scenario(parse_scenario(BUMPED))
        form = built.forms["w"]
        assert len(form.bumps) == 1
        assert form.bumps[0].radius == Fraction(1, 16)
        assert form.bumps[0].amplitude == built.table.rational(Fraction(1, 200))

    def test_coarse_steps_fail_the_drift_check(self):
        built = build_scenario(parse_scenario(BUMPED))
        form = built.forms["w"]
        result = trace_leaf(
            form, TorusPoint(Fraction(1, 8), Fraction(1, 8)),
            step=0.02, max_steps=100_000,
        )
        assert result.verdict == "Inconclusive"
        assert "drift" in result.reason

    def test_bumped_form_still_traces_dense(self):
        built = build_scenario(parse_scenario(BUMPED))
        form = built.forms["w"]
        result = trace_leaf(
            form, TorusPoint(Fraction(1, 8), Fraction(1, 8)),
            step=0.005, max_steps=400_000,
        )
        assert result.verdict == "DenseEvidence"

    def test_periods_unaffected_by_the_bump(self):
        built = build_scenario(parse_scenario(BUMPED))
        report, _, _ = run("periods", built)
        assert "rank 2" in report

    def test_round_trip(self):
        s = parse_scenario(BUMPED)
        assert parse_scenario(serialize_scenario(s)) == s


class TestVirginDecompositions:
    def test_all_compact_means_empty_x_inf(self):
        from conftest import build_catalog_model

        model = build_catalog_model("torus-rational")
        d = model.decomposition
        assert d.x_c and not d.x_inf_components and not d.boundary

    def test_all_dense_means_empty_x_c(self):
        from conftest import build_catalog_model

        model = build_catalog_model("torus-dense")
        d = model.decomposition
        assert not d.x_c
        assert len(d.x_inf_components) == 1
        assert dict(d.restricted_ranks)[d.x_inf_components[0][0]] == 2


class TestMixedKindAVerdict:
    def test_kind_a_with_nontransitive_input_is_decided_by_its_graph(self, table):
        from foliage.forms import ClosedForm
        from foliage.orbifold import BUILTIN_ORBIFOLDS
        from foliage.surgery import SurgerySpec, analyze, connected_sum, verdicts

        def torus_model(a, b, name):
            pres = BUILTIN_ORBIFOLDS["torus"]
            return analyze(ClosedForm((table.rational(a), table.rational(b)), pres), name)

        r = lambda v: table.rational(Fraction(v))
        nontransitive = connected_sum(SurgerySpec(
            "B", torus_model(1, 0, "m1"), torus_model(2, 3, "m2"),
            left_window=(r("1/8"), r("3/8")), right_window=(r("5/8"), r("7/8")),
            tube_levels=(r("3/4"), r("1/4")), name="b0",
        ))
        mixed = connected_sum(SurgerySpec(
            "A", nontransitive, torus_model(1, 2, "m3"),
            left_window=(r("5/16"), r("11/16")), right_window=(r("5/16"), r("11/16")),
            tube_levels=(r("3/8"), r("5/8")), left_region="b0.chain", name="a1",
        ))
        assert not verdicts(nontransitive).transitive
        # the graph alone decides it: not Calabi, so not transitive
        decided = verdicts(mixed)
        assert (decided.calabi, decided.transitive) == (False, False)
        assert decided.harmonicity == "NotIntrinsicallyHarmonic"
        assert not any("transitiv" in note for note in mixed.notes)
        model = build_scenario(parse_scenario(BUMPED)).final
        assert not any("transitiv" in note for note in model.notes)


class TestLevelShiftInvariance:
    """Shifting every window and tube level by k circumferences is the same
    surgery; the levels are placed exactly, however large k is."""

    @staticmethod
    def _verdicts(text):
        report, _, _ = run("transitivity", build_scenario(parse_scenario(text)))
        return report[report.index("== verdicts =="):]

    @staticmethod
    def _shifted(text, keys, k):
        out = []
        for line in text.splitlines():
            key, _, value = line.partition(" = ")
            if key in keys:
                lo, hi = (Fraction(v) + k for v in value.split(":"))
                line = f"{key} = {lo} : {hi}"
            out.append(line)
        return "\n".join(out) + "\n"

    @pytest.mark.parametrize("k", [3**34, 3**36, 10**30], ids=["3^34", "3^36", "10^30"])
    def test_sum_b_compact_verdicts_survive_the_shift(self, k):
        # both sides of sum-b-compact have circumference 1
        text = SCENARIOS["sum-b-compact"]
        shifted = self._shifted(text, ("left_window", "right_window", "tube"), k)
        assert shifted != text
        assert self._verdicts(shifted) == self._verdicts(text)
        assert "transitive: no" in self._verdicts(shifted)


SURGERY_SCENARIOS = sorted(name for name, text in SCENARIOS.items() if "[surgery " in text)


class TestDeclarationInvariance:
    """Reordering the symbol declarations or renaming every model is the same
    mathematics.  Weights render their terms in table order and graph blocks
    print model names, so only the three verdict lines are compared."""

    @staticmethod
    def _verdict_lines(scenario):
        report = build_report(build_scenario(scenario), "transitivity")
        keys = ("Calabi graph:", "transitive:", "intrinsically harmonic:")
        return [line for line in report.splitlines() if line.startswith(keys)]

    @staticmethod
    def _renamed(s):
        """Every orbifold, form and surgery renamed, in reverse sort order."""
        names = sorted([o.name for o in s.orbifolds] + [f.name for f in s.forms]
                       + [g.name for g in s.surgeries])
        new = {old: f"m{len(names) - i:02d}" for i, old in enumerate(names)}

        def region(text):
            head, dot, tail = text.partition(".")
            return text if text == "auto" else new[head] + dot + tail

        return s._replace(
            orbifolds=tuple(o._replace(name=new[o.name]) for o in s.orbifolds),
            forms=tuple(f._replace(name=new[f.name], on=new[f.on]) for f in s.forms),
            surgeries=tuple(
                g._replace(name=new[g.name], left=new[g.left], right=new[g.right],
                           left_region=region(g.left_region), right_region=region(g.right_region))
                for g in s.surgeries
            ),
        )

    @pytest.mark.parametrize("name", SURGERY_SCENARIOS)
    def test_permuted_symbols_keep_the_verdicts(self, name):
        s = parse_scenario(SCENARIOS[name])
        expected = self._verdict_lines(s)
        assert any(line.startswith("transitive:") for line in expected)
        for perm in (s.symbols[::-1], s.symbols[1:] + s.symbols[:1]):
            assert self._verdict_lines(s._replace(symbols=perm)) == expected

    @pytest.mark.parametrize("name", SURGERY_SCENARIOS)
    def test_renamed_models_keep_the_verdicts(self, name):
        s = parse_scenario(SCENARIOS[name])
        renamed = self._renamed(s)
        assert build_report(build_scenario(renamed), "transitivity") != build_report(
            build_scenario(s), "transitivity"
        )
        assert self._verdict_lines(renamed) == self._verdict_lines(s)

    def test_renaming_reaches_named_regions(self):
        s = parse_scenario(
            SCENARIOS["pillowcase-ex2"].replace("kind = C", "kind = C\nleft_region = wL.inf")
        )
        renamed = self._renamed(s)
        assert renamed.surgeries[0].left_region != "wL.inf"
        assert self._verdict_lines(renamed) == self._verdict_lines(s)
