from fractions import Fraction

import pytest

from foliage import scalar, surgery
from foliage.catalog import SCENARIOS
from foliage.cli import build_report, build_scenario, parse_scenario
from foliage.forms import ClosedForm
from foliage.graph import factorization_witness
from foliage.orbifold import pillowcase_presentation, torus_presentation
from foliage.surgery import (
    ModelError,
    SurgerySpec,
    UnsupportedSurgery,
    analyze,
    connected_sum,
    genericize,
    harmonicity_verdict,
    is_transitive,
    verdicts,
)

from conftest import PI, SQRT2, build_catalog_model


def r(table, value):
    return table.rational(Fraction(value))


def torus_model(table, a, b, name):
    pres = torus_presentation()
    if isinstance(a, str):
        lin = (table.symbol(a), table.symbol(b))
    else:
        lin = (table.rational(a), table.rational(b))
    return analyze(pres, ClosedForm(lin, pres, name=name), name)


def pillowcase_dense(table, name):
    pres = pillowcase_presentation()
    form = ClosedForm(
        (table.symbol("p"), table.symbol("q")), pres, basic_override=True, name=name
    )
    return analyze(pres, form, name)


class TestCatalogVerdicts:
    """The four showcase constructions reproduce their expected outcomes."""

    def test_example_1_kind_a_mixed(self):
        model = build_catalog_model("pillowcase-ex1")
        assert is_transitive(model) is True
        assert harmonicity_verdict(model) == "IntrinsicallyHarmonic"
        assert any(l.compact for l in model.catalog)
        assert any(not l.compact for l in model.catalog)
        assert not model.decomposition.x_c == frozenset()
        assert model.decomposition.x_inf_components

    def test_example_2_kind_c_one_compact_component(self):
        model = build_catalog_model("pillowcase-ex2")
        assert is_transitive(model) is False
        assert harmonicity_verdict(model) == "NotIntrinsicallyHarmonic"
        assert not any(l.compact for l in model.catalog)
        assert len(model.decomposition.boundary) == 1
        (leaf,) = [l for l in model.catalog if l.zeros]
        assert leaf.kind == "NoncompactSingular"
        assert sum(1 for _, compact in leaf.components if compact) == 1
        assert len(leaf.zeros) == 2

    def test_example_3_kind_b_some_compact(self):
        model = build_catalog_model("pillowcase-ex3")
        assert is_transitive(model) is False
        assert any(l.kind == "CompactRegular" for l in model.catalog)
        assert any(not l.compact for l in model.catalog)

    def test_example_4_kind_a_wrapping(self):
        model = build_catalog_model("pillowcase-ex4")
        assert is_transitive(model) is True
        assert not any(l.compact for l in model.catalog)
        comps = model.decomposition.x_inf_components
        assert len(comps) == 1
        ranks = dict(model.decomposition.restricted_ranks)
        assert ranks[comps[0][0]] == 2

    def test_mixed_torus_and_pillowcase_inputs(self, table):
        # the closing variation: one side a torus, the other the quotient
        left = torus_model(table, 1, 0, "tl")
        right = pillowcase_dense(table, "qr")
        spec = SurgerySpec(
            "A", left, right,
            left_window=(r(table, "1/8"), r(table, "3/8")),
            right_window=(r(table, "1/8"), r(table, "3/8")),
            tube_levels=(r(table, "3/16"), r(table, "5/16")),
            name="mix",
        )
        model = connected_sum(spec)
        assert is_transitive(model) is True
        assert any(l.compact for l in model.catalog)
        assert any(not l.compact for l in model.catalog)


class TestSurgeryInvariants:
    def test_every_kind_adds_two_index_one_zeros(self, table):
        for name in ("pillowcase-ex1", "pillowcase-ex2", "pillowcase-ex3",
                     "pillowcase-ex4", "sum-b-compact"):
            model = build_catalog_model(name)
            assert len(model.zeros) == 2
            assert all(z.index == 1 and z.isotropy_order == 1 for z in model.zeros)

    def test_kind_a_preserves_transitivity(self, table, rng):
        # randomized A-specs over transitive inputs stay transitive
        pairs = [
            (torus_model(table, 1, 0, "l1"), torus_model(table, 2, 3, "r1")),
            (torus_model(table, 1, 0, "l2"), torus_model(table, "p", "q", "r2")),
            (torus_model(table, "p", "q", "l3"), pillowcase_dense(table, "r3")),
        ]
        for left, right in pairs:
            assert is_transitive(left) and is_transitive(right)
            for _ in range(8):
                lo = Fraction(rng.randint(1, 6), 32)
                hi = lo + Fraction(rng.randint(1, 4), 32)
                window = (r(table, lo - Fraction(1, 32)), r(table, hi + Fraction(1, 32)))
                spec = SurgerySpec(
                    "A", left, right,
                    left_window=window, right_window=window,
                    tube_levels=(r(table, lo), r(table, hi)),
                    name="rand",
                )
                assert is_transitive(connected_sum(spec)) is True

    def test_kind_b_produces_new_compact_leaves(self):
        model = build_catalog_model("pillowcase-ex3")
        chain = [l for l in model.catalog if l.leaf_id.endswith(".chain")]
        assert len(chain) == 1 and chain[0].kind == "CompactRegular"

    def test_kind_a_singular_components_follow_the_adjacency(self):
        from foliage.leaves import singular_components

        model = build_catalog_model("pillowcase-ex1")
        leaf_x = next(l for l in model.catalog if l.leaf_id == "ex1.leaf_x")
        comps = singular_components(leaf_x)
        assert [flag for _, flag in comps] == [True, False]
        assert comps[0][0].endswith("circle@wL")

    def test_kind_c_produces_one_compact_singular_component(self):
        model = build_catalog_model("pillowcase-ex2")
        compact_components = [
            (leaf.leaf_id, cid)
            for leaf in model.catalog
            for cid, compact in leaf.components
            if compact
        ]
        assert len(compact_components) == 1

    def test_off_disk_families_survive_unchanged(self, table):
        left = torus_model(table, 1, 0, "m1")
        mid = torus_model(table, 2, 3, "m2")
        extra = torus_model(table, 1, 2, "m3")
        first = connected_sum(SurgerySpec(
            "B", left, mid,
            left_window=(r(table, "1/8"), r(table, "3/8")),
            right_window=(r(table, "5/8"), r(table, "7/8")),
            tube_levels=(r(table, "3/4"), r(table, "1/4")),
            name="s1",
        ))
        before = {
            e.family: e.weight for e in first.graph.edges.values() if e.side == "m1"
        }
        second = connected_sum(SurgerySpec(
            "B", first, extra,
            left_window=(r(table, "25/32"), r(table, "27/32")),
            right_window=(r(table, "9/8"), r(table, "11/8")),
            tube_levels=(r(table, "10/8"), r(table, "13/16")),
            left_region="m2.f0:1",
            name="s2",
        ))
        assert len(second.zeros) == 4
        after = {
            e.family: e.weight for e in second.graph.edges.values() if e.side == "m1"
        }
        assert before == after

    def test_transitivity_invariant_under_positive_rescaling(self, table):
        for name, scale in (("pillowcase-ex1", Fraction(7, 3)),
                            ("pillowcase-ex3", Fraction(2, 5))):
            model = build_catalog_model(name)
            spec = model._spec
            scaled = connected_sum(SurgerySpec(
                spec.kind,
                _rescaled_virgin(spec.left, scale),
                _rescaled_virgin(spec.right, scale),
                left_window=tuple(w * scale for w in spec.left_window),
                right_window=tuple(w * scale for w in spec.right_window),
                tube_levels=tuple(t * scale for t in spec.tube_levels),
                name=spec.name,
            ))
            assert is_transitive(scaled) == is_transitive(model)

    def test_zero_free_rescaling(self, table):
        model = torus_model(table, "p", "q", "v")
        pres = model.orbifold
        scaled = analyze(pres, model.form.rescaled(Fraction(7, 3)), "v7")
        assert is_transitive(scaled) == is_transitive(model) is True


def _rescaled_virgin(model, scale):
    return analyze(model.orbifold, model.form.rescaled(scale), model.name)


class TestValidation:
    def test_kind_a_needs_overlap(self, table):
        left = torus_model(table, 1, 0, "l")
        right = torus_model(table, 2, 3, "rr")
        with pytest.raises(ModelError):
            connected_sum(SurgerySpec(
                "A", left, right,
                left_window=(r(table, "1/8"), r(table, "2/8")),
                right_window=(r(table, "5/8"), r(table, "6/8")),
                tube_levels=(r(table, "3/16"), r(table, "5/16")),
                name="bad",
            ))

    def test_kind_b_needs_disjoint_windows(self, table):
        left = torus_model(table, 1, 0, "l")
        right = torus_model(table, 2, 3, "rr")
        with pytest.raises(ModelError):
            connected_sum(SurgerySpec(
                "B", left, right,
                left_window=(r(table, "1/8"), r(table, "3/8")),
                right_window=(r(table, "2/8"), r(table, "5/8")),
                tube_levels=(r(table, "3/8"), r(table, "2/8")),
                name="bad",
            ))

    def test_kind_c_needs_equal_levels(self, table):
        left = pillowcase_dense(table, "l")
        right = pillowcase_dense(table, "rr")
        with pytest.raises(ModelError):
            connected_sum(SurgerySpec(
                "C", left, right,
                left_window=(r(table, "1/8"), r(table, "3/8")),
                right_window=(r(table, "1/8"), r(table, "3/8")),
                tube_levels=(r(table, "3/16"), r(table, "5/16")),
                name="bad",
            ))

    def test_tube_level_collision_rejected(self, table):
        first = build_catalog_model("sum-b-compact")
        extra = torus_model(first.table, 1, 2, "m3")
        with pytest.raises(ModelError):
            connected_sum(SurgerySpec(
                "B", first, extra,
                left_window=(r(first.table, "11/16"), r(first.table, "13/16")),
                right_window=(r(first.table, "9/8"), r(first.table, "11/8")),
                # 3/4 is already the singular level of the first surgery
                tube_levels=(r(first.table, "10/8"), r(first.table, "3/4")),
                left_region="wR.f0:1",
                name="s2",
            ))

    def test_partial_wrap_unsupported(self, table):
        left = torus_model(table, 1, 0, "l")
        right = torus_model(table, "p", "q", "rr")
        with pytest.raises(UnsupportedSurgery):
            connected_sum(SurgerySpec(
                "A", left, right,
                left_window=(r(table, "-1/8"), r(table, "3/2")),
                right_window=(r(table, "-1/8"), r(table, "3/2")),
                tube_levels=(r(table, 0), r(table, "11/8")),  # band in (c, 2c)
                name="bad",
            ))

    def test_commensurate_wrap_unsupported(self, table):
        left = torus_model(table, 1, 0, "l")
        right = torus_model(table, 2, 3, "rr")
        with pytest.raises(UnsupportedSurgery):
            connected_sum(SurgerySpec(
                "A", left, right,
                left_window=(r(table, "-1/8"), r(table, "7/2")),
                right_window=(r(table, "-1/8"), r(table, "7/2")),
                tube_levels=(r(table, 0), r(table, "13/4")),  # both sides wrap, rank 1
                name="bad",
            ))

    def test_self_sum_rejected(self, table):
        model = torus_model(table, 1, 0, "l")
        with pytest.raises(ModelError):
            connected_sum(SurgerySpec(
                "A", model, model,
                left_window=(r(table, "1/8"), r(table, "3/8")),
                right_window=(r(table, "1/8"), r(table, "3/8")),
                tube_levels=(r(table, "3/16"), r(table, "5/16")),
                name="bad",
            ))


class TestDerivedCases:
    def test_kind_a_on_a_nontransitive_input(self, table):
        # not stated in the source catalog: one transitive input, one not;
        # the graph verdict is computed and labeled derived
        nontransitive = connected_sum(SurgerySpec(
            "B", torus_model(table, 1, 0, "m1"), torus_model(table, 2, 3, "m2"),
            left_window=(r(table, "1/8"), r(table, "3/8")),
            right_window=(r(table, "5/8"), r(table, "7/8")),
            tube_levels=(r(table, "3/4"), r(table, "1/4")),
            name="bsum",
        ))
        assert is_transitive(nontransitive) is False
        dense = pillowcase_dense(table, "pd")
        model = connected_sum(SurgerySpec(
            "A", nontransitive, dense,
            left_window=(r(table, "5/16"), r(table, "11/16")),
            right_window=(r(table, "5/16"), r(table, "11/16")),
            tube_levels=(r(table, "3/8"), r(table, "5/8")),
            left_region="bsum.chain",
            name="amix",
        ))
        assert is_transitive(model) is False

    def test_kind_c_between_compact_sides(self, table):
        left = torus_model(table, 1, 0, "l")
        right = torus_model(table, 2, 3, "rr")
        model = connected_sum(SurgerySpec(
            "C", left, right,
            left_window=(r(table, "1/8"), r(table, "3/8")),
            right_window=(r(table, "1/8"), r(table, "3/8")),
            tube_levels=(r(table, "1/4"), r(table, "1/4")),
            name="cc",
        ))
        assert model.all_leaves_compact()
        (leaf,) = [l for l in model.catalog if l.zeros]
        assert leaf.kind == "CompactSingular"
        assert not model.is_generic
        companion = genericize(model)
        assert companion.is_generic
        assert is_transitive(model) is False
        assert factorization_witness(model) is not None


def surgery_chain(kind, n):
    """n + 1 dense pillowcase forms joined in sequence by surgeries of one kind
    through the noncompact components; kind C puts both tube levels at
    i/(4n+8), kind A at i/(4n+8) : (i+1)/(4n+8)."""
    out = ["[symbols]", f"p = {PI}", f"q = {SQRT2}"]
    for i in range(n + 1):
        out += [f"[orbifold Q{i}]", "builtin = pillowcase", f"[form w{i}]", f"on = Q{i}",
                "dtheta = 1*p", "dphi = 1*q", "basic_override = true"]
    d = 4 * n + 8
    for i in range(1, n + 1):
        out += [f"[surgery s{i}]", f"kind = {kind}", f"left = {'w0' if i == 1 else f's{i - 1}'}",
                f"right = w{i}", "left_region = w0.inf", f"right_region = w{i}.inf",
                "left_window = 0 : 1", "right_window = 0 : 1",
                f"tube = {i}/{d} : {i + (kind == 'A')}/{d}"]
    return "\n".join(out) + "\n"


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestVerdictsDecidedOnce:
    def test_record_of_a_model_with_zeros(self):
        model = build_catalog_model("pillowcase-ex2")
        decided = verdicts(model)
        assert decided.companion is not model and decided.companion.is_generic
        assert (decided.calabi, decided.transitive) == (False, False)
        assert decided.harmonicity == harmonicity_verdict(model) == "NotIntrinsicallyHarmonic"

    def test_record_of_a_zero_free_model(self):
        model = build_catalog_model("torus-dense")
        decided = verdicts(model)
        assert decided.companion is model
        assert (decided.calabi, decided.transitive) == (None, True)
        assert decided.harmonicity == "IntrinsicallyHarmonic"

    def test_one_report_genericizes_once(self, monkeypatch):
        built = build_scenario(parse_scenario(SCENARIOS["pillowcase-ex2"]))
        calls = _counting(monkeypatch, surgery, "genericize")
        build_report(built, "surgery")
        assert len(calls) == 1

    def test_one_report_on_a_kind_c_chain_computes_one_hnf(self, monkeypatch):
        built = build_scenario(parse_scenario(surgery_chain("C", 8)))
        calls = _counting(monkeypatch, scalar, "hermite_normal_form")
        report = build_report(built, "surgery")
        assert len(calls) == 1
        assert "transitive: no" in report

    def test_a_kind_a_chain_never_densifies_a_scalar(self, monkeypatch):
        # ranks and lattices read the integer numerators, not dense vectors
        calls = _counting(monkeypatch, scalar.SymScalar, "vector")
        built = build_scenario(parse_scenario(surgery_chain("A", 16)))
        report = build_report(built, "surgery")
        assert calls == []
        assert "transitive: yes" in report
