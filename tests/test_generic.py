from fractions import Fraction

import pytest

from foliage.forms import ClosedForm
from foliage.orbifold import BUILTIN_ORBIFOLDS
from foliage.scalar import Lattice, sign
from foliage.surgery import FoliationModel, ModelError, analyze, genericize

from conftest import build_catalog_model, hook_join


class TestModelLevel:
    def test_generic_models_are_returned_unchanged(self):
        model = build_catalog_model("pillowcase-ex1")
        assert model.is_generic
        assert genericize(model) is model

    def test_zero_free_models_come_back_unchanged(self, table):
        T = BUILTIN_ORBIFOLDS["torus"]
        model = analyze(ClosedForm((table.symbol("p"), table.symbol("q")), T), "w")
        assert genericize(model) is model

    def test_kind_c_companion_gets_admissible_shifts(self):
        model = build_catalog_model("pillowcase-ex2")
        raw = dict(model.singular_levels())
        shifted = dict(genericize(model).singular_levels())
        assert set(shifted) == set(raw) == {z.zero_id for z in model.zeros}
        # each zero moves by a rational amount, and the moved levels differ
        # by no element of the raw model's period lattice
        assert all(len((shifted[z] - raw[z]).nums) <= 1 for z in raw)
        lattice = model.generator_periods()
        diff = shifted["ex2.x"] - shifted["ex2.y"]
        assert not diff.is_zero()
        assert diff not in Lattice(lattice)

    def test_model_without_provenance_raises(self):
        m = build_catalog_model("pillowcase-ex2")
        orphan = FoliationModel(m.name, m.form, m.table)
        orphan.absorb(m)
        orphan.finish()
        assert not orphan.is_generic and orphan.spec is None
        with pytest.raises(ModelError):
            genericize(orphan)

    def test_a_failed_rebuild_is_the_reason_given(self, monkeypatch):
        def refused(real, model, shifts):
            raise ModelError("cut level falls outside the targeted family")

        hook_join(monkeypatch, "rebuild", refused)
        with pytest.raises(ModelError, match=r"after 20 attempts \(cut level falls outside"):
            genericize(build_catalog_model("pillowcase-ex2"))

    def test_construction_c_postconditions(self):
        model = build_catalog_model("pillowcase-ex2")
        assert not model.is_generic
        companion = genericize(model)

        # zeros unchanged: same ids, indices, isotropies
        raw = {(z.zero_id, z.index, z.isotropy_order) for z in model.zeros}
        new = {(z.zero_id, z.index, z.isotropy_order) for z in companion.zeros}
        assert raw == new

        # loop periods unchanged, exactly
        assert [p.render() for p in model.generator_periods()] == [
            p.render() for p in companion.generator_periods()
        ]

        # singular levels pairwise distinct, differences outside the lattice
        levels = dict(companion.singular_levels())
        ids = sorted(levels)
        lattice = companion.generator_periods()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                diff = levels[ids[i]] - levels[ids[j]]
                assert not diff.is_zero()
                assert diff not in Lattice(lattice)

        # each singular leaf of the companion carries exactly one zero
        assert companion.is_generic
        for leaf in companion.catalog:
            if leaf.zeros:
                assert len(leaf.zeros) == 1

        # the opened waist is a positive-weight chain edge; the first shift
        # attempt (0 and 1/7) is admissible because 1/7 is no lattice element
        chain = [e for e in companion.graph.edges.values() if e.family.endswith(".chain")]
        assert len(chain) == 1
        assert sign(chain[0].weight) > 0
        assert chain[0].weight == companion.table.rational(Fraction(1, 7))

    def test_raw_and_companion_reported_side_by_side(self):
        model = build_catalog_model("pillowcase-ex2")
        companion = genericize(model)
        assert any("genericized companion" in note for note in companion.notes)
        # the raw model keeps its equal-level bookkeeping
        levels = dict(model.singular_levels())
        assert levels["ex2.x"] == levels["ex2.y"]
