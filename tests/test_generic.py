from fractions import Fraction

import pytest

from foliage.forms import ClosedForm
from foliage.orbifold import torus_presentation
from foliage.scalar import in_lattice, is_rational, sign
from foliage.surgery import FoliationModel, ModelError, analyze, genericize

from conftest import build_catalog_model


class TestModelLevel:
    def test_generic_models_are_returned_unchanged(self):
        model = build_catalog_model("pillowcase-ex1")
        assert model.is_generic
        assert genericize(model) is model

    def test_zero_free_models_come_back_unchanged(self, table):
        T = torus_presentation()
        model = analyze(T, ClosedForm((table.symbol("p"), table.symbol("q")), T), "w")
        assert genericize(model) is model

    def test_kind_c_companion_gets_admissible_shifts(self):
        model = build_catalog_model("pillowcase-ex2")
        raw = dict(model.singular_levels())
        shifted = dict(genericize(model).singular_levels())
        assert set(shifted) == set(raw) == {z.zero_id for z in model.zeros}
        # each zero moves by a rational amount, and the moved levels differ
        # by no element of the raw model's period lattice
        assert all(is_rational(shifted[z] - raw[z]) for z in raw)
        lattice = model.generator_periods()
        diff = shifted["ex2.x"] - shifted["ex2.y"]
        assert not diff.is_zero()
        assert not in_lattice(diff, lattice)

    def test_model_without_provenance_raises(self):
        m = build_catalog_model("pillowcase-ex2")
        orphan = FoliationModel(
            m.name, m.orbifold, m.form, m.sides, m.graph, m.zeros, m.zero_sites,
            m.x_inf_gens, m.special_vertices, m.singular_entries, m.provenance,
            m.notes, m.is_generic,
        )
        with pytest.raises(ModelError):
            genericize(orphan)

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
                assert not in_lattice(diff, lattice)

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
