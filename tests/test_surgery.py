import hashlib
import inspect
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from foliage import cli, forms, scalar, surgery
from foliage.catalog import SCENARIOS
from foliage.cli import build_report, build_scenario, parse_scenario
from foliage.forms import ClosedForm
from foliage.graph import FoliationGraph, factorization_witness, is_calabi
from foliage.orbifold import BUILTIN_ORBIFOLDS
from foliage.surgery import (
    FoliationModel,
    ModelError,
    Side,
    SurgerySpec,
    UnsupportedSurgery,
    analyze,
    connected_sum,
    genericize,
    verdicts,
)

from conftest import (
    PI,
    SQRT2,
    build_catalog_model,
    hook_join,
    join_step,
    refinished,
    spec_tree_nodes,
    surgery_chain,
    surgery_trees,
)
import test_scenarios


def r(table, value):
    return table.rational(Fraction(value))


def torus_model(table, a, b, name):
    pres = BUILTIN_ORBIFOLDS["torus"]
    if isinstance(a, str):
        lin = (table.symbol(a), table.symbol(b))
    else:
        lin = (table.rational(a), table.rational(b))
    return analyze(ClosedForm(lin, pres), name)


def pillowcase_dense(table, name):
    pres = BUILTIN_ORBIFOLDS["pillowcase"]
    form = ClosedForm((table.symbol("p"), table.symbol("q")), pres, basic_override=True)
    return analyze(form, name)


class TestCatalogVerdicts:
    """The four showcase constructions reproduce their expected outcomes."""

    def test_example_1_kind_a_mixed(self):
        model = build_catalog_model("pillowcase-ex1")
        assert verdicts(model).transitive is True
        assert verdicts(model).harmonicity == "IntrinsicallyHarmonic"
        assert any(l.compact for l in model.catalog)
        assert any(not l.compact for l in model.catalog)
        assert not model.decomposition.x_c == frozenset()
        assert model.decomposition.x_inf_components

    def test_example_2_kind_c_one_compact_component(self):
        model = build_catalog_model("pillowcase-ex2")
        assert verdicts(model).transitive is False
        assert verdicts(model).harmonicity == "NotIntrinsicallyHarmonic"
        assert not any(l.compact for l in model.catalog)
        assert len(model.decomposition.boundary) == 1
        (leaf,) = [l for l in model.catalog if l.zeros]
        assert leaf.kind == "NoncompactSingular"
        assert sum(1 for _, compact in leaf.components if compact) == 1
        assert len(leaf.zeros) == 2

    def test_example_3_kind_b_some_compact(self):
        model = build_catalog_model("pillowcase-ex3")
        assert verdicts(model).transitive is False
        assert any(l.kind == "CompactRegular" for l in model.catalog)
        assert any(not l.compact for l in model.catalog)

    def test_example_4_kind_a_wrapping(self):
        model = build_catalog_model("pillowcase-ex4")
        assert verdicts(model).transitive is True
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
        assert verdicts(model).transitive is True
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
            assert verdicts(left).transitive and verdicts(right).transitive
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
                assert verdicts(connected_sum(spec)).transitive is True

    def test_kind_b_produces_new_compact_leaves(self):
        model = build_catalog_model("pillowcase-ex3")
        chain = [l for l in model.catalog if l.leaf_id.endswith(".chain")]
        assert len(chain) == 1 and chain[0].kind == "CompactRegular"

    def test_kind_a_singular_components_follow_the_adjacency(self):
        model = build_catalog_model("pillowcase-ex1")
        leaf_x = next(l for l in model.catalog if l.leaf_id == "ex1.leaf_x")
        comps = leaf_x.components
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
            spec = model.spec
            scaled = connected_sum(SurgerySpec(
                spec.kind,
                _rescaled_virgin(spec.left, scale),
                _rescaled_virgin(spec.right, scale),
                left_window=tuple(w * scale for w in spec.left_window),
                right_window=tuple(w * scale for w in spec.right_window),
                tube_levels=tuple(t * scale for t in spec.tube_levels),
                name=spec.name,
            ))
            assert verdicts(scaled).transitive == verdicts(model).transitive

    def test_zero_free_rescaling(self, table):
        model = torus_model(table, "p", "q", "v")
        scaled = analyze(model.form.rescaled(Fraction(7, 3)), "v7")
        assert verdicts(scaled).transitive == verdicts(model).transitive is True


def _rescaled_virgin(model, scale):
    return analyze(model.form.rescaled(scale), model.name)


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
        t = first.table
        extra = torus_model(t, 1, 2, "m3")
        # a copy of first with a zero forged two laps of wR's circle above
        # 7/8, inside the family wR.f0:1 (3/4 : 1), where the join pinches
        forged = FoliationModel(first.name, table=t, spec=first.spec)
        forged.absorb(first)
        forged.register_zero("forged.z", r(t, "23/8"), "wR")
        forged.finish()

        def pinched(left):
            return connected_sum(SurgerySpec(
                "B", left, extra,
                left_window=(r(t, "13/16"), r(t, "15/16")),
                right_window=(r(t, "9/8"), r(t, "11/8")),
                tube_levels=(r(t, "10/8"), r(t, "7/8")),
                left_region="wR.f0:1",
                name="s2",
            ))

        assert [z.zero_id for z in pinched(first).zeros_on("wR")] == ["bsum.x", "s2.y"]
        with pytest.raises(ModelError, match="collides with the singular level of zero forged.z"):
            pinched(forged)

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
        assert verdicts(nontransitive).transitive is False
        dense = pillowcase_dense(table, "pd")
        model = connected_sum(SurgerySpec(
            "A", nontransitive, dense,
            left_window=(r(table, "5/16"), r(table, "11/16")),
            right_window=(r(table, "5/16"), r(table, "11/16")),
            tube_levels=(r(table, "3/8"), r(table, "5/8")),
            left_region="bsum.chain",
            name="amix",
        ))
        assert verdicts(model).transitive is False

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
        assert verdicts(model).transitive is False
        assert factorization_witness(model) is not None


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestVerdictsDecidedOnce:
    def test_record_of_a_model_with_zeros(self):
        model = build_catalog_model("pillowcase-ex2")
        decided = verdicts(model)
        assert decided.companion is not model and decided.companion.is_generic
        assert (decided.calabi, decided.transitive) == (False, False)
        assert decided.harmonicity == verdicts(model).harmonicity == "NotIntrinsicallyHarmonic"

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


class TestWeightsSignedOnce:
    """Each edge weight is signed once, by add_edge; finishing a model, its
    companion included, signs none again."""

    @pytest.mark.parametrize("text", [
        *(pytest.param(text, id=name) for name, text in SCENARIOS.items()),
        *(pytest.param(surgery_chain(kind, n), id=f"{kind}{n}")
          for kind in "ABC" for n in range(1, 9)),
    ])
    def test_finish_makes_no_sign_call(self, monkeypatch, text):
        signs = _counting(monkeypatch, scalar, "sign")
        signs_in_finish = []
        real = FoliationModel.finish

        def finish(model):
            before = len(signs)
            real(model)
            signs_in_finish.append(len(signs) - before)
            return model

        monkeypatch.setattr(FoliationModel, "finish", finish)
        built = build_scenario(parse_scenario(text))
        build_report(built, "surgery")
        # analyze builds a form's model finished; finishing it again signs
        # nothing either, and gives the catalog and decomposition it has
        for name in built.forms:
            model = built.models[name]
            again = refinished(model)
            assert (again.catalog, again.decomposition) == (model.catalog, model.decomposition)
        assert signs_in_finish and not any(signs_in_finish)


def reference_copy(left, right, extend=False):
    """The per-item copy a join made before FoliationGraph.absorb: every
    vertex, edge and attachment of both inputs re-added one call at a time,
    in sorted-id order.  With extend the left's items stay as they are,
    ids unmoved, and only the right is re-added after them.  Kept as the
    oracle of the bulk copy and of the in-place extension."""
    graph = FoliationGraph()
    edge_map, specials, sides = {}, {}, {}
    parts = [("left", left), ("right", right)]
    if extend:
        graph.vertices, graph.edges = dict(left.graph.vertices), dict(left.graph.edges)
        graph.attachments = list(left.graph.attachments)
        graph._next_vid, graph._next_eid = left.graph._next_vid, left.graph._next_eid
        edge_map.update((("left", eid), eid) for eid in left.graph.edges)
        specials.update(left.special_vertices)
        sides.update(left.sides)
        parts = parts[1:]
    for role, model in parts:
        vmap = {}
        for vid in sorted(model.graph.vertices):
            v = model.graph.vertices[vid]
            vmap[vid] = graph.add_vertex(v.kind, v.ref)
        for eid in sorted(model.graph.edges):
            e = model.graph.edges[eid]
            edge_map[(role, eid)] = graph.add_edge(
                vmap[e.src], vmap[e.dst], e.weight, e.family, e.side, e.span
            )
        for a in model.graph.attachments:
            graph.attach(vmap[a.zero_vertex], vmap[a.special_vertex])
        for side_id, side in model.sides.items():
            sides[side_id] = side.with_circuit(edge_map[(role, eid)] for eid in side.circuit_edges)
        for comp, vid in model.special_vertices.items():
            specials[comp] = vmap[vid]
    return graph, edge_map, specials, sides


def _checking_joins(monkeypatch):
    """Check every join's copy or extension of its inputs against
    reference_copy, and the disk sites it moves against the reference's edge
    map; returns, for each join as it runs, whether it extended its left
    and the left's vertex and edge ids before the join."""
    lefts = []

    def checked(real, spec, left, right, extend, sites):
        graph, ref_edge_map, specials, sides = reference_copy(left, right, extend)
        want_sites = [ref_edge_map[(s.role, s.edge_id)] if s.edge_id is not None else None
                      for s in sites]
        lefts.append((extend, list(left.graph.vertices), list(left.graph.edges)))
        model = real(spec, left, right, extend, sites)
        assert list(model.graph.vertices.items()) == list(graph.vertices.items())
        assert list(model.graph.edges.items()) == list(graph.edges.items())
        assert model.graph.attachments == graph.attachments
        assert (model.graph._next_vid, model.graph._next_eid) == (graph._next_vid, graph._next_eid)
        assert [s.edge_id for s in sites] == want_sites
        assert model.special_vertices == specials
        assert list(model.sides.items()) == list(sides.items())
        return model

    hook_join(monkeypatch, "merge", checked)
    return lefts


def _has_gaps(ids):
    return sorted(ids) != list(range(len(ids)))


MIXED_COMPACT_CHAIN = "[symbols]\n\n[orbifold T]\nbuiltin = torus\n" + "".join(
    f"\n[form w{i}]\non = T\ndtheta = 1\ndphi = 0\n" for i in range(5)
) + "".join(
    f"\n[surgery s{i}]\nkind = {kind}\nleft = {left}\nright = w{i}\nleft_region = {region}\n"
    f"right_region = w{i}.f0\nleft_window = {lw}\nright_window = {rw}\ntube = {tube}\n"
    for i, kind, left, region, lw, rw, tube in [
        (1, "C", "w0", "w0.f0", "1/8 : 3/8", "1/8 : 3/8", "1/4 : 1/4"),
        (2, "C", "s1", "w1.f0:1", "3/8 : 5/8", "3/8 : 5/8", "1/2 : 1/2"),
        (3, "B", "s2", "w2.f0:1", "5/8 : 3/4", "1/8 : 1/4", "11/16 : 3/16"),
        (4, "A", "s3", "w3.f0:1", "1/4 : 1/2", "1/4 : 1/2", "5/16 : 7/16"),
    ]
)


def _kind_c_at_s2(text):
    """A three-join chain with its middle join made kind C at one level."""
    head, tail = text.split("[surgery s2]")
    tail = tail.replace("kind = A", "kind = C", 1).replace("tube = 2/20 : 3/20", "tube = 2/20 : 2/20")
    return f"{head}[surgery s2]{tail}"


# s2, kind C at one level, extends the kind-A join s1 and is not generic; the
# kind-A join s3 reads it
A_C_A_CHAIN = _kind_c_at_s2(surgery_chain("A", 3))


class TestBulkCopy:
    """A join copies its inputs as the per-item loop did, id for id."""

    @pytest.mark.parametrize("kind", ["A", "B", "C"])
    def test_chain_joins_match_the_per_item_copy(self, monkeypatch, kind):
        lefts = _checking_joins(monkeypatch)
        built = build_scenario(parse_scenario(surgery_chain(kind, 6)))
        build_report(built, "surgery")
        assert len(lefts) >= 6
        # the first join copies its left, a form; the next four extend their
        # consumed left in place, and the final join copies
        assert [own for own, _, _ in lefts[:6]] == [False] + [True] * 4 + [False]
        if kind == "A":
            # each kind-A join merges a noncompact component: vertex ids gap
            assert any(_has_gaps(vertices) for _, vertices, _ in lefts)

    def test_catalog_joins_match_the_per_item_copy(self, monkeypatch):
        lefts = _checking_joins(monkeypatch)
        for name in sorted(SCENARIOS):
            build_report(build_scenario(parse_scenario(SCENARIOS[name])), "surgery")
        assert len(lefts) >= 4

    def test_left_models_after_cut_edges_match_the_per_item_copy(self, monkeypatch):
        lefts = _checking_joins(monkeypatch)
        built = build_scenario(parse_scenario(MIXED_COMPACT_CHAIN))
        report = build_report(built, "surgery")
        assert any(_has_gaps(edges) for _, _, edges in lefts)
        assert any(own for own, _, _ in lefts) and not all(own for own, _, _ in lefts)
        # captured with the per-item copy
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "ce1713fa6c9be5c2b5c9ae84ea307d58dbdd905af401da905a2a1b77059ebafc"
        )

    def test_records_whose_ids_stay_are_shared(self):
        model = build_scenario(parse_scenario(surgery_chain("C", 2))).final
        graph = FoliationGraph()
        vmap, emap = graph.absorb(model.graph)
        assert vmap == {v: v for v in model.graph.vertices}
        assert all(graph.vertices[v] is model.graph.vertices[v] for v in vmap)
        assert all(a is b for a, b in zip(graph.attachments, model.graph.attachments))
        # a second copy moves every id, so every record is rebuilt
        vmap, emap = graph.absorb(model.graph)
        assert all(graph.vertices[new] is not model.graph.vertices[old]
                   for old, new in vmap.items())

    # sha256 of the surgery and graph reports and of the DOT, captured
    # with the per-item copy
    PINS = {
        ("C", "surgery"): "853c48e77e215db576768830edff96563c7df2a747969a92b0fa406bd5e51833",
        ("C", "graph"): "4a39246cd48b6e4702e3bf40072fe519fb8bbf89500cf374d725a567eb5ec26f",
        ("C", "dot"): "f2d17f79e2e276e889f7f77e8a5a0ce4655aa370cca658baee7187c87f030ae4",
        ("A", "surgery"): "c108ba16b22b32fe238b35296f186e58e0f0307ed98fe2862f34b0b14c8acdda",
        ("A", "graph"): "18113db42663a136f7ce69b41250f8498fb30d9a7f304ddf716ce524a5ad1445",
        ("A", "dot"): "80ee89b8509c722d39aa8e03a047e8dacb4a908ad74d1fb7f03b53340737b570",
    }

    @pytest.mark.parametrize("kind", ["C", "A"])
    def test_chain_outputs_are_pinned(self, kind):
        built = build_scenario(parse_scenario(surgery_chain(kind, 16)))
        outputs = {
            "surgery": build_report(built, "surgery"),
            "graph": build_report(built, "graph"),
            "dot": built.final.graph.to_dot(),
        }
        for what, text in outputs.items():
            assert hashlib.sha256(text.encode()).hexdigest() == self.PINS[(kind, what)], what


W1_OF_A_ONE_JOIN_CHAIN = "[form w1]\non = Q1\ndtheta = 1*p\ndphi = 1*q\nbasic_override = true\n"


class TestEqualFormsShared:
    """Equal form declarations on one orbifold object are one `ClosedForm`;
    each name keeps its own model."""

    def test_the_forms_of_a_chain_are_one_record(self):
        built = build_scenario(parse_scenario(surgery_chain("C", 2)))
        assert built.forms["w0"] is built.forms["w1"] is built.forms["w2"]
        models = [built.models[name] for name in ("w0", "w1", "w2")]
        assert len({id(m) for m in models}) == 3
        assert [m.name for m in models] == ["w0", "w1", "w2"]
        assert [m.notes[0].split(":")[0] for m in models] == ["w0", "w1", "w2"]
        # every model holds the one record's periods
        assert models[0].sides["w0"].generators is models[2].sides["w2"].generators

    @pytest.mark.parametrize("edit", [
        # w1 gains a bump
        lambda text: text.replace(
            W1_OF_A_ONE_JOIN_CHAIN,
            W1_OF_A_ONE_JOIN_CHAIN + "bump = center 1/4 1/4 radius 1/16 amplitude 1/1000\n"),
        # on the torus both forms are invariant; only w0 declares the override
        lambda text: text.replace("builtin = pillowcase", "builtin = torus").replace(
            W1_OF_A_ONE_JOIN_CHAIN, W1_OF_A_ONE_JOIN_CHAIN.replace("basic_override = true\n", "")),
        # two custom orbifolds with the same element: equal, but two objects
        lambda text: text.replace("builtin = pillowcase", "element = -1 0 0 -1 ; 0 0"),
    ], ids=["bumps", "basic_override", "custom-orbifold"])
    def test_forms_declared_differently_are_not_shared(self, edit):
        text = edit(surgery_chain("C", 1))
        assert text != surgery_chain("C", 1)
        built = build_scenario(parse_scenario(text))
        w0, w1 = built.forms["w0"], built.forms["w1"]
        assert w0 is not w1
        assert w0.orbifold is built.presentations["Q0"]
        assert w1.orbifold is built.presentations["Q1"]
        periods = [built.models[name].sides[name].generators for name in ("w0", "w1")]
        assert periods[0] is not periods[1]

    @pytest.mark.parametrize("source", [*(f"catalog-{name}" for name in sorted(SCENARIOS)),
                                        *(f"chain-{kind}" for kind in "ABC")])
    def test_each_form_model_is_the_one_analyze_builds(self, source):
        # the checks run once per form; each name's model is analyze's, item for item
        kind, _, which = source.partition("-")
        texts = ([SCENARIOS[which]] if kind == "catalog"
                 else [surgery_chain(which, n) for n in range(1, 9)])
        for text in texts:
            built = build_scenario(parse_scenario(text))
            assert list(built.models)[:len(built.forms)] == list(built.forms)
            for name, form in built.forms.items():
                model, alone = built.models[name], analyze(form, name)
                assert model is not alone
                assert _snapshot(model) == _snapshot(alone), name
                assert (model.form, model.decomposition) == (alone.form, alone.decomposition)

    def test_an_equal_form_without_its_override_exits_two_naming_the_first(self, tmp_path,
                                                                          capsys):
        path = tmp_path / "not_basic.scn"
        path.write_text(surgery_chain("C", 1).replace("basic_override = true\n", ""))
        assert cli.main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        assert "w0: form is not invariant under the action and no override is declared" in err
        assert "w1" not in err and "Traceback" not in err


# single-form scenarios beside the catalog's: a bumped form, a form on an
# orbifold declared by its element, and a non-invariant form under the
# declared-basic override
FORM_MODEL_EXTRAS = [
    f"[symbols]\np = {PI}\nq = {SQRT2}\n" + body for body in (
        "[orbifold T]\nbuiltin = torus\n[form bumped]\non = T\ndtheta = 1\ndphi = 2\n"
        "bump = center 1/4 1/4 radius 1/16 amplitude 1/1000\n",
        "[orbifold E]\nelement = 1 0 0 1 ; 1/2 0\n[form translated]\non = E\n"
        "dtheta = 1*p\ndphi = 1*q\n",
        "[orbifold Q]\nbuiltin = pillowcase\n[form overridden]\non = Q\ndtheta = 1\n"
        "dphi = 3\nbasic_override = true\n",
    )
]


class TestFormModelsBuiltFinished:
    """analyze sets a form model's catalog and decomposition as it builds it,
    without finish."""

    def test_analyze_sets_what_finish_builds(self, monkeypatch):
        # finish, run on a copy with both cleared, builds the same catalog
        # and decomposition, and finds the graph connected
        ranks = Counter()

        def checked(real, form, name):
            model = real(form, name)
            assert model.catalog is not None and model.decomposition is not None
            again = refinished(model)
            assert (model.catalog, model.decomposition) == (again.catalog, again.decomposition)
            assert model.graph.underlying_connected(), name
            ranks[form.structure.rank] += 1
            return model

        hook_join(monkeypatch, "analyze", checked)
        # only the forms are checked, so no scenario joins them
        hook_join(monkeypatch, "build", lambda real, *args: None)
        texts = [SCENARIOS[name] for name in sorted(SCENARIOS)] + FORM_MODEL_EXTRAS
        texts += [surgery_chain(kind, n) for kind in "ABC" for n in range(1, 5)]
        for text in texts + surgery_trees():
            build_scenario(parse_scenario(text))
        assert ranks == {1: 282, 2: 121}

    def test_the_models_of_one_form_share_its_periods_record(self):
        built = build_scenario(parse_scenario(surgery_chain("A", 3)))
        form = built.forms["w0"]
        for name in ("w0", "w1", "w2", "w3"):
            model = built.models[name]
            assert model.x_inf_periods[f"{name}.inf"] is form.periods
            assert model.sides[name].witness_gens is form.witness_gens
            assert model.decomposition.component_periods == ((f"{name}.inf", form.periods),)


class TestJoinCost:
    """A join does only the work its inputs need; every check still runs."""

    def test_building_a_kind_c_chain_ranks_each_distinct_form_once(self, monkeypatch):
        # the 9 equal forms are one record, which decides its structure,
        # rank included, once
        calls = _counting(monkeypatch, forms, "LinearStructure")
        build_scenario(parse_scenario(surgery_chain("C", 8)))
        assert len(calls) == 1

    def test_a_kind_c_chain_integrates_the_loops_of_each_distinct_form_once(self, monkeypatch):
        calls = _counting(monkeypatch, forms, "g_path_integral")
        built = build_scenario(parse_scenario(surgery_chain("C", 8)))
        assert len(calls) == len(BUILTIN_ORBIFOLDS["pillowcase"].generators) == 3
        # the report reads the kept periods and their rank
        assert "w8: " in build_report(built, "surgery")
        assert len(calls) == 3

    def test_a_kind_a_chain_reduces_only_distinct_periods(self, monkeypatch):
        calls = _counting(monkeypatch, scalar, "hermite_normal_form")
        built = build_scenario(parse_scenario(surgery_chain("A", 16)))
        assert "transitive: yes" in build_report(built, "surgery")
        assert calls and max(len(rows) for (rows,) in calls) == 3

    def test_a_kind_a_chain_builds_one_genericity_lattice(self, monkeypatch):
        # each join asks whether its band lies in the merged component's
        # lattice; the merges add no period, so w0.inf keeps its record and
        # the lattice built at the first join
        calls = _counting(monkeypatch, scalar.Lattice, "__init__")
        built = build_scenario(parse_scenario(surgery_chain("A", 8)))
        assert len(calls) == 1
        periods = built.final.x_inf_periods["w0.inf"]
        assert periods is built.models["w0"].x_inf_periods["w0.inf"]
        assert calls[0][0] is periods.lattice
        assert "transitive: yes" in build_report(built, "surgery")
        assert len(calls) == 1

    def test_a_wrapping_kind_a_join_builds_its_own_lattice(self, monkeypatch):
        # pillowcase-ex4's tube 0 : 23/8 wraps both sides, of circumferences
        # 1 and a, which join the new component's periods in its lattice
        calls = _counting(monkeypatch, scalar.Lattice, "__init__")
        built = build_scenario(parse_scenario(SCENARIOS["pillowcase-ex4"]))
        assert len(calls) == 1
        (_, gens), = calls
        circles = [built.models[name].sides[name].circumference for name in ("wL", "wR")]
        periods = built.final.x_inf_periods["ex4.inf"]
        assert gens == [*circles, *periods]
        assert "lattice" not in vars(periods)

    def test_a_kind_c_report_sums_each_shifted_level_once(self, monkeypatch):
        # genericize sums each zero's shifted level once per attempt, and
        # the rebuild reads those levels by zero id
        built = build_scenario(parse_scenario(surgery_chain("C", 8)))
        attempts = _counting(monkeypatch, surgery, "_levels_admissible")
        rationals = _counting(monkeypatch, scalar.SymbolTable, "rational")
        assert "transitive: no" in build_report(built, "surgery")
        assert len(built.final.zeros) == 16 and len(attempts) == 1
        assert len(rationals) == 16 * len(attempts)

    def test_every_model_built_is_decomposed_once(self, monkeypatch):
        decomposed = _counting(monkeypatch, surgery, "decompose")
        finished = []
        real_finish = surgery.FoliationModel.finish

        def counted_finish(self):
            finished.append(self)
            return real_finish(self)

        monkeypatch.setattr(surgery.FoliationModel, "finish", counted_finish)
        n = 8
        built = build_scenario(parse_scenario(surgery_chain("C", n)))
        build_report(built, "surgery")
        # the final join and one genericized companion; analyze builds the
        # n + 1 form models finished, and the n - 1 intermediate joins and
        # the companion's rejoins stay unfinished
        assert len(finished) == 2
        assert [m for (m,) in decomposed] == finished
        for name in built.forms:
            model = built.models[name]
            assert model.decomposition == refinished(model).decomposition

    def test_decomposition_checks_reach_intermediate_models(self, monkeypatch):
        # a catalog fault planted in the first join's output, which is never
        # finished itself, reaches the final model's checks
        def faulty(real, spec, *args):
            model = real(spec, *args)
            if spec.name == "s1":
                model.singular_entries.append(model.singular_entries[0])
            return model

        hook_join(monkeypatch, "join", faulty)
        with pytest.raises(scalar.FoliageError, match="duplicate leaf ids"):
            build_scenario(parse_scenario(surgery_chain("C", 4)))

    def test_ranks_read_from_threads_agree(self):
        model = build_scenario(parse_scenario(surgery_chain("C", 8))).final
        d = model.decomposition
        assert "restricted_ranks" not in vars(d)  # not read yet

        def read(_):
            return d.restricted_ranks, d.flags

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(read, range(4)))
        finally:
            sys.setswitchinterval(saved)
        assert answers == [answers[0]] * 4
        ranks, flags = answers[0]
        assert ranks == tuple((cid, 2) for cid, _ in d.x_inf_components)
        assert flags == ()


class TestLongChains:
    def test_a_long_kind_c_chain_reports_without_recursing(self):
        text = surgery_chain("C", 150)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            report = build_report(build_scenario(parse_scenario(text)), "transitivity")
        finally:
            sys.setrecursionlimit(saved)
        assert "transitive: no" in report


def reference_rebuild(model, shifts):
    """The companion rebuild as it stood before rejoins stayed unfinished:
    the spec tree walked with its own stack, inputs before their join and
    left before right, and every rejoin, the pinched kind-C ones included,
    finished as a model, each at its level plus its shift.  Kept as the
    oracle of the companion rebuild (JOIN_STEPS["rebuild"])."""
    rebuilt = []
    todo = [(model.spec, False)]
    while todo:
        node, inputs_done = todo.pop()
        if isinstance(node, FoliationModel):
            rebuilt.append(node)
        elif not inputs_done:
            todo += [(node, True), (node.right, False), (node.left, False)]
        else:
            right = rebuilt.pop()
            left = rebuilt.pop()
            rebuilt.append(_reference_rejoin(node, left, right, shifts))
    return rebuilt.pop()


def _reference_rejoin(spec, left, right, shifts):
    table = left.table
    sx = table.rational(shifts.get(f"{spec.name}.x", Fraction(0)))
    sy = table.rational(shifts.get(f"{spec.name}.y", Fraction(0)))
    lx, ly = levels = (spec.tube_levels[0] + sx, spec.tube_levels[1] + sy)
    spec = spec._replace(left=left, right=right, tube_levels=levels)
    if spec.kind != "C" or (lx - ly).is_zero():
        return connected_sum(spec)
    try:
        lsite, rsite = sites = join_step("sites")(spec, left, right)
        model = join_step("merge")(spec, left, right, False, sites)
        x, y = (lsite, lx, f"{spec.name}.x"), (rsite, ly, f"{spec.name}.y")
        join_step("apply pinch")(model, *((x, y) if scalar.sign(ly - lx) > 0 else (y, x)))
    except ModelError as err:  # a join's refusal names its surgery
        raise type(err)(f"surgery {spec.name!r}: {err}") from None
    model.put_side(Side(spec.name, "tube", (), None))
    model.is_generic = True
    return model.finish()


def _items(model):
    g = model.graph
    return {
        "vertices": list(g.vertices.items()),
        "edges": list(g.edges.items()),
        "attachments": g.attachments,
        "next ids": (g._next_vid, g._next_eid),
        "sides": list(model.sides.items()),
        "zeros": model.zeros,
        "catalog": model.catalog,
        "notes": model.notes,
        "is_generic": model.is_generic,
    }


def _outcome(build):
    try:
        return _items(build())
    except ModelError as err:
        return ("ModelError", str(err))


def _first_shifts(model):
    """The level shifts of genericize's first attempt."""
    zero_ids = sorted(z.zero_id for z in model.zeros)
    return {zid: Fraction(j, 7) for j, zid in enumerate(zero_ids)}


def _shifted_levels(model, shifts):
    """Each zero's level moved by its shift, by zero id, as genericize
    hands them to the rebuild."""
    return {zid: level + model.table.rational(shifts[zid])
            for zid, level in model.singular_levels()}


REBUILD_SOURCES = {
    **{f"chain-{kind}": surgery_chain(kind, 6) for kind in "ABC"},
    "mixed-compact-chain": MIXED_COMPACT_CHAIN,
    **{f"catalog-{name}": SCENARIOS[name] for name in sorted(SCENARIOS)},
}


def reference_build(text):
    """build_scenario with the joins built one at a time: each join copies
    both inputs, and each join output is finished and kept in models, in
    scenario order.  A companion's rebuild is left as it is.  Kept as the
    oracle of the consume-or-keep rule."""

    def every_join(real, models, specs, levels=None):
        if levels is not None:
            return real(models, specs, levels)
        for spec in specs:
            model = real(models, [spec])
        return model

    with pytest.MonkeyPatch.context() as patched:
        hook_join(patched, "build", every_join)
        return build_scenario(parse_scenario(text))


def _reference_rebuild_step(real, model, levels):
    # the oracle sums its own shifts: each is the rational part its zero moved
    shifts = {zid: (levels[zid] - level).coefficient(0) for zid, level in model.singular_levels()}
    return reference_rebuild(model, shifts)


def reference_companion(model):
    """genericize through reference_rebuild, every rejoin copied and finished."""
    with pytest.MonkeyPatch.context() as patched:
        hook_join(patched, "rebuild", _reference_rebuild_step)
        return genericize(model)


class TestCompanionRebuild:
    """Rejoins that stay unfinished rebuild the companion item for item as
    rejoins that were each finished did."""

    @pytest.mark.parametrize("source", sorted(REBUILD_SOURCES))
    def test_companion_matches_the_reference(self, monkeypatch, source):
        # every join output of the scenario, the consumed ones included
        built = reference_build(REBUILD_SOURCES[source])
        for model in built.models.values():
            if model.spec is None:
                continue
            shifts = _first_shifts(model)
            new = _outcome(lambda: join_step("rebuild")(model, _shifted_levels(model, shifts)))
            assert new == _outcome(lambda: reference_rebuild(model, shifts)), model.name
            if model.is_generic:
                continue
            companion = _items(genericize(model))
            assert companion == _items(reference_companion(model)), model.name

    def test_a_fault_in_a_rebuilt_join_reaches_the_companion_checks(self, monkeypatch):
        # the first rejoin plants a duplicate leaf; only the companion is
        # checked, and it carries the fault
        model = build_scenario(parse_scenario(surgery_chain("C", 4))).final

        def faulty(real, spec, *args):
            ws = real(spec, *args)
            if spec.name == "s1":
                ws.singular_entries.append(ws.singular_entries[0])
            return ws

        hook_join(monkeypatch, "join", faulty)
        with pytest.raises(scalar.FoliageError, match="duplicate leaf ids"):
            genericize(model)


def _finished(model):
    return model if model.decomposition is not None else model.finish()


def _capturing_joins(monkeypatch):
    """Every kind-A join applied, finished or not, in the order applied, as
    facts read when it is made, before a later join extends it: whether the
    lemma below covers it (checked here where it does), whether verdicts
    finds a nontransitive input, whether it is not generic, whether its
    right input is surgered, and whether it wrapped a side.

    The lemma: a generic kind-A join of generic transitive inputs has a
    Calabi graph.  Each cut turns an edge u -> w into u -> Zx, Zy -> w; the
    removed mid bands come back as the fused edge Zx -> Zy or as two-way
    attachments of Zx and Zy to one special vertex; merging special
    vertices contracts; and a wrapped side is always a whole virgin input,
    replaced by the new component's special vertex.  A generic model is its
    own companion, so its verdict is the Calabi test on its own graph."""
    joins, wraps = [], []

    def wrapped(real, model, side_id):
        wraps.append(side_id)
        return real(model, side_id)

    def captured(real, spec, left, right, extend, apply):
        if spec.kind != "A":
            return real(spec, left, right, extend, apply)
        inputs = [(m.is_generic, verdicts(_finished(m)).transitive) for m in (left, right)]
        surgered_right = right.spec is not None
        before = len(wraps)
        ws = real(spec, left, right, extend, apply)
        lemma = ws.is_generic and all(generic and transitive for generic, transitive in inputs)
        if lemma:
            assert is_calabi(genericize(ws).graph) is True, ws.name
        nontransitive = not all(transitive for _, transitive in inputs)
        joins.append((lemma, nontransitive, not ws.is_generic, surgered_right,
                      len(wraps) > before))
        return ws

    hook_join(monkeypatch, "wrap", wrapped)
    hook_join(monkeypatch, "join", captured)
    return joins


def _count_kind_a_joins(joins):
    """How many kind-A joins there were, and how many the lemma covers, had
    a nontransitive input, were not generic, had a surgered right input, and
    wrapped a side."""
    return (len(joins), *(sum(column) for column in zip(*joins)))


def _random_virgin(table, rng, name):
    shape = rng.choice(["compact", "compact", "dense", "pillowcase"])
    if shape == "compact":
        a, b = rng.choice([(1, 0), (2, 3), (0, 1), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(2, 3))])
        return torus_model(table, a, b, name)
    if shape == "dense":
        return torus_model(table, "p", "q", name)
    return pillowcase_dense(table, name)


def _nontransitive_start(table, prefix):
    """A kind-B join of two compact tori: nontransitive, not a kind-A join."""
    return connected_sum(SurgerySpec(
        "B", torus_model(table, 1, 0, f"{prefix}m1"), torus_model(table, 2, 3, f"{prefix}m2"),
        left_window=(r(table, "1/8"), r(table, "3/8")),
        right_window=(r(table, "5/8"), r(table, "7/8")),
        tube_levels=(r(table, "3/4"), r(table, "1/4")),
        name=f"{prefix}b",
    ))


def _random_kind_a_spec(table, rng, left, right, name):
    """A kind-A spec at random regions of both inputs.  The windows sit inside
    the left region's family, or anywhere on a noncompact one; a long tube
    wraps a compact virgin side, and a whole-number band then lies in the
    period lattice, so the join is not generic."""
    regions = [[e.family for e in m.graph.edges.values()] + sorted(m.x_inf_periods)
               for m in (left, right)]
    lreg, rreg = (rng.choice(sorted(rs)) for rs in regions)
    if rng.random() < 0.3:
        band = rng.choice([Fraction(5, 2), Fraction(3), Fraction(3)])
        window = (r(table, 0), r(table, 4))
        tube = (r(table, Fraction(1, 4)), r(table, Fraction(1, 4) + band))
    else:
        lo, hi = Fraction(0), Fraction(1)
        for e in left.graph.edges.values():
            if e.family == lreg:
                lo, hi = e.span[0].value(), e.span[1].value()
        a, b = sorted(rng.sample(range(1, 16), 2))
        w_lo, w_hi = lo + (hi - lo) * Fraction(a, 16), lo + (hi - lo) * Fraction(b, 16)
        x, y = sorted(rng.sample(range(1, 8), 2))
        window = (r(table, w_lo), r(table, w_hi))
        tube = tuple(r(table, w_lo + (w_hi - w_lo) * Fraction(k, 8)) for k in (x, y))
    return SurgerySpec(
        "A", left, right, left_window=window, right_window=window, tube_levels=tube,
        left_region=lreg, right_region=rreg, name=name,
    )


# kind-A joins, joins the lemma covers, joins with a nontransitive input,
# nongeneric joins, surgered right inputs and wrapping joins: the lemma covers
# every A join of the catalog and the A chains; the mixed chain's s4 (built,
# and rejoined in its companion) takes the nontransitive kind-B s3 as input
CATALOG_KIND_A_COUNTS = (15, 13, 2, 1, 0, 1)


class TestKindALemma:
    """Over the catalog, the A chains, the mixed chain and random kind-A
    trees, every kind-A join the lemma covers has a Calabi graph; the inputs
    are decided by verdicts here, and no join decides them itself."""

    def test_catalog_chains_and_mixed_joins(self, monkeypatch):
        joins = _capturing_joins(monkeypatch)
        texts = [SCENARIOS[name] for name in sorted(SCENARIOS)]
        texts += [surgery_chain("A", n) for n in (1, 2, 8)] + [MIXED_COMPACT_CHAIN]
        for text in texts:
            build_report(build_scenario(parse_scenario(text)), "surgery")
        assert _count_kind_a_joins(joins) == CATALOG_KIND_A_COUNTS

    def test_random_kind_a_joins(self, monkeypatch, table):
        joins = _capturing_joins(monkeypatch)
        rng = random.Random(8128)
        for tree in range(16):
            if tree % 4 == 3:
                current = _nontransitive_start(table, f"t{tree}")
            else:
                current = _random_virgin(table, rng, f"t{tree}v0")
            for step in range(1, 6):
                right = _random_virgin(table, rng, f"t{tree}v{step}")
                if step > 1 and rng.random() < 0.3:
                    # a surgered right input: a kind-A join of two virgins
                    pair = [_random_virgin(table, rng, f"t{tree}u{step}{i}") for i in "ab"]
                    try:
                        right = connected_sum(_random_kind_a_spec(table, rng, *pair, f"t{tree}r{step}"))
                    except ModelError:
                        pass
                try:
                    current = connected_sum(
                        _random_kind_a_spec(table, rng, current, right, f"t{tree}s{step}")
                    )
                except ModelError:
                    continue
        kind_a, lemma, nontransitive, nongeneric, surgered, wrapping = _count_kind_a_joins(joins)
        assert kind_a >= 60 and lemma >= 40 and nontransitive >= 5
        assert nongeneric >= 1 and surgered >= 1 and wrapping >= 1

    def test_a_nontransitive_kind_b_input_is_left_to_the_graph(self, monkeypatch, table):
        joins = _capturing_joins(monkeypatch)
        nontransitive = connected_sum(SurgerySpec(
            "B", torus_model(table, 1, 0, "m1"), torus_model(table, 2, 3, "m2"),
            left_window=(r(table, "1/8"), r(table, "3/8")),
            right_window=(r(table, "5/8"), r(table, "7/8")),
            tube_levels=(r(table, "3/4"), r(table, "1/4")),
            name="bsum",
        ))
        model = connected_sum(SurgerySpec(
            "A", nontransitive, pillowcase_dense(table, "pd"),
            left_window=(r(table, "5/16"), r(table, "11/16")),
            right_window=(r(table, "5/16"), r(table, "11/16")),
            tube_levels=(r(table, "3/8"), r(table, "5/8")),
            left_region="bsum.chain",
            name="amix",
        ))
        assert _count_kind_a_joins(joins) == (1, 0, 1, 0, 0, 0)
        # generic, so the Calabi test on its own graph decides it
        assert model.is_generic and verdicts(model).companion is model
        assert (verdicts(model).calabi, verdicts(model).transitive) == (False, False)
        assert not any("transitiv" in note for note in model.notes)


def _prefix(text, last):
    """The scenario up to the surgery named last, which is then its final
    model: a join output a later join would have consumed, kept."""
    return text[:text.index("[surgery ", text.index(f"[surgery {last}]") + 1)]


# a kind-A join of a compact cut side and a noncompact component, then a join
# on the cut side's remaining family
COMPACT_THEN_NONCOMPACT = """[symbols]
p = 3.14159265358979323846264338327950288420
q = 1.41421356237309504880168872420969807857
[orbifold T]
builtin = torus
[orbifold Q]
builtin = pillowcase
[form w0]
on = T
dtheta = 1
dphi = 0
[form w1]
on = Q
dtheta = 1*p
dphi = 1*q
basic_override = true
[form w2]
on = T
dtheta = 1
dphi = 0
[surgery s1]
kind = A
left = w0
right = w1
left_region = w0.f0
right_region = w1.inf
left_window = 1/8 : 3/8
right_window = 1/8 : 3/8
tube = 3/16 : 5/16
[surgery s2]
kind = A
left = s1
right = w2
left_region = w0.f0:2
right_region = w2.f0
left_window = 1/2 : 3/4
right_window = 1/2 : 3/4
tube = 9/16 : 5/8
"""


class TestNoncompactBand:
    def test_the_band_leaves_its_side_circle(self):
        # the band between the tube levels goes noncompact, so it leaves the
        # side's circle as it leaves the graph, and a later join copies the side
        s1 = build_scenario(parse_scenario(_prefix(COMPACT_THEN_NONCOMPACT, "s1"))).final
        built = build_scenario(parse_scenario(COMPACT_THEN_NONCOMPACT))
        side = s1.sides["w0"]
        assert side.circuit_edges and set(side.circuit_edges) <= set(s1.graph.edges)
        assert "transitive: yes" in build_report(built, "transitivity")


class TestKindAChainCost:
    def test_a_kind_a_chain_decides_one_calabi_graph(self, monkeypatch):
        calabi = _counting(monkeypatch, surgery, "is_calabi")
        passes = _counting(monkeypatch, FoliationGraph, "underlying_connected")
        constructed = []
        real_init = surgery.FoliationModel.__init__

        def counted_init(self, *args, **kwargs):
            constructed.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(surgery.FoliationModel, "__init__", counted_init)
        built = build_scenario(parse_scenario(surgery_chain("A", 16)))
        assert "transitive: yes" in build_report(built, "surgery")
        # 17 forms and 16 joins: s1 and the final join make a record each,
        # and s2 to s15 extend s1's in place; the final join is checked once,
        # analyze builds each form's model finished, of one vertex, and the
        # report's Calabi test reaches every vertex both ways, so it needs
        # no pass
        assert len(constructed) == 19
        assert len(passes) == 1
        assert len(calabi) == 1
        for name in built.forms:
            model = built.models[name]
            assert len(model.graph.vertices) == 1
            assert model.decomposition == refinished(model).decomposition


# s1's kind-A fused edge lies on the circuits of both sides it joined, w4 and
# w0; the kind-B join s2 then cuts it
FUSED_THEN_CUT = """[symbols]
p = 3.14159265358979323846264338327950288420
[orbifold T]
builtin = torus
[orbifold Q]
builtin = pillowcase
[form w0]
on = T
dtheta = 2
dphi = 3
[form w1]
on = T
dtheta = 1*p
dphi = 2*p
[form w4]
on = Q
dtheta = 0
dphi = 1
basic_override = true
[surgery s1]
kind = A
left = w4
right = w0
left_region = w4.f0
right_region = w0.f0
left_window = 7/16 : 9/16
right_window = 7/16 : 9/16
tube = 15/32 : 33/64
[surgery s2]
kind = B
left = w1
right = s1
left_region = w1.f0
right_region = s1.fused
left_window = 11/8 : 2
right_window = 15/32 : 31/64
tube = 27/16 : 61/128
"""


class TestFusedEdgeCut:
    def test_cutting_a_fused_edge_rewrites_both_circuits(self):
        s1 = build_scenario(parse_scenario(_prefix(FUSED_THEN_CUT, "s1"))).final
        fused = next(e.eid for e in s1.graph.edges.values() if e.family == "s1.fused")
        assert [s.side_id for s in s1.sides.values() if fused in s.circuit_edges] == ["w4", "w0"]
        built = build_scenario(parse_scenario(FUSED_THEN_CUT))
        final = built.final
        for side in final.sides.values():
            assert set(side.circuit_edges) <= set(final.graph.edges)
        report = build_report(built, "surgery")
        assert report.count("[ok]") == 6 and "MISMATCH" not in report


# s1 merges m3.inf into m2.inf, and s2 merges m2.inf into m1.inf: the merge
# keeps the smallest id
MERGED_TWICE = """[symbols]
p = 3.14159265358979323846264338327950288420
q = 1.41421356237309504880168872420969807857
[orbifold T]
builtin = torus
[form m1]
on = T
dtheta = 1*p
dphi = 1*q
[form m2]
on = T
dtheta = 1*q
dphi = 1*p
[form m3]
on = T
dtheta = 1
dphi = 1*q
[form w]
on = T
dtheta = 2
dphi = 3
[surgery s1]
kind = A
left = m2
right = m3
left_region = m2.inf
right_region = m3.inf
left_window = 0 : 4
right_window = 0 : 4
tube = 1/4 : 13/4
[surgery s2]
kind = A
left = s1
right = m1
left_region = m2.inf
right_region = m1.inf
left_window = 0 : 4
right_window = 0 : 4
tube = 1/2 : 7/2
[surgery s3]
kind = C
left = w
right = s2
left_region = w.f0
right_region = m1.inf
left_window = 5/16 : 7/16
right_window = 5/16 : 7/16
tube = 11/32 : 11/32
"""


class TestMergedComponentNames:
    @staticmethod
    def _built(region):
        text = MERGED_TWICE.replace("right_region = m1.inf\nleft_window = 5/16",
                                    f"right_region = {region}\nleft_window = 5/16")
        return build_scenario(parse_scenario(text))

    def test_absorbed_ids_name_the_component_they_merged_into(self):
        s2 = build_scenario(parse_scenario(_prefix(MERGED_TWICE, "s2"))).final
        assert s2.merged_into == {"m3.inf": "m2.inf", "m2.inf": "m1.inf"}
        survivor = self._built("m1.inf")
        assert sorted(survivor.final.x_inf_periods) == ["m1.inf"]
        verdict_lines = test_scenarios.TestDeclarationInvariance._verdict_lines
        lines = verdict_lines(survivor.scenario)
        for region in ("m2.inf", "m3.inf"):
            built = self._built(region)
            assert verdict_lines(built.scenario) == lines
            # the zero's side still comes from the name as written
            assert built.final.zeros[-1].side == region.split(".")[0]

    def test_a_merge_leaves_its_inputs_unchanged(self):
        # s1 is the final model of the prefix, kept; s2 is joined to it as
        # the scenario joins it
        built = build_scenario(parse_scenario(_prefix(MERGED_TWICE, "s1")))
        s1, m1, table = built.models["s1"], built.models["m1"], built.table
        s2 = connected_sum(SurgerySpec(
            "A", s1, m1, left_window=(r(table, 0), r(table, 4)),
            right_window=(r(table, 0), r(table, 4)),
            tube_levels=(r(table, "1/2"), r(table, "7/2")),
            left_region="m2.inf", right_region="m1.inf", name="s2",
        ))
        assert s2.merged_into == {"m3.inf": "m2.inf", "m2.inf": "m1.inf"}
        assert s1.merged_into == {"m3.inf": "m2.inf"}
        assert m1.merged_into == {}
        # the joined input is named by its spec, the form's model as itself
        assert s2.spec.left is s1.spec and s2.spec.right is m1


def reference_locate_window(window, span, modulus):
    lo, hi = window
    s_lo, s_hi = span
    shift = lo.table.zero()
    if modulus is not None:
        shift = modulus * -((lo.value() - s_lo.value()) // modulus.value())
    if scalar.sign(lo + shift - s_lo) >= 0 and scalar.sign(s_hi - (hi + shift)) >= 0:
        return shift
    return None


LEVEL_TABLE = scalar.SymbolTable([("p", PI), ("q", SQRT2)])
level_values = st.builds(
    lambda a, b, c: LEVEL_TABLE.combination([(a, "one"), (b, "p"), (c, "q")]),
    *[st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6)] * 3,
)


def _outcome_of(reduce, *args):
    try:
        return reduce(*args)
    except (ModelError, ZeroDivisionError) as err:
        return type(err).__name__


class TestIntegerFloorQuotients:
    @given(lo=level_values, width=level_values, s_lo=level_values, s_width=level_values,
           modulus=st.one_of(st.none(), level_values))
    def test_locate_window_matches_the_fraction_formula(self, lo, width, s_lo, s_width,
                                                        modulus):
        args = ((lo, lo + width), (s_lo, s_lo + s_width), modulus)
        assert _outcome_of(surgery._locate_window, *args) == _outcome_of(
            reference_locate_window, *args)


def _snapshot(model):
    """Every item of a model, copied out of its lists and dicts."""
    items = {key: list(value) if isinstance(value, list) else value
             for key, value in _items(model).items()}
    items.update(periods=dict(model.x_inf_periods), specials=dict(model.special_vertices),
                 merged=dict(model.merged_into), entries=list(model.singular_entries))
    return items


def _copied_records(monkeypatch):
    """A running count of the records joins copy: the vertices, edges and
    sides of every model absorbed into another."""
    counted = [0]
    real = surgery.FoliationModel.absorb

    def counting(model, part):
        counted[0] += len(part.graph.vertices) + len(part.graph.edges) + len(part.sides)
        return real(model, part)

    monkeypatch.setattr(surgery.FoliationModel, "absorb", counting)
    return counted


class TestTakeOver:
    """A join output that only one later join reads is extended by it or
    copied, and every model a caller holds comes out as the copy-everything
    build makes it."""

    @pytest.mark.parametrize("kind", ["C", "A"])
    def test_the_records_copied_grow_linearly(self, monkeypatch, kind):
        counted = _copied_records(monkeypatch)
        counts = []
        for n in (32, 64):
            counted[0] = 0
            build_report(build_scenario(parse_scenario(surgery_chain(kind, n))), "surgery")
            counts.append(counted[0])
        assert counts[1] <= 2.2 * counts[0], counts

    @pytest.mark.parametrize("source", [
        *(f"chain-{kind}-{n}" for kind in "ABC" for n in (1, 2, 9)),
        *(f"catalog-{name}" for name in sorted(SCENARIOS)),
        "mixed-compact-chain", "a-c-a-chain", "trees",
    ])
    def test_final_models_and_companions_match_the_reference_build(self, source):
        if source == "trees":
            texts = surgery_trees()
        elif source.startswith("chain-"):
            _, kind, n = source.split("-")
            texts = [surgery_chain(kind, int(n))]
        elif source.startswith("catalog-"):
            texts = [SCENARIOS[source.split("-", 1)[1]]]
        elif source == "a-c-a-chain":
            texts = [A_C_A_CHAIN]
        else:
            texts = [MIXED_COMPACT_CHAIN]
        # each build has its own symbol table, so items compare as text
        for text in texts:
            new = _outcome(lambda: build_scenario(parse_scenario(text)).final)
            old = _outcome(lambda: reference_build(text).final)
            assert repr(new) == repr(old)
            if isinstance(new, tuple):  # both refused the scenario alike
                continue
            final = build_scenario(parse_scenario(text)).final
            reference = reference_build(text).final
            assert repr(_outcome(lambda: verdicts(final).companion)) == repr(_outcome(
                lambda: reference_companion(reference)))

    @pytest.mark.parametrize("kind", ["A", "B", "C"])
    def test_kept_models_and_held_inputs_are_unchanged_by_the_verdicts(self, kind):
        # s9 and s10 both read s8, s11 reads s9, and nothing reads s10
        text = surgery_chain(kind, 8) + "".join(
            f"[form x{i}]\non = Q0\ndtheta = 1*p\ndphi = 1*q\nbasic_override = true\n"
            f"[surgery s{i}]\nkind = C\nleft = {left}\nright = x{i}\nleft_region = w0.inf\n"
            f"right_region = x{i}.inf\nleft_window = 0 : 1\nright_window = 0 : 1\n"
            f"tube = {i}/32 : {i}/32\n"
            for i, left in ((9, "s8"), (10, "s8"), (11, "s9")))
        built = build_scenario(parse_scenario(text))
        # the forms, s8 (read twice), s10 (read by nothing) and the final s11
        assert sorted(built.models) == sorted(
            [f"w{i}" for i in range(9)] + ["x9", "x10", "x11", "s8", "s10", "s11"])
        held = {id(m): m for m in built.models.values()}
        for model in list(held.values()):
            held.update((id(m), m) for m in spec_tree_nodes(model)
                        if isinstance(m, FoliationModel))
        before = {key: _snapshot(m) for key, m in held.items()}
        for command in cli.COMMANDS:
            if command not in ("examples", "trace"):
                build_report(built, command)
        for model in built.models.values():
            verdicts(model)
        assert {key: _snapshot(m) for key, m in held.items()} == before

    def test_a_consumed_model_is_the_next_joins_record(self, monkeypatch):
        records = {}

        def recorded(real, spec, *args):
            records[spec.name] = real(spec, *args)
            return records[spec.name]

        hook_join(monkeypatch, "join", recorded)
        final = build_scenario(parse_scenario(surgery_chain("C", 4))).final
        # s1 copies its left, the form w0, into a record that s2 and then s3
        # extend in place; the final join copies its left, s3
        s3 = records["s3"]
        assert records["s1"] is records["s2"] is s3 is not final is records["s4"]
        assert s3.name == "s3" and s3.graph.vertices and s3.decomposition is None
        # the final model names s3 by its spec, and s3 names s2 by its own
        assert s3.spec is final.spec.left
        assert isinstance(s3.spec.left, SurgerySpec) and s3.spec.left.name == "s2"
        assert s3.spec.left.left.name == "s1" and s3.spec.left.left.left.name == "w0"


class TestPlainSpecTrees:
    """A spec names a joined input by its spec: the tree under a kept model
    or a companion holds specs and virgin models only."""

    @staticmethod
    def _checked(text):
        try:
            built = build_scenario(parse_scenario(text))
        except scalar.FoliageError:
            return 0
        checked = 0
        for model in built.models.values():
            try:
                companion = verdicts(model).companion
            except scalar.FoliageError:
                companion = None
            for held in (model, companion):
                if held is None:
                    continue
                for node in spec_tree_nodes(held):
                    if isinstance(node, FoliationModel):
                        assert node.spec is None and node.form is not None, node.name
                        assert node.decomposition is not None, node.name
                    else:
                        assert isinstance(node, SurgerySpec), node
                        checked += 1
        return checked

    @pytest.mark.parametrize("source", ["catalog", "chains", "trees"])
    def test_spec_trees_hold_no_joined_model(self, source):
        if source == "catalog":
            texts = [SCENARIOS[name] for name in sorted(SCENARIOS)] + [MIXED_COMPACT_CHAIN]
        elif source == "chains":
            texts = [surgery_chain(kind, n) for kind in "ABC" for n in range(1, 17)]
        else:
            texts = surgery_trees()
        assert sum(self._checked(text) for text in texts) > 0

    def test_a_companion_names_its_rebuilt_inputs(self):
        model = build_scenario(parse_scenario(surgery_chain("C", 3))).final
        companion = genericize(model)
        # each rejoin's spec carries its shifted levels, and so does the
        # spec that names it as an input
        shifted = [spec for spec in spec_tree_nodes(companion) if isinstance(spec, SurgerySpec)]
        assert [spec.name for spec in shifted] == ["s3", "s2", "s1"]
        levels = {z.zero_id: z.level for z in companion.zeros}
        for spec in shifted:
            assert spec.tube_levels == (levels[f"{spec.name}.x"], levels[f"{spec.name}.y"])
