import pytest

from foliage.catalog import SCENARIOS
from foliage.cli import build_report, build_scenario, parse_scenario
from foliage.graph import MARKER, GraphError, factorization_witness
from foliage.scalar import q_rank

from conftest import build_catalog_model

ALL_COMPACT = ["torus-rational", "torus-dtheta", "pillowcase-dtheta",
               "shifted-dtheta", "sum-b-compact"]
HAS_NONCOMPACT = ["torus-dense", "pillowcase-dense", "pillowcase-ex1",
                  "pillowcase-ex2", "pillowcase-ex3", "pillowcase-ex4"]


class TestBiconditional:
    def test_all_compact_scenarios_have_a_witness(self):
        for name in ALL_COMPACT:
            model = build_catalog_model(name)
            assert model.all_leaves_compact(), name
            witness = factorization_witness(model)
            assert witness is not None, name
            assert all(p == w for _, p, w in witness.checks), name
            for gen_id, period, walk in witness.checks:
                assert period == walk, (name, gen_id)

    def test_noncompact_scenarios_have_none(self):
        for name in HAS_NONCOMPACT:
            model = build_catalog_model(name)
            assert not model.all_leaves_compact(), name
            assert factorization_witness(model) is None, name


class TestWitnessStructure:
    def test_free_rank_bounds_the_period_rank(self):
        for name in ALL_COMPACT:
            model = build_catalog_model(name)
            witness = factorization_witness(model)
            periods = [p for _, p, _ in witness.checks]
            assert witness.free_rank >= q_rank(periods), name

    def test_shifted_torus_checks_the_deck_generator(self):
        model = build_catalog_model("shifted-dtheta")
        witness = factorization_witness(model)
        checks = {gen: (p, w) for gen, p, w in witness.checks}
        period, walk = checks["w.k1"]
        assert period == walk
        assert period == model.table.rational(1) / 2

    def test_dtheta_pairs(self):
        model = build_catalog_model("torus-dtheta")
        witness = factorization_witness(model)
        table = model.table
        assert [(g, p, w) for g, p, w in witness.checks] == [
            ("w.a", table.rational(1), table.rational(1)),
            ("w.b", table.zero(), table.zero()),
        ]


def _half_circuit(loops):
    """torus-dtheta with its circle's edge cut into two halves, and the
    side's circuit listing only the first: as two loops at the marker, a
    closed walk half a circumference long; as a path through a new marker,
    a walk that does not close."""
    built = build_scenario(parse_scenario(SCENARIOS["torus-dtheta"]))
    model = built.final
    (side,) = model.sides.values()
    (eid,) = side.circuit_edges
    e = model.graph.remove_edge(eid)
    mid = e.src if loops else model.graph.add_vertex(MARKER)
    first = model.graph.add_edge(e.src, mid, e.weight / 2, f"{e.family}:0", e.side)
    model.graph.add_edge(mid, e.dst, e.weight / 2, f"{e.family}:1", e.side)
    model.put_side(side.with_circuit([first]))
    return built


class TestForgedCircuits:
    def test_a_closed_circuit_short_of_the_circumference_is_a_mismatch(self):
        built = _half_circuit(loops=True)
        witness = factorization_witness(built.final)
        assert all(p == w for _, p, w in witness.checks) is False
        table = built.table
        assert [(g, p, w) for g, p, w in witness.checks] == [
            ("w.a", table.rational(1), table.rational(1) / 2),
            ("w.b", table.zero(), table.zero()),
        ]
        report = build_report(built, "surgery")
        assert "w.a: period 1 = walk 1/2 [MISMATCH]" in report
        assert "w.b: period 0 = walk 0 [ok]" in report

    def test_a_circuit_that_does_not_close_is_refused(self):
        built = _half_circuit(loops=False)
        with pytest.raises(GraphError, match="do not meet"):
            factorization_witness(built.final)

    def test_a_circuit_edge_missing_from_the_graph_is_refused(self):
        model = build_catalog_model("torus-dtheta")
        (side,) = model.sides.values()
        model.put_side(side.with_circuit([*side.circuit_edges, max(model.graph.edges) + 1]))
        with pytest.raises(GraphError, match="missing from graph"):
            factorization_witness(model)
