import random
from fractions import Fraction

import pytest

from foliage.graph import (
    MARKER,
    SPECIAL,
    TERMINAL,
    ZERO,
    FoliationGraph,
    GraphError,
    calabi_equiv_bruteforce,
    digraph_from_arcs,
    edge_weight,
    is_calabi,
)
from foliage.scalar import SymbolTable

from conftest import build_catalog_model


TABLE = SymbolTable()
ONE = TABLE.rational(1)


def cycle_graph(n):
    return digraph_from_arcs(n, [(i, (i + 1) % n) for i in range(n)], TABLE)


class TestBuildGraph:
    def test_all_compact_circle(self):
        model = build_catalog_model("torus-rational")
        g = model.graph
        kinds = sorted(v.kind for v in g.vertices.values())
        assert kinds == [MARKER]
        (edge,) = g.edges.values()
        assert edge.src == edge.dst
        assert edge.weight == model.table.rational(1)

    def test_dense_single_special_vertex(self):
        model = build_catalog_model("torus-dense")
        g = model.graph
        assert [v.kind for v in g.vertices.values()] == [SPECIAL]
        assert not g.edges

    def test_b_surgery_has_a_chain_family(self):
        model = build_catalog_model("pillowcase-ex3")
        g = model.graph
        chain = [e for e in g.edges.values() if e.family.endswith(".chain")]
        assert len(chain) == 1

    def test_positive_weights_enforced(self):
        g = FoliationGraph()
        v = g.add_vertex(MARKER)
        with pytest.raises(GraphError):
            g.add_edge(v, v, TABLE.rational(0), family="bad")
        with pytest.raises(GraphError):
            g.add_edge(v, v, TABLE.rational(-1), family="bad")

    def test_terminal_vertices_must_be_univalent(self):
        g = FoliationGraph()
        t = g.add_vertex(TERMINAL, ref="z")
        m = g.add_vertex(MARKER)
        g.add_edge(t, m, ONE, family="f0")
        g.validate()
        g.add_edge(m, t, ONE, family="f1")
        with pytest.raises(GraphError):
            g.validate()


class TestEdgeWeight:
    def test_dtheta_circle_weight_one(self):
        model = build_catalog_model("torus-dtheta")
        g = model.graph
        (eid,) = g.edges
        assert edge_weight(g, eid) == model.table.rational(1)

    def test_b_gap_edge_when_pinched_at_window_ends(self, table):
        # tube levels at the window boundary values give the window gap
        from foliage.forms import ClosedForm
        from foliage.orbifold import torus_presentation
        from foliage.surgery import SurgerySpec, analyze, connected_sum

        T1, T2 = torus_presentation(), torus_presentation()
        m1 = analyze(T1, ClosedForm((table.rational(1), table.zero()), T1), "m1")
        m2 = analyze(T2, ClosedForm((table.rational(2), table.rational(3)), T2), "m2")
        r = lambda v: table.rational(Fraction(v))
        model = connected_sum(
            SurgerySpec(
                "B", m1, m2,
                left_window=(r("1/8"), r("3/8")),
                right_window=(r("5/8"), r("7/8")),
                tube_levels=(r("5/8"), r("3/8")),  # upper window min, lower window max
                name="s",
            )
        )
        (chain,) = [e for e in model.graph.edges.values() if e.family == "s.chain"]
        assert chain.weight == r("5/8") - r("3/8")


class TestIsCalabi:
    def test_single_cycle(self):
        assert is_calabi(cycle_graph(4)) is True

    def test_two_cycles_one_bridge(self):
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        assert is_calabi(digraph_from_arcs(6, arcs, TABLE)) is False

    def test_kind_c_graph_is_not_calabi(self):
        from foliage.surgery import genericize

        model = build_catalog_model("pillowcase-ex2")
        assert is_calabi(genericize(model).graph) is False

    def test_disconnected_graph_rejected(self):
        g = digraph_from_arcs(4, [(0, 1), (1, 0), (2, 3), (3, 2)], TABLE)
        with pytest.raises(GraphError):
            is_calabi(g)

    def test_lone_special_vertex_is_transitive(self):
        g = FoliationGraph()
        g.add_vertex(SPECIAL, ref="inf")
        assert is_calabi(g) is True


class TestCalabiEquivalence:
    def test_single_cycle(self):
        assert calabi_equiv_bruteforce(cycle_graph(3)) == (True, True)

    def test_single_directed_edge(self):
        g = digraph_from_arcs(2, [(0, 1)], TABLE)
        assert calabi_equiv_bruteforce(g) == (False, False)

    def test_size_bound(self):
        with pytest.raises(GraphError):
            calabi_equiv_bruteforce(cycle_graph(13))

    def test_vertex_only_reading_is_weaker(self):
        # every VERTEX of two bridged cycles lies on a positive closed walk,
        # yet the graph is not transitive; the bridge edge lies on no cycle,
        # which is why the conditions quantify over all points of the graph
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        g = digraph_from_arcs(6, arcs, TABLE)
        succ = {v: set() for v in g.vertices}
        for s, d in g.arcs():
            succ[s].add(d)
        from foliage.graph import _reachable

        vertex_version = all(v in _reachable(succ, v) for v in g.vertices)
        cond1, cond2 = calabi_equiv_bruteforce(g)
        assert vertex_version is True
        assert cond1 is False and cond2 is False
        assert is_calabi(g) is False

    def test_random_connected_digraphs_agree(self):
        from conftest import random_connected_digraphs

        rng = random.Random(1905)
        for graph in random_connected_digraphs(rng, count=500, table=TABLE):
            cond1, cond2 = calabi_equiv_bruteforce(graph)
            assert cond1 == cond2
            assert is_calabi(graph) == cond1


class TestDot:
    def test_exact_grammar(self):
        model = build_catalog_model("torus-rational")
        dot = model.graph.to_dot()
        assert dot == (
            "digraph foliation {\n"
            'v0 [kind="Marker"];\n'
            'v0 -> v0 [label="1"];\n'
            "}\n"
        )

    def test_symbolic_weight_rendering(self):
        table = SymbolTable([("p", "3.14159265358979323846")])
        g = FoliationGraph()
        v = g.add_vertex(ZERO, ref="z")
        g.add_edge(v, v, table.symbol("p"), family="f")
        assert 'label="0 + 1*p"' in g.to_dot()

    def test_kind_strings(self):
        model = build_catalog_model("pillowcase-ex1")
        dot = model.graph.to_dot()
        for kind in ("Marker", "Special", "Zero"):
            assert f'kind="{kind}"' in dot
