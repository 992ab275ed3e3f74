"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

from foliage.catalog import SCENARIOS
from foliage.cli import build_scenario, parse_scenario, run, run_examples
from foliage.forms import ClosedForm, g_path_integral
from foliage.graph import calabi_equiv_bruteforce, factorization_witness, is_calabi
from foliage.leaves import classify_leaf, count_local_components, trace_leaf
from foliage.orbifold import BUILTIN_ORBIFOLDS, TorusPoint, concat
from foliage.scalar import Lattice, SymbolTable, q_rank
from foliage.surgery import genericize

from conftest import (
    PI,
    SQRT2,
    SQRT3,
    SQRT5,
    build_catalog_model,
    close_up,
    random_connected_digraphs,
    random_gpath,
    random_rational,
)
from test_leaves import sampled_components

CATALOG_NAMES = sorted(SCENARIOS)


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_catalog_reproduction():
    started = time.monotonic()
    text, code = run_examples()
    elapsed = time.monotonic() - started
    assert code == 0, text
    assert "4/4 rows match" in text
    # the four verdict rows, spelled out
    ex1 = build_catalog_model("pillowcase-ex1")
    assert any(l.compact for l in ex1.catalog) and any(not l.compact for l in ex1.catalog)
    ex2 = build_catalog_model("pillowcase-ex2")
    assert not any(l.compact for l in ex2.catalog)
    assert len(ex2.decomposition.boundary) == 1
    ex3 = build_catalog_model("pillowcase-ex3")
    assert any(l.kind == "CompactRegular" for l in ex3.catalog)
    ex4 = build_catalog_model("pillowcase-ex4")
    assert not any(l.compact for l in ex4.catalog)
    assert elapsed < 5.0, f"catalog run took {elapsed:.2f}s"
    _report(1, f"all four tube-surgery rows reproduce their verdicts ({elapsed:.2f}s)")


def test_criterion_2_calabi_equivalence_suite():
    started = time.monotonic()
    rng = random.Random(1905)
    checked = 0
    for graph in random_connected_digraphs(rng, count=500):
        cond1, cond2 = calabi_equiv_bruteforce(graph)
        assert cond1 == cond2
        assert is_calabi(graph) == cond1
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 500
    assert elapsed < 10.0, f"calabi suite took {elapsed:.2f}s"
    _report(2, f"cond1 = cond2 = is_calabi on {checked} random connected digraphs "
               f"({elapsed:.2f}s)")


def test_criterion_3_exact_vs_numeric_oracle():
    table = SymbolTable(
        [("q", SQRT2), ("r", SQRT3), ("s", SQRT5),
         ("g", "1.61803398874989484820458683436563811772"), ("w", PI)]
    )
    T = BUILTIN_ORBIFOLDS["torus"]
    seed = TorusPoint(Fraction(1, 8), Fraction(1, 8))
    slopes = [
        (p, q)
        for q in range(0, 11)
        for p in range(-10, 11)
        if (p, q) != (0, 0) and gcd(p, q) == 1 and abs(p) + q <= 9
    ][:50]
    assert len(slopes) == 50
    for p, q in slopes:
        form = ClosedForm((table.rational(p), table.rational(q)), T)
        assert classify_leaf(form, T, seed).kind == "CompactRegular"
        result = trace_leaf(form, seed, step=0.01, return_tol=1e-6)
        assert result.verdict == "Closed" and result.return_error < 1e-6, (p, q)
    for a, b in (("one", "q"), ("one", "r"), ("q", "r"), ("one", "g"), ("s", "w")):
        form = ClosedForm((table.symbol(a), table.symbol(b)), T)
        assert classify_leaf(form, T, seed).kind == "NoncompactRegular"
        result = trace_leaf(form, seed, step=0.02, max_steps=1_000_000)
        assert result.verdict == "DenseEvidence" and result.coverage >= 0.99, (a, b)
        assert result.steps <= 1_000_000
    _report(3, "50 rational slopes close under 1e-6, 5 irrational slopes reach "
               "99% coverage at eps = 0.05")


def test_criterion_4_period_homomorphism_suite():
    from sympy import Matrix, Rational

    table = SymbolTable([("p", PI), ("q", SQRT2)])
    T = BUILTIN_ORBIFOLDS["torus"]
    base = ClosedForm((table.symbol("p"), table.symbol("q")), T)
    from foliage.forms import BumpTerm

    bumped = base.with_bumps([
        BumpTerm(TorusPoint(Fraction(1, 4), Fraction(1, 8)), Fraction(1, 32),
                 table.rational(Fraction(1, 50)))
    ])
    rng = random.Random(404)
    for _ in range(100):
        start = (random_rational(rng), random_rational(rng))
        p, mid = random_gpath(rng, T, start, rng.randint(1, 3))
        q, _ = random_gpath(rng, T, mid, rng.randint(1, 3))
        assert g_path_integral(base, concat(p, q)) == (
            g_path_integral(base, p) + g_path_integral(base, q)
        )
        loop = close_up(rng, T, start, rng.randint(1, 3))
        assert g_path_integral(bumped, loop) == g_path_integral(base, loop)

    rng = random.Random(405)
    table4 = SymbolTable([("p", PI), ("q", SQRT2), ("r", SQRT3)])
    for _ in range(100):
        vals = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
            vals.append(
                table4.rational(coeffs[0]) + table4.symbol("p", coeffs[1])
                + table4.symbol("q", coeffs[2]) + table4.symbol("r", coeffs[3])
            )
        rows = [[Rational(c.numerator, c.denominator) for c in v.vector()] for v in vals]
        assert q_rank(vals) == Matrix(rows).rank()
    _report(4, "additivity and cohomologous loop-invariance exact on 100 loops; "
               "q_rank matches the row-reduction oracle on 100 inputs")


def test_criterion_5_factorization_witness_biconditional():
    for name in CATALOG_NAMES:
        model = build_catalog_model(name)
        witness = factorization_witness(model)
        if model.all_leaves_compact():
            assert witness is not None, name
            for gen_id, period, walk in witness.checks:
                assert period == walk, (name, gen_id)
        else:
            assert witness is None, name
    _report(5, f"witness exists iff all leaves compact, with exactly equal "
               f"check pairs, across {len(CATALOG_NAMES)} catalog scenarios")


def test_criterion_6_decomposition_invariants():
    for name in CATALOG_NAMES:
        model = build_catalog_model(name)
        d = model.decomposition
        ids = {leaf.leaf_id for leaf in model.catalog}
        covered = set(d.x_c)
        for _, comp_set in d.x_inf_components:
            assert not (covered & comp_set), name
            covered |= comp_set
        assert covered == ids, name
        by_id = {leaf.leaf_id: leaf for leaf in model.catalog}
        for leaf_id, comp_id in d.boundary:
            leaf = by_id[leaf_id]
            assert leaf.kind == "NoncompactSingular", name
            assert (comp_id, True) in leaf.components, name
        ranks = dict(d.restricted_ranks)
        for cid, _ in d.x_inf_components:
            assert ranks[cid] is not None and ranks[cid] >= 2, (name, cid)
        companion = genericize(model)
        for leaf in companion.catalog:
            if leaf.zeros:
                assert len(leaf.zeros) == 1, (name, leaf.leaf_id)
        expected_boundary = {
            (leaf.leaf_id, cid)
            for leaf in companion.catalog
            if leaf.kind == "NoncompactSingular"
            for cid, compact in leaf.components
            if compact
        }
        assert set(companion.decomposition.boundary) == expected_boundary, name
    _report(6, f"coverage, boundary membership, restricted rank >= 2 and the "
               f"generic boundary law hold on {len(CATALOG_NAMES)} scenarios")


def test_criterion_7_local_model_counts():
    assert count_local_components(3, 1, "trivial") == (2, 1, 1)
    assert count_local_components(3, 1, "z2_reflect_last") == (1, 1, 1)
    for n in range(1, 4):
        for lam in range(n + 1):
            for group in ("trivial", "z2_reflect_last"):
                below, at, above = count_local_components(n, lam, group)
                assert below == sampled_components(n, lam, -1.0, group), (n, lam, group)
                assert above == sampled_components(n, lam, 1.0, group), (n, lam, group)
                if 0 < lam < n:
                    assert at == sampled_components(n, lam, 0.0, group), (n, lam, group)
    _report(7, "quadratic-model component counts match the sampling/union-find "
               "oracle for n <= 3, both groups")


def test_criterion_8_genericize_postconditions():
    model = build_catalog_model("pillowcase-ex2")
    companion = genericize(model)
    assert {(z.zero_id, z.index, z.isotropy_order) for z in model.zeros} == {
        (z.zero_id, z.index, z.isotropy_order) for z in companion.zeros
    }
    assert [p.render() for p in model.generator_periods()] == [
        p.render() for p in companion.generator_periods()
    ]
    levels = dict(companion.singular_levels())
    lattice = companion.generator_periods()
    ids = sorted(levels)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            diff = levels[ids[i]] - levels[ids[j]]
            assert not diff.is_zero()
            assert diff not in Lattice(lattice)
    _report(8, "construction-(c) genericization: zeros and periods unchanged, "
               "levels distinct and outside the period lattice")


def test_criterion_9_determinism():
    for name in CATALOG_NAMES:
        scenario_text = SCENARIOS[name]
        first, a1, _ = run("surgery", build_scenario(parse_scenario(scenario_text)))
        second, a2, _ = run("surgery", build_scenario(parse_scenario(scenario_text)))
        assert first == second, name
        d1 = build_scenario(parse_scenario(scenario_text)).final.graph.to_dot()
        d2 = build_scenario(parse_scenario(scenario_text)).final.graph.to_dot()
        assert d1 == d2, name
    _report(9, f"byte-identical reports and DOT across repeated runs of "
               f"{len(CATALOG_NAMES)} scenarios")
