"""Random surgery trees: every command answers, and every output is pinned."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import test_scenarios
from foliage import surgery
from foliage.catalog import SCENARIOS
from foliage.cli import COMMANDS, build_report, build_scenario, parse_scenario, run
from foliage.graph import MARKER, SPECIAL, calabi_equiv_bruteforce, is_calabi
from foliage.scalar import FoliageError, Lattice, PrecisionExhausted, sign
from foliage.surgery import ModelError, verdicts

from conftest import (
    PI,
    TREES_FILE,
    draw_surgery_trees,
    hook_join,
    join_step,
    surgery_chain,
    surgery_trees,
)

TREE_COMMANDS = [c for c in COMMANDS if c != "examples"]

# sha256 over every command's exit code, report or error line, and DOT, for
# the trees of surgery_trees(), as TREES_FILE holds them
TREES_PIN = "bd190860d9296f340ecd7a7cfbfa13d96628a779d1cfadfb7ee95a65302ab6e5"


@pytest.fixture(scope="module")
def trees():
    return surgery_trees()


def test_the_checked_in_trees_are_the_ones_drawn():
    # drawing a tree joins its models, keeping the first join each draw does
    # not refuse; a change to analyze or to a join's refusals shows here
    assert "".join(text + "\n" for text in draw_surgery_trees(1, 100)) == TREES_FILE.read_text()


def run_commands(text):
    """(command, exit code, report or error line, DOT) for every command on
    a scenario, as `foliage <command>` ends; the scenario is built once."""

    def ended(err):
        return 3 if isinstance(err, PrecisionExhausted) else 2

    try:
        built = build_scenario(parse_scenario(text))
    except FoliageError as err:
        return [(command, ended(err), str(err), "") for command in TREE_COMMANDS]
    rows = []
    for command in TREE_COMMANDS:
        try:
            report, artifacts, code = run(command, built)
        except FoliageError as err:
            rows.append((command, ended(err), str(err), ""))
        else:
            rows.append((command, code, report, artifacts.get("dot", "")))
    return rows


def test_every_command_answers_and_the_outputs_are_pinned(trees):
    digest = hashlib.sha256()
    codes = set()
    for text in trees:
        for command, code, out, dot in run_commands(text):
            codes.add(code)
            digest.update(f"{command} {code}\n{out}\n{dot}\n".encode())
    assert {0, 2} <= codes <= {0, 2, 3}
    assert digest.hexdigest() == TREES_PIN


def test_every_pinch_is_ordered_and_no_noncompact_component_is_flagged(monkeypatch, trees):
    # genericize shifts the zeros in sorted-id order, so an opened kind-C
    # waist, like a kind-B tube, reaches the pinch with its low end first;
    # nothing else checks it, as a pinch out of order would fail add_edge's
    # positive weight with a GraphError, which genericize does not retry
    pinched, decompositions = [], []

    def recording(real, model, low, high):
        pinched.append((model.spec.kind, sign(high[1] - low[1])))
        return real(model, low, high)

    def decomposing(model):
        decompositions.append(real_decompose(model))
        return decompositions[-1]

    def analyzing(real, form, name):
        # analyze builds a form's model with its decomposition, without decompose
        model = real(form, name)
        decompositions.append(model.decomposition)
        return model

    hook_join(monkeypatch, "apply pinch", recording)
    hook_join(monkeypatch, "analyze", analyzing)
    real_decompose = surgery.decompose
    monkeypatch.setattr(surgery, "decompose", decomposing)
    texts = [SCENARIOS[name] for name in sorted(SCENARIOS)]
    texts += [surgery_chain(kind, n) for kind in "ABC" for n in range(1, 9)]
    for text in texts + trees:
        run_commands(text)
    assert {kind for kind, _ in pinched} == {"B", "C"}
    assert all(gap > 0 for _, gap in pinched)
    # every noncompact component of every model checked keeps two
    # independent periods, so no decompose report carries a flag
    ranks = [rank for d in decompositions for _, rank in d.restricted_ranks]
    assert len(ranks) > 1000 and all(rank is not None and rank >= 2 for rank in ranks)
    assert not any(d.flags for d in decompositions)


def test_a_wrapped_side_is_one_marker_loop_and_no_edge_ends_at_a_special_vertex(monkeypatch):
    # wrapping a side removes its one circuit edge and that edge's marker,
    # and merging components removes a special vertex, neither looking for
    # other edges: only a side without zeros is wrapped, and a cut puts a
    # zero on its side, so the side is as its virgin model made it; and a
    # special vertex meets the graph only through attachments.  The trees
    # are drawn under the hook, as drawing them joins their models.
    wrapped, checked = Counter(), 0
    where = "drawing the trees"

    def wrapping(real, model, side_id):
        graph = model.graph
        assert not model.zeros_on(side_id)
        (eid,) = model.sides[side_id].circuit_edges
        marker = graph.edges[eid].src
        assert graph.edges[eid].dst == marker and graph.vertices[marker].kind == MARKER
        assert [e.eid for e in graph.edges.values() if marker in (e.src, e.dst)] == [eid]
        wrapped[where] += 1
        return real(model, side_id)

    hook_join(monkeypatch, "wrap", wrapping)
    trees = list(draw_surgery_trees(1, 100))
    texts = [(name, SCENARIOS[name]) for name in sorted(SCENARIOS)]
    texts += [(f"{kind}{n}", surgery_chain(kind, n)) for kind in "ABC" for n in range(1, 9)]
    texts += [(f"tree {i}", text) for i, text in enumerate(trees)]
    for where, text in texts:
        try:
            built = build_scenario(parse_scenario(text))
        except FoliageError:
            continue
        for model in built.models.values():
            models = [model]
            try:
                models.append(verdicts(model).companion)
            except FoliageError:
                pass
            for m in models:
                vertices = m.graph.vertices
                assert all(vertices[v].kind != SPECIAL
                           for e in m.graph.edges.values() for v in (e.src, e.dst)), where
                checked += 1
    assert wrapped == {"drawing the trees": 15, "pillowcase-ex4": 2, "tree 6": 3, "tree 72": 6}
    assert checked == 1096


def test_every_model_returned_is_finished_once(monkeypatch, trees):
    # a model returned is finished when it is returned; a join may later
    # extend one that only it reads, so each is checked as it comes back
    returned, finished, decomposed = [], [], []

    def kept(real, *args):
        model = real(*args)
        returned.append(model.decomposition)
        return model

    for step in ("analyze", "connected_sum", "genericize"):
        hook_join(monkeypatch, step, kept)
    real_finish, real_decompose = surgery.FoliationModel.finish, surgery.decompose
    monkeypatch.setattr(surgery.FoliationModel, "finish",
                        lambda model: finished.append(model) or real_finish(model))
    monkeypatch.setattr(surgery, "decompose",
                        lambda model: decomposed.append(model) or real_decompose(model))
    for text in trees + [surgery_chain(kind, 6) for kind in "ABC"]:
        try:
            built = build_scenario(parse_scenario(text))
            build_report(built, "surgery")
        except FoliageError:
            continue
        returned += (model.decomposition for model in built.models.values())
    assert len(returned) > 500
    assert all(decomposition is not None for decomposition in returned)
    assert decomposed == finished
    # every record is finished exactly once: no join finishes an input, so a
    # consumed left is never finished before a join extends it in place
    assert len({id(model) for model in finished}) == len(finished)


def test_permuted_symbols_and_renamed_models_keep_the_verdicts(trees):
    helpers = test_scenarios.TestDeclarationInvariance
    checked = 0
    for text in trees:
        s = parse_scenario(text)
        try:
            expected = helpers._verdict_lines(s)
        except FoliageError:
            continue
        for variant in (s._replace(symbols=s.symbols[::-1]), helpers._renamed(s)):
            assert helpers._verdict_lines(variant) == expected
        checked += 1
    assert checked == 87


def test_is_calabi_agrees_with_the_brute_force_on_the_companions(trees):
    checked = 0
    for text in trees:
        try:
            graph = verdicts(build_scenario(parse_scenario(text)).final).companion.graph
        except FoliageError:
            continue
        if len(graph.vertices) <= 12:
            cond1, cond2 = calabi_equiv_bruteforce(graph)
            assert cond1 == cond2 == is_calabi(graph)
            checked += 1
    assert checked == 74


def _side(region):
    return region.split(".")[0]


def _circumference(built, region):
    """The circumference of the circle a region's family lies on, None for a
    noncompact component, and "tube" for a family on a join's tube side,
    whose levels are placed as written."""
    if _side(region) not in built.forms:
        return None if region.split(".")[1].startswith("inf") else "tube"
    return built.models[_side(region)].sides[_side(region)].circumference


def _plus(expr, shift):
    """An Expr plus a scalar, as the parser would sum their terms."""
    terms = dict(expr)
    for i, name in enumerate(sym.name for sym in shift.table.symbols):
        terms[name] = terms.get(name, 0) + shift.coefficient(i)
    return tuple(sorted((name, c) for name, c in terms.items() if c))


def _level_shifted(s, built, k):
    """Each surgery whose disks lie on circles, and on no tube side, with its
    windows and tube levels shifted by k times a common multiple of those
    circles' circumferences; returns the scenario and how many moved.  A
    surgery whose own tube families a later disk lies on is not moved: its
    levels place them, and that disk, as written."""
    tube_sides = {_side(r) for g in s.surgeries for r in (g.left_region, g.right_region)
                  if _circumference(built, r) == "tube"}
    surgeries, moved = [], 0
    for g in s.surgeries:
        circles = [_circumference(built, region) for region in (g.left_region, g.right_region)]
        circles = [c for c in circles if c is not None]
        if not circles or "tube" in circles or g.name in tube_sides:
            surgeries.append(g)
            continue
        ratio = circles[-1].ratio_to(circles[0])
        if ratio is None:  # incommensurable circles have no common multiple
            surgeries.append(g)
            continue
        shift = circles[0] * (abs(ratio.numerator) * k)
        surgeries.append(g._replace(**{key: tuple(_plus(e, shift) for e in getattr(g, key))
                                       for key in ("left_window", "right_window", "tube")}))
        moved += 1
    return s._replace(surgeries=tuple(surgeries)), moved


def test_level_shifts_by_whole_circumferences_keep_the_verdicts(trees):
    helpers = test_scenarios.TestDeclarationInvariance
    checked = moved = 0
    for text in trees:
        s = parse_scenario(text)
        try:
            built = build_scenario(s)
            expected = helpers._verdict_lines(s)
        except FoliageError:
            continue
        for k in (1, 3**20):
            shifted, count = _level_shifted(s, built, k)
            assert helpers._verdict_lines(shifted) == expected
        checked += 1
        moved += count
    assert checked == 87
    assert moved == 128


def _perturbed_companion(model, start):
    """The model rebuilt at the shifts j/(7*2^k) of the first k >= start
    that put no two singular levels in one class of the period lattice and
    rebuild without error, as genericize takes them from k = 0."""
    lattice = Lattice(model.generator_periods())
    zero_ids = sorted(z.zero_id for z in model.zeros)
    base = dict(model.singular_levels())
    for k in range(start, start + 20):
        shifts = {zid: Fraction(j, 7 * 2**k) for j, zid in enumerate(zero_ids)}
        levels = {zid: base[zid] + model.table.rational(shifts[zid]) for zid in zero_ids}
        if any(a - b in lattice for a, b in combinations(levels.values(), 2)):
            continue
        try:
            return join_step("rebuild")(model, levels)
        except ModelError:
            continue
    raise AssertionError(f"{model.name}: no admissible shifts from k = {start}")


def dense_torus_chain(n, window, start, step, c, k):
    """n + 1 dense tori p dtheta + c dphi joined in sequence by kind-A tubes
    through their noncompact components, tube i at the levels
    start + (i-1)*step : that + k*c inside both windows; the band k*c is a
    multiple of the period c of loop b, so every tube's two zeros share a
    class of the period lattice and the model is never generic."""
    out = ["[symbols]", f"p = {PI}"]
    for i in range(n + 1):
        out += [f"[orbifold T{i}]", "builtin = torus", f"[form w{i}]", f"on = T{i}",
                "dtheta = 1*p", f"dphi = {c}"]
    for i in range(1, n + 1):
        lx = start + (i - 1) * step
        out += [f"[surgery s{i}]", "kind = A", f"left = {'w0' if i == 1 else f's{i - 1}'}",
                f"right = w{i}", "left_region = w0.inf", f"right_region = w{i}.inf",
                f"left_window = {window[0]} : {window[1]}",
                f"right_window = {window[0]} : {window[1]}", f"tube = {lx} : {lx + k * c}"]
    return "\n".join(out) + "\n"


def dense_torus_chains(seed, count):
    """Seeded dense_torus_chain scenarios: chain length 1 to 5, the period c,
    the band's multiple k, the window and the tube levels all drawn."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(1, 5), rng.randint(1, 2)
        c = rng.choice([1, Fraction(1, 2), Fraction(2, 3)])
        lo = rng.choice([0, -1, Fraction(1, 4)])
        start = lo + rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        step = rng.choice([Fraction(1, 7), Fraction(1, 11)])
        hi = start + (n - 1) * step + k * c + rng.choice([1, Fraction(1, 2)])
        yield dense_torus_chain(n, (lo, hi), start, step, c, k)


def test_the_calabi_verdict_does_not_depend_on_the_perturbation(trees):
    # every nongeneric surgered final model of the catalog, the chains, the
    # trees and the dense torus chains (whose companions are Calabi); its
    # companion rebuilt at later shift sets is Calabi exactly when the one
    # genericize builds is
    texts = [*SCENARIOS.values(), *(surgery_chain(kind, n) for kind in "ABC" for n in range(1, 9)),
             *trees, *dense_torus_chains(seed=30, count=12)]
    checked = brute = calabi = 0
    for text in texts:
        try:
            model = build_scenario(parse_scenario(text)).final
        except FoliageError:
            continue
        if model.spec is None or model.is_generic:
            continue
        expected = verdicts(model).calabi
        for start in (0, 1, 2, 4, 8, 12):
            graph = _perturbed_companion(model, start).graph
            assert is_calabi(graph) == expected, (model.name, start)
            if len(graph.vertices) <= 12:
                assert calabi_equiv_bruteforce(graph) == (expected, expected), (model.name, start)
                brute += 1
        checked += 1
        calabi += expected
    assert (checked, brute, calabi) == (65, 294, 13)
