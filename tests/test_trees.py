"""Random surgery trees: every command answers, and every output is pinned."""

import hashlib

import pytest

import test_scenarios
from foliage import surgery
from foliage.cli import COMMANDS, build_report, build_scenario, parse_scenario, run
from foliage.graph import calabi_equiv_bruteforce, is_calabi
from foliage.scalar import FoliageError, PrecisionExhausted
from foliage.surgery import verdicts

from conftest import hook_join, surgery_chain, surgery_trees

TREE_COMMANDS = [c for c in COMMANDS if c != "examples"]

# sha256 over every command's exit code, report or error line, and DOT, for
# the trees of surgery_trees(1, 100)
TREES_PIN = "9cf42b6aceb894f262f3c5558eee951c38b012e5f09fe1f140cf035a3823a661"


@pytest.fixture(scope="module")
def trees():
    return list(surgery_trees(1, 100))


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
    return built.models[_side(region)].sides[0].circumference


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
