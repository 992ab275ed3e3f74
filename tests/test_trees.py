"""Random surgery trees: every command answers, and every output is pinned."""

import hashlib
from dataclasses import replace

import pytest

import test_scenarios
from foliage import cli, surgery
from foliage.cli import COMMANDS, build_report, build_scenario, parse_scenario, run
from foliage.graph import calabi_equiv_bruteforce, is_calabi
from foliage.scalar import FoliageError, PrecisionExhausted
from foliage.surgery import verdicts

from conftest import surgery_chain, surgery_trees

TREE_COMMANDS = [c for c in COMMANDS if c != "examples"]

# sha256 over every command's exit code, report or error line, and DOT, for
# the trees of surgery_trees(1, 100)
TREES_PIN = "06de2ddf41c8b2d12a639b91db9568e9ec124fe23ee26e7d784e984ffddc2bf8"


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
    returned, finished, decomposed = [], [], []
    for name in ("analyze", "connected_sum", "genericize"):
        def kept(*args, _real=getattr(surgery, name)):
            model = _real(*args)
            returned.append(model)
            return model

        monkeypatch.setattr(surgery, name, kept)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, kept)
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
        returned += built.models.values()
    assert len(returned) > 500
    assert all(model.decomposition is not None for model in returned)
    assert decomposed == finished
    assert len(set(map(id, finished))) == len(finished)


def test_permuted_symbols_and_renamed_models_keep_the_verdicts(trees):
    helpers = test_scenarios.TestDeclarationInvariance
    checked = 0
    for text in trees:
        s = parse_scenario(text)
        try:
            expected = helpers._verdict_lines(s)
        except FoliageError:
            continue
        for variant in (replace(s, symbols=s.symbols[::-1]), helpers._renamed(s)):
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
