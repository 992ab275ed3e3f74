"""Byte pins of `foliage trace` and the exact work a report may repeat.

The sha256 digests were taken from the report (stdout) and the SVG of
`foliage trace` before the trace path stopped redoing exact geometry (the
dense and coarse-step pins: before the tracer stepped straight off the bump
supports); the bumped leaves cross their supports and the custom order-4
orbifold draws cone points, so a changed byte anywhere on that path fails
here.  The hexagonal pins, of the `periods` and `transitivity` reports, were
taken before the bump potentials began to telescope along loops.  The first
round of each bench workload is replayed against the digests captured with
the benchmark, so a changed report byte fails here as well as in the bench.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import surgery_chain
from foliage import catalog, forms, orbifold, surgery
from foliage.cli import build_report, build_scenario, main, parse_scenario, run

PLAIN_TORUS = """[symbols]

[orbifold T]
builtin = torus

[form w]
on = T
dtheta = 2
dphi = 3

[tracer]
seed = 1/8, 1/8
step = 0.005
"""

BUMPED_PILLOWCASE = """[symbols]

[orbifold P]
builtin = pillowcase

[form w]
on = P
dtheta = 1
dphi = 2
basic_override = true
bump = center 1/4 3/8 radius 1/16 amplitude 1/200

[tracer]
seed = 1/100, 0
step = 0.002
"""

TWO_BUMP_SHIFTED_TORUS = """[symbols]

[orbifold S]
builtin = shifted_torus

[form w]
on = S
dtheta = 4
dphi = 1
bump = center 1/8 5/8 radius 1/32 amplitude 1/300
bump = center 3/8 1/4 radius 1/32 amplitude -1/400

[tracer]
seed = 0, 27/200
step = 0.002
"""

ORDER_FOUR = """[symbols]

[orbifold R4]
element = 0 -1 1 0 ; 0 0
element = -1 0 0 -1 ; 0 0
element = 0 1 -1 0 ; 0 0

[form w]
on = R4
dtheta = 1
dphi = 3
basic_override = true
bump = center 1/8 3/8 radius 1/32 amplitude 1/300

[tracer]
seed = 13/50, 0
step = 0.002
"""

DENSE_TORUS = """[symbols]
p = 1.41421356237309504880168872420969807857
q = 1.73205080756887729352744634150587236694

[orbifold T]
builtin = torus

[form w]
on = T
dtheta = 1*p
dphi = 1*q

[tracer]
seed = 1/8, 1/8
step = 0.005
"""

# the step exceeds the bump's radius, so near the support the clearance
# count is negative and the leaf steps across the support in one or two RK4
# steps, and closes only after many turns
COARSE_STEP_CROSSING = """[symbols]

[orbifold T]
builtin = torus

[form w]
on = T
dtheta = 2
dphi = 3
bump = center 1/4 25/64 radius 1/64 amplitude 1/40000

[tracer]
seed = 1/8, 1/8
step = 0.02
"""

PINS = [
    (
        "plain-torus",
        PLAIN_TORUS,
        "d4cc3a690d2a275a19aa90dbdf60df8b7e6432fe9df5cb2159d55506152f36d5",
        "a31a303c6732b9dfbe7aec42db219e8b2f1b6101dc99e8bc9e2385d71da2066f",
    ),
    (
        "bumped-pillowcase",
        BUMPED_PILLOWCASE,
        "850a13b8c6ce2ccdaddbd5bc20d6deb43a0a895f35128af28253f1985bea807b",
        "b2cdfd322158a2d5fd46ac4ca728f95d8bfbd0db1d54fae3a87dea0dfa2cb1ff",
    ),
    (
        "two-bump-shifted-torus",
        TWO_BUMP_SHIFTED_TORUS,
        "730ee0f36aaea1a66598cfeb6cfb4ccdc591201b5b8ff1eee9d9c15bcec9a90b",
        "653348463e6fd1f1b9b3a7ab8c1da247fb06c246e72a8b2263e7d59b9262aa0f",
    ),
    (
        "order-four",
        ORDER_FOUR,
        "7251d1b2340be15fdefacd96c51db8958d84018f63dfd1cbc8daf5a69b89d47f",
        "4234e8e38959597cefdfed3192b829522a4e7e73e7660166d397b58b8763f2b8",
    ),
    (
        "dense-torus",
        DENSE_TORUS,
        "0708055648b72be267d01c0924ce7ca254e9a3fd0b4047f2285ae50e1f7f3023",
        "260798dd639ca06602d1df722505a3ccec3c0e26e9caf08c9cc5dd8c502affa1",
    ),
    (
        "coarse-step-crossing",
        COARSE_STEP_CROSSING,
        "e8322b519d955a90d47a62fca763e45d733a45323f816ae426d6cd0dceddabd7",
        "ad5fb6152e00746923aeb5cf90593ff5bc280661e61f97c8d40ffa145071e3cc",
    ),
]
VERDICTS = {"dense-torus": "DenseEvidence"}  # every other pinned leaf closes


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, text, report_sha, svg_sha", PINS, ids=[p[0] for p in PINS])
def test_trace_bytes_are_pinned(name, text, report_sha, svg_sha, tmp_path, capsys):
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(text)
    svg = tmp_path / f"{name}.svg"
    assert main(["trace", str(scenario), "--svg", str(svg)]) == 0
    report = capsys.readouterr().out
    assert f"trace verdict: {VERDICTS.get(name, 'Closed')}" in report
    assert sha256(report) == report_sha
    assert sha256(svg.read_text(encoding="utf-8")) == svg_sha


def count_calls(monkeypatch, calls: list, module, name: str) -> None:
    """Append `name` to `calls` whenever the function runs, through every
    foliage module that holds it."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for held in [m for n, m in sys.modules.items() if n.split(".")[0] == "foliage"]:
        for attr, value in list(vars(held).items()):
            if value is original:
                monkeypatch.setattr(held, attr, wrapper)


def test_report_integrates_no_path(monkeypatch):
    # analyze integrated every generator while building; the periods
    # section reads those values instead of integrating again
    built = build_scenario(parse_scenario(BUMPED_PILLOWCASE))
    calls = []
    count_calls(monkeypatch, calls, orbifold, "fundamental_generators")
    count_calls(monkeypatch, calls, forms, "g_path_integral")
    report = build_report(built, "periods")
    assert "w: a = 1, b = 2, k1 = -3/4; rank 1" in report
    assert calls == []


def test_bumps_on_isometric_orbifolds_evaluate_no_potential(monkeypatch):
    # a bump term is exact and invariant under Z^2 and the orbifold's
    # isometries, so on the pillowcase and the shifted torus it drops out of
    # every period without being evaluated
    calls = []
    count_calls(monkeypatch, calls, forms, "bump_potential")
    for text in (BUMPED_PILLOWCASE, TWO_BUMP_SHIFTED_TORUS):
        build_scenario(parse_scenario(text))
    assert calls == []


# the order-6 hexagonal action: M^1, M^2, M^4 and M^5 are not isometries of
# the square torus, so the bump next to the basepoint enters k2 and k5
HEXAGONAL_BUMPED = """[symbols]

[orbifold H]
element = 0 -1 1 1 ; 0 0
element = -1 -1 1 0 ; 0 0
element = -1 0 0 -1 ; 0 0
element = 0 1 -1 -1 ; 0 0
element = 1 1 -1 0 ; 0 0

[form w]
on = H
dtheta = 1
dphi = 2
basic_override = true
bump = center 17/128 1/8 radius 1/64 amplitude 1/400
"""

HEXAGONAL_PINS = {
    "periods": "2d0d1cd6b26896e98ce7923555c84b53ae399bcd6cc035de459c561369145187",
    "transitivity": "679bea79ad69b87f4a19ff5f91cf330d4de3edcf106ab87a6e7432bddca033d9",
}


@pytest.mark.parametrize("command", sorted(HEXAGONAL_PINS))
def test_bump_periods_on_a_non_isometric_action_are_pinned(command, tmp_path, capsys):
    scenario = tmp_path / "hexagonal.scn"
    scenario.write_text(HEXAGONAL_BUMPED)
    assert main([command, str(scenario)]) == 0
    report = capsys.readouterr().out
    assert "k2 = -7693/20480" in report and "k5 = -7693/20480" in report
    assert sha256(report) == HEXAGONAL_PINS[command]


def bench_module(monkeypatch, name: str):
    """bench/<name>.py, loaded for this test only."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_chain_build_reuses_loops_and_decides_invariance_of_each_distinct_form_once(
        monkeypatch):
    # the benchmark's kind-C chain at n = 8: nine equal forms on built-in
    # pillowcases, whose loops were built at import, and which are one record
    workloads = bench_module(monkeypatch, "workloads")
    text = workloads.chain_text("C", 8, workloads.sqrt_literal(2), workloads.sqrt_literal(3))
    calls = []
    count_calls(monkeypatch, calls, orbifold, "fundamental_generators")
    count_calls(monkeypatch, calls, forms, "_pulls_back_to_itself")
    built = build_scenario(parse_scenario(text))
    assert len(built.forms) == 9
    # deciding invariance tests each group element once
    elements = len(orbifold.BUILTIN_ORBIFOLDS["pillowcase"].action.elements)
    assert calls.count("fundamental_generators") == 0
    assert calls.count("_pulls_back_to_itself") == elements
    # the report's basicness section reads the verdicts the build decided
    assert "transitive: no" in build_report(built, "surgery")
    assert calls.count("_pulls_back_to_itself") == elements


BUMPED_TORUS = """[symbols]

[orbifold T]
builtin = torus

[form w]
on = T
dtheta = 1
dphi = 2
bump = center 1/4 3/8 radius 1/16 amplitude 1/200

[tracer]
seed = 1/100, 0
step = 0.002
"""

ZERO_FREE_CATALOG = sorted(
    name for name, text in catalog.SCENARIOS.items() if not parse_scenario(text).surgeries
)


def test_a_trace_op_decides_invariance_once(monkeypatch):
    # analyze, the basicness section and the tracer's closure targets all
    # read the invariant elements the form kept
    calls = []
    count_calls(monkeypatch, calls, forms, "_pulls_back_to_itself")
    built = build_scenario(parse_scenario(BUMPED_TORUS))
    report, _, code = run("trace", built, {})
    assert code == 0 and "trace verdict: Closed" in report
    # deciding invariance tests each group element once
    (form,) = built.forms.values()
    assert calls == ["_pulls_back_to_itself"] * len(form.orbifold.action.elements)


def test_trace_ops_on_a_builtin_find_its_cone_markers_once(monkeypatch, tmp_path, capsys):
    # the built-in pillowcase is shared, and keeps the cone points of the
    # SVG's grid from the first op that draws them: that op tests the
    # isotropy of each of the 8 x 8 grid points once, the second none
    pillowcase = orbifold.BUILTIN_ORBIFOLDS["pillowcase"]
    monkeypatch.delitem(pillowcase._grid_cones, 8, raising=False)
    calls = []
    count_calls(monkeypatch, calls, orbifold, "isotropy_order")
    scenario = tmp_path / "bumped.scn"
    scenario.write_text(BUMPED_PILLOWCASE)
    per_op = []
    for i in range(2):
        assert main(["trace", str(scenario), "--svg", str(tmp_path / f"{i}.svg")]) == 0
        per_op.append(len(calls))
        calls.clear()
    assert per_op == [64, 0]
    assert (tmp_path / "0.svg").read_text() == (tmp_path / "1.svg").read_text()


@pytest.mark.parametrize("text, bumps", [(BUMPED_PILLOWCASE, 1), (TWO_BUMP_SHIFTED_TORUS, 2)],
                         ids=["bumped-pillowcase", "two-bump-shifted-torus"])
def test_a_trace_op_finds_each_bump_orbit_once(monkeypatch, tmp_path, capsys, text, bumps):
    # the supports check, the periods and the tracer read the copies the
    # form kept
    calls = []
    count_calls(monkeypatch, calls, orbifold, "orbit")
    scenario = tmp_path / "bumped.scn"
    scenario.write_text(text)
    assert main(["trace", str(scenario)]) == 0
    assert calls == ["orbit"] * bumps


@pytest.mark.parametrize("name", ZERO_FREE_CATALOG)
def test_a_periods_report_decides_invariance_once_per_form(monkeypatch, name):
    calls = []
    count_calls(monkeypatch, calls, forms, "_pulls_back_to_itself")
    built = build_scenario(parse_scenario(catalog.SCENARIOS[name]))
    build_report(built, "periods")
    # deciding invariance tests each group element once
    (form,) = built.forms.values()
    assert len(calls) == len(form.orbifold.action.elements)


def test_chain_build_copies_no_record_unchanged(monkeypatch):
    # the benchmark's kind-C chain at n = 8, and a kind-A chain of dense
    # pillowcases, whose joins merge noncompact components: a side whose
    # circuit stays the same, or a leaf whose component survives a merge, is
    # kept, not copied
    workloads = bench_module(monkeypatch, "workloads")
    chains = {
        workloads.chain_text("C", 8, workloads.sqrt_literal(2), workloads.sqrt_literal(3)): "no",
        surgery_chain("A", 8): "yes",
    }
    copies = []
    # every record surgery.py names is a named tuple, copied by its _replace
    for record in {value for value in vars(surgery).values()
                   if isinstance(value, type) and issubclass(value, tuple)}:

        def recording_replace(old, /, copy=record._replace, **changes):
            copies.append((old, copy(old, **changes)))
            return copies[-1][1]

        monkeypatch.setattr(record, "_replace", recording_replace)
    for text, transitive in chains.items():
        built = build_scenario(parse_scenario(text))
        assert f"transitive: {transitive}" in build_report(built, "transitivity")
    assert copies
    assert [old for old, new in copies if new == old] == []


@pytest.mark.parametrize("workload", ["catalog", "chains", "trace"])
def test_the_first_bench_round_matches_its_digests(monkeypatch, workload):
    # each operation as bench/run.py executes it, checked by bench/checks.py
    # against the digests captured with the benchmark
    workloads = bench_module(monkeypatch, "workloads")
    checks = bench_module(monkeypatch, "checks")
    digests = checks.load_digests()[workload]
    ops = workloads.first_round(workload, workloads.DEFAULT_SEED)
    assert len(ops) == len(digests)
    for op in ops:
        built = build_scenario(parse_scenario(op.text))
        if op.command == "trace":
            report, artifacts, code = run("trace", built, {})
            outcome = checks.Outcome(report, artifacts.get("svg", ""), code, built)
        else:
            outcome = checks.Outcome(build_report(built, op.command), built=built)
        assert checks.check(op, outcome, digests[op.index]) == [], (op.round, op.index)
