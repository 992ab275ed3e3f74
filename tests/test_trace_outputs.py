"""Byte pins of `foliage trace` and the exact work a report may repeat.

The sha256 digests were taken from the report (stdout) and the SVG of
`foliage trace` before the trace path stopped redoing exact geometry; the
bumped leaves cross their supports and the custom order-4 orbifold draws
cone points, so a changed byte anywhere on that path fails here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from foliage import forms, orbifold
from foliage.cli import build_report, build_scenario, main, parse_scenario

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
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, text, report_sha, svg_sha", PINS, ids=[p[0] for p in PINS])
def test_trace_bytes_are_pinned(name, text, report_sha, svg_sha, tmp_path, capsys):
    scenario = tmp_path / f"{name}.scn"
    scenario.write_text(text)
    svg = tmp_path / f"{name}.svg"
    assert main(["trace", str(scenario), "--svg", str(svg)]) == 0
    report = capsys.readouterr().out
    assert "trace verdict: Closed" in report
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


def bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_chain_build_reuses_loops_and_decides_invariance_once(monkeypatch):
    # the benchmark's kind-C chain at n = 8: nine forms on built-in
    # pillowcases, whose loops were built at import
    workloads = bench_workloads(monkeypatch)
    text = workloads.chain_text("C", 8, workloads.sqrt_literal(2), workloads.sqrt_literal(3))
    calls = []
    count_calls(monkeypatch, calls, orbifold, "fundamental_generators")
    count_calls(monkeypatch, calls, forms, "invariant_subgroup")
    built = build_scenario(parse_scenario(text))
    assert len(built.forms) == 9
    assert calls.count("fundamental_generators") == 0
    assert calls.count("invariant_subgroup") == 9
