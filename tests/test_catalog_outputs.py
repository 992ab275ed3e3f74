"""Byte pins of every report command on every built-in catalog scenario.

One sha256 per scenario covers the eight `run` commands (all but
`examples`): for each, its exit code, report, DOT and SVG, or the error it
raises.  The digests were taken before the orbifold started owning its
loops, so a refactor that changes a single output byte fails here.
"""

import hashlib

import pytest

from foliage import catalog
from foliage.cli import COMMANDS, build_scenario, parse_scenario, run
from foliage.scalar import FoliageError

PINS = {
    "torus-rational": "16e38576084981ffed54cde99335e8882c300390323d8549d689ae1158cfcc7b",
    "torus-dtheta": "cf13592976bf7267d5bfc78d336336ec6264378c8d911beafa65cb28612d2468",
    "torus-dense": "006e5780398b8d8f6248530f6cce586a3fef5dc6bf9e935cacbdb07ef0cb6e1d",
    "pillowcase-dtheta": "5553e97d5e5ad3ff8302b9d5827dfefb62d3e87196717246e71670005736bf82",
    "pillowcase-dense": "8f9a2c4fde32126b111d3b064fea39f8ee70a0dcf9280ad1d53dc4ef33fcfdb8",
    "shifted-dtheta": "e9a5b17d20f2b54a6e982bceb5b8315dc331086fc46fc59a95334ffcb2357290",
    "sum-b-compact": "e5217128510472841e6a9e0d44718b93ff7eccc9a194cf7b449c19d28c1659b1",
    "pillowcase-ex1": "9e1122a437df350440c6ad26edaf92c7cfad82337683ca83ad9d7fbc777d946c",
    "pillowcase-ex2": "8d8c08be03afa53d74c6ca416db0ec8232411f43781549d7cffdfa56a1d10e4e",
    "pillowcase-ex3": "383188fcfdeeb795e4852b8ea66e0a207c98467aac3336f0a7019274b1523023",
    "pillowcase-ex4": "c5714c62327e9f94b52043b98ee4a8dc7e94572e1fc4a9a11070d48d1c32bcfc",
}


def outputs_digest(text: str) -> str:
    built = build_scenario(parse_scenario(text))
    parts = []
    for command in COMMANDS:
        if command == "examples":
            continue
        try:
            report, artifacts, code = run(command, built)
        except FoliageError as err:
            parts.append(f"{command}\nerror {type(err).__name__}: {err}\n")
            continue
        parts.append(f"{command}\nexit {code}\n{report}")
        for key in sorted(artifacts):
            parts.append(f"{key}\n{artifacts[key]}")
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def test_every_catalog_scenario_is_pinned():
    assert sorted(PINS) == sorted(catalog.SCENARIOS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_catalog_outputs_are_pinned(name):
    assert outputs_digest(catalog.SCENARIOS[name]) == PINS[name]
