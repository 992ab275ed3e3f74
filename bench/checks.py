"""Per-operation correctness checks.

Each check compares what foliage printed with an answer known without the
code under test: the hand-written verdict rows, the verdict a chain's kind
implies, the leaf length of a straight closed leaf, and sha256 digests of
reports captured with the benchmark. A failed check makes the operation count
as failed, which is what `success_rate` and the result's `failed` report.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
PERIOD_TOLERANCE = 1e-6


@dataclass
class Outcome:
    """What one operation produced."""

    report: str
    svg: str = ""
    code: int = 0
    built: object = None  # the BuiltScenario, for the trace cross-check

    def digest(self) -> str:
        return hashlib.sha256((self.report + "\0" + self.svg).encode()).hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_COUNTS = re.compile(
    r"^counts: compact regular (\d+), noncompact regular (\d+), "
    r"compact singular (\d+), noncompact singular (\d+)$",
    re.M,
)


def _line(report: str, prefix: str) -> Optional[str]:
    for line in report.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def verdict_row(report: str) -> dict:
    """The catalog.EXAMPLES fields, read back from report text."""
    row: dict = {}
    transitive = _line(report, "transitive: ")
    if transitive is not None:
        row["transitive"] = {"yes": True, "no": False}.get(transitive.split()[0])
    harmonic = _line(report, "intrinsically harmonic: ")
    if harmonic is not None:
        row["harmonic"] = harmonic.split()[0]
    m = _COUNTS.search(report)
    if m:
        cr, nr, cs, ns = (int(x) for x in m.groups())
        row["has_compact_leaf"] = cr + cs > 0
        row["has_noncompact_leaf"] = nr + ns > 0
    boundary = _line(report, "boundary: ")
    if boundary is not None:
        row["compact_singular_components"] = 0 if boundary == "(empty)" else len(boundary.split(", "))
    return row


def _check_row(report: str, expected: dict) -> list[str]:
    got = verdict_row(report)
    return [
        f"{key}: expected {want!r}, got {got.get(key, 'missing')!r}"
        for key, want in expected.items()
        if want is not None and got.get(key) != want
    ]


def _check_trace(op, outcome: Outcome) -> list[str]:
    from foliage.leaves import classify_leaf
    from foliage.orbifold import TorusPoint

    problems = []
    verdict = _line(outcome.report, "trace verdict: ")
    if verdict != op.expect["verdict"]:
        problems.append(f"trace verdict {verdict!r}, expected {op.expect['verdict']!r}")
    form = outcome.built.final.form
    leaf = classify_leaf(form, form.orbifold, TorusPoint(*outcome.built.scenario.tracer.seed))
    if verdict != ("Closed" if leaf.compact else "DenseEvidence"):
        problems.append(f"trace verdict {verdict!r} disagrees with classify_leaf ({leaf.kind})")
    if "period_length" in op.expect:
        m = re.search(r"^period length ([0-9.]+),", outcome.report, re.M)
        if m is None or abs(float(m.group(1)) - op.expect["period_length"]) > PERIOD_TOLERANCE:
            problems.append(
                f"period length {m.group(1) if m else 'missing'}, "
                f"expected {op.expect['period_length']:.9f}"
            )
    if not outcome.svg.startswith("<svg"):
        problems.append("trace produced no SVG")
    return problems


def check(op, outcome: Outcome, expected_digest: Optional[str] = None) -> list[str]:
    """Problems with one operation's outcome; empty when it is correct."""
    problems = []
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}")
    if op.workload == "catalog":
        problems += _check_row(outcome.report, op.expect["row"])
    elif op.workload == "chains":
        problems += _check_row(outcome.report, {"transitive": op.expect["transitive"]})
    else:
        problems += _check_trace(op, outcome)
    if expected_digest is not None and outcome.digest() != expected_digest:
        problems.append("report digest differs from the one captured with the benchmark")
    return problems
