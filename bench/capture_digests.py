#!/usr/bin/env python3
"""Capture the sha256 digest of every report in the default seed's first round.

    python3 bench/capture_digests.py

Writes bench/digests.json. Every benchmark run replays that round and counts
an operation whose report differs by a single byte as failed, so capture
only when a report change is intended, and say so with the change.
"""

import sys

sys.dont_write_bytecode = True

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from foliage import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import execute  # noqa: E402


def main() -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        round0 = workloads.first_round(workload, workloads.DEFAULT_SEED)
        outcomes = [execute(cli, op) for op in round0]
        for op, outcome in zip(round0, outcomes):
            problems = checks.check(op, outcome)
            if problems:
                print(f"{workload} op {op.index}: {'; '.join(problems)}", file=sys.stderr)
                return 1
        digests[workload] = [outcome.digest() for outcome in outcomes]
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
