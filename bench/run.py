#!/usr/bin/env python3
"""The foliage benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload {catalog,chains,trace} --seed N --seconds S --trace {0,1}

Run from the repository root (or any checkout of it). Each run first replays
the first round of the default seed and compares every report with the
sha256 digests captured with the benchmark (bench/digests.json); then it runs
whole rounds of the seeded workload until S seconds have passed, checking
every output. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with every operation's time scaled to a reference machine
speed (see Speedometer). With --trace 1 it runs each operation twice, first with
spans around every public foliage function and then untraced, compares the
two report digests, and reports the per-layer metrics and the tracing
overhead. The last line of stdout is the JSON result; the line before it
holds the facts the numbers depend on (machine, interpreter, sample counts).
See bench/README.md for why each workload exists.
"""

import sys

sys.dont_write_bytecode = True  # keeps src/ uncompiled on disk, so setup_s stays comparable

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
from checks import Outcome, check, load_digests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
# the tail percentile is the highest with at least TAIL_BEYOND samples, and at
# least TAIL_SHARE of them, above it: in noisy stretches the host preempts a
# few percent of catalog's short operations, and a rarer tail measures that
TAIL_BEYOND = 10
TAIL_SHARE = 0.05
# the speed kernel's time on the reference machine (the 2-vCPU VM of
# README.md) when nothing else slows it; a scaled time is what the operation
# would take there
KERNEL_REFERENCE_S = 250e-6
KERNEL_PERIOD_S = 0.02  # the kernel also runs this often inside a long operation


def speed_kernel():
    """Fixed pure-Python work of the kinds foliage does (rationals, a dict,
    integer and float loops) that shares no code with foliage; its time says
    how fast the machine runs Python now."""
    acc, table, total, x = Fraction(0), {}, 0, 0.5
    for i in range(1, 60):
        acc += Fraction(i, i + 7)
        table[i % 13] = table.get(i % 13, 0) + i * i
    for i in range(1000):
        total += (i * 31) % 17
        x = 0.5 * x + math.sin(x) * 0.25
    return acc, table, total, x


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_kernel() -> float:
    t0 = perf_counter()
    speed_kernel()
    return perf_counter() - t0


class Speedometer:
    """How much slower than the reference the machine ran during an operation.

    Other guests of the host slow this VM's pure-Python work by up to 2x, on
    the wall and the CPU clock alike, for seconds to tens of seconds; unscaled
    runs of the same code differ by 20-30%, whatever their length.
    The speed kernel is timed between operations and, from SIGALRM every
    KERNEL_PERIOD_S, inside them; the operation's slowdown is the mean kernel
    time over KERNEL_REFERENCE_S. Kernel time inside an operation is taken
    out of its latency. The kernel shares no code with foliage, so a change
    to foliage moves the scaled times exactly as it moves the wall times.
    """

    def __init__(self):
        self.last = time_kernel()
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        kernel_s = time_kernel()
        self.samples.append(kernel_s)
        self.spent += kernel_s

    @contextmanager
    def operation(self):
        self.samples, self.spent = [self.last], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_PERIOD_S, KERNEL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.last = time_kernel()
        self.samples.append(self.last)

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / KERNEL_REFERENCE_S


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only `import foliage`, and the
    slowdown around each (the mean of the kernel times before and after)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import foliage"
    times, slowdowns = [], []
    before = time_kernel()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # a blocking wait: subprocess's wait with a timeout polls in sleeps of
        # up to 50 ms, which would round every sample up to that grid
        subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True)
        times.append(perf_counter() - t0)
        after = time_kernel()
        slowdowns.append((before + after) / 2 / KERNEL_REFERENCE_S)
        before = after
    return times, slowdowns


def execute(cli, op):
    """The operation itself: the public API path a user of foliage takes."""
    built = cli.build_scenario(cli.parse_scenario(op.text))
    if op.command == "trace":
        report, artifacts, code = cli.run("trace", built, {})
        return Outcome(report, artifacts.get("svg", ""), code, built)
    return Outcome(cli.build_report(built, op.command), built=built)


class Tally:
    """Latency, digest and problems of every operation a phase ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.slowdowns: list[float] = []  # per operation, with a Speedometer
        self.traced_latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0

    def add(self, op, latency: float, problems: list[str]) -> None:
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{op.workload} round {op.round} op {op.index}: {'; '.join(problems)}")


def _attempt(cli, op, recorder=None, op_id=-1, speed=None):
    """(latency, outcome) of one execution; the outcome is the exception on failure."""
    with speed.operation() if speed is not None else nullcontext():
        t0 = perf_counter()
        try:
            if recorder is None:
                outcome = execute(cli, op)
            else:
                with recorder.operation(op_id):
                    outcome = execute(cli, op)
        except Exception as err:  # a failed operation is counted, not fatal
            outcome = err
        latency = perf_counter() - t0
    return latency - (speed.spent if speed is not None else 0.0), outcome


def run_phase(cli, ops_rounds, seconds: float, deadline_s: float, recorder=None,
              expected_digests=None, speed=None) -> Tally:
    """Run whole rounds until `seconds` have passed, checking every outcome.

    With a recorder each operation first runs traced and then at once again
    untraced, so that machine drift cancels out of the tracing overhead; the
    two reports must have equal digests, or the operation fails. With a
    speedometer every operation's slowdown is recorded beside its latency.
    """
    tally = Tally()
    start = perf_counter()
    op_id = 0
    for ops in ops_rounds:
        for op in ops:
            problems = []
            if recorder is not None:
                traced_latency, traced = _attempt(cli, op, recorder, op_id)
                tally.traced_latencies.append(traced_latency)
            latency, outcome = _attempt(cli, op, speed=speed)
            if speed is not None:
                tally.slowdowns.append(speed.slowdown())
            if isinstance(outcome, Exception):
                problems.append(f"{type(outcome).__name__}: {outcome}")
            else:
                expected = None
                if expected_digests is not None and op.index < len(expected_digests):
                    expected = expected_digests[op.index]
                try:
                    problems += check(op, outcome, expected)
                except Exception as err:  # an output the checker cannot read is wrong
                    problems.append(f"check failed: {type(err).__name__}: {err}")
                if recorder is not None and (isinstance(traced, Exception) or traced.digest() != outcome.digest()):
                    problems.append("traced and untraced reports differ")
            tally.add(op, latency, problems)
            op_id += 1
            if perf_counter() - start > deadline_s:
                return tally
        tally.rounds += 1
        if perf_counter() - start >= seconds:
            return tally
    return tally


def timings(latencies: list[float], failed: int) -> tuple[dict, int]:
    """ops_per_s, op_p50_ms and op_tail_ms of some latencies, and the tail's index."""
    lat = sorted(latencies)
    n = len(lat)
    beyond = max(TAIL_BEYOND, int(TAIL_SHARE * n))
    # with too few samples for any such percentile, the maximum stands in
    tail_index = n - beyond - 1 if n > beyond else n - 1
    values = {
        "ops_per_s": (n - failed) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
    }
    return values, tail_index


def end_to_end(tally: Tally, attempted: int, failed: int, setup: list[float],
               setup_slowdowns: list[float], rss_mb: float) -> tuple[dict, dict]:
    scaled = [latency / slowdown for latency, slowdown in zip(tally.latencies, tally.slowdowns)]
    values, tail_index = timings(scaled, tally.failed)
    wall, _ = timings(tally.latencies, tally.failed)
    n = len(scaled)
    values.update({
        "setup_s": statistics.median(t / s for t, s in zip(setup, setup_slowdowns)),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    })
    facts = {
        "op_samples": n,
        "op_tail_percentile": 100.0 * (tail_index + 1) / n,
        "op_tail_samples_beyond": n - tail_index - 1,
        "setup_samples": len(setup),
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        # the same figures unscaled, and the slowdowns they were scaled by
        "wall": dict(wall, setup_s=statistics.median(setup)),
        "slowdown_median": statistics.median(tally.slowdowns),
        "slowdown_quartiles": statistics.quantiles(tally.slowdowns, n=4),
        "setup_slowdown_median": statistics.median(setup_slowdowns),
    }
    return values, facts


def environment(args) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "foliage").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "src_bytecode_cached": (SRC / "foliage" / "__pycache__").exists(),
        "src_foliage_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "chains", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "foliage" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no foliage sources under {SRC} (run from a checkout of the repository)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    setup, setup_slowdowns = measure_setup() if not args.trace else ([], [])
    sys.path.insert(0, str(SRC))
    import foliage
    from foliage import cli

    if Path(foliage.__file__).resolve().parent != (SRC / "foliage").resolve():
        print(f"error: imported foliage from {foliage.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    # the captured digests of the default seed's first round; doubles as warm-up
    digests = load_digests()[args.workload]
    first = workloads.first_round(args.workload, workloads.DEFAULT_SEED)
    # hard stops, reached only when an operation hangs or the program slows
    # by several times; they keep a run inside 180 s at --seconds 30
    grace = 30
    prepass = run_phase(cli, [first], 0, grace, expected_digests=digests)
    # The peak after one whole round on fixed inputs: a seeded run's peak is
    # its largest dense trace so far, which varies with the draws and with
    # the rounds a run's machine speed allows.
    rss_mb = peak_rss_mb()
    if len(digests) != len(first):
        prepass.failed += 1
        prepass.problems.append("digest file does not match the first round's length")

    # Objects that outlive the warm-up (modules, catalog, caches) move to the
    # permanent generation: full collections in this long-lived loop would
    # otherwise rescan them, a cost no single CLI run pays.
    gc.collect()
    gc.freeze()

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        main_phase = run_phase(cli, workloads.rounds(args.workload, args.seed), args.seconds,
                               args.seconds + 2 * grace, speed=Speedometer())
        attempted = len(prepass.latencies) + len(main_phase.latencies)
        failed = prepass.failed + main_phase.failed
        values, facts = end_to_end(main_phase, attempted, failed, setup, setup_slowdowns, rss_mb)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        recorder = tracing.Recorder()
        with tracing.traced(recorder):
            main_phase = run_phase(cli, workloads.rounds(args.workload, args.seed), args.seconds,
                                   args.seconds + 2 * grace, recorder=recorder)
        ops = len(main_phase.latencies)
        attempted = len(prepass.latencies) + ops
        failed = prepass.failed + main_phase.failed
        traced_s, untraced_s = sum(main_phase.traced_latencies), sum(main_phase.latencies)
        metrics = tracing.layer_metrics(recorder, spec["per_layer"], ops, untraced_s / traced_s)
        facts = {"op_samples": ops, "spans": len(recorder.name), "traced_s": traced_s, "untraced_s": untraced_s}
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")

    context = dict(env, rounds=main_phase.rounds, digest_checked_ops=len(prepass.latencies), **facts,
                   problems=prepass.problems + main_phase.problems)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"context": context, **result}, indent=1) + "\n", encoding="utf-8")
    for problem in context["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
