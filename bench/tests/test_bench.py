"""Tests of the benchmark itself: generators, checker and tracing wrappers."""

import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from time import perf_counter

import pytest

import checks
import tracing
import workloads
from conftest import BENCH
from foliage import cli
from run import KERNEL_PERIOD_S, Speedometer, execute, timings


def _texts(workload, seed, nrounds=2):
    gen = workloads.rounds(workload, seed)
    return [(op.command, op.text) for _ in range(nrounds) for op in next(gen)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _texts(workload, 5) == _texts(workload, 5)
    assert _texts(workload, 5) != _texts(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_shape_across_seeds(workload):
    def shapes(seed):
        return sorted(
            json.dumps({k: v for k, v in op.expect.items() if k != "period_length"}, sort_keys=True)
            + op.command
            for op in workloads.first_round(workload, seed)
        )

    assert shapes(3) == shapes(4)


def test_catalog_draws_distinct_prime_roots():
    for op in workloads.first_round("catalog", 9):
        symbols = [s for s in cli.parse_scenario(op.text).symbols]
        assert len({value for _, value, _ in symbols}) == len(symbols)
        assert all(len(value.replace(".", "")) == workloads.LITERAL_DIGITS for _, value, _ in symbols)


def _cheap_ops():
    """A few fast operations of every workload."""
    ops = workloads.first_round("catalog", 2)[:12]
    ops += [op for op in workloads.first_round("chains", 2) if op.expect["n"] <= 4]
    ops += [
        op for op in workloads.first_round("trace", 2)
        if op.expect["kind"] in ("rational", "dense") or op.expect["orbifold"] == "torus"
    ]
    return ops


def test_traced_and_untraced_runs_give_identical_reports():
    ops = _cheap_ops()
    plain = [execute(cli, op).digest() for op in ops]
    recorder = tracing.Recorder()
    original = cli.parse_scenario
    with tracing.traced(recorder):
        assert cli.parse_scenario is not original
        traced = []
        for i, op in enumerate(ops):
            with recorder.operation(i):
                traced.append(execute(cli, op).digest())
    assert cli.parse_scenario is original
    assert traced == plain
    _, calls = recorder.self_times()
    assert calls["op"] == len(ops)
    assert calls["cli.parse_scenario"] == len(ops)
    assert calls["scalar.sign"] > 0 and calls["orbifold.orbit"] > 0  # cross-module rebinds seen
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = tracing.layer_metrics(recorder, spec["per_layer"], len(ops), 0.9)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["leaves.trace_leaf.us_per_step.bumped"]["value"] > 0


def test_wrappers_record_nothing_outside_an_operation():
    recorder = tracing.Recorder()
    with tracing.traced(recorder):
        execute(cli, workloads.first_round("catalog", 2)[0])
    assert len(recorder.name) == 0


def test_speedometer_samples_inside_an_operation_and_restores_the_alarm():
    speed = Speedometer()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.operation():
        t0 = perf_counter()
        while perf_counter() - t0 < 6 * KERNEL_PERIOD_S:
            pass
    inside = speed.samples[1:-1]
    assert len(inside) >= 2
    assert speed.spent == sum(inside)
    assert speed.slowdown() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_tail_keeps_ten_samples_and_five_percent_beyond():
    for n, beyond in ((5, 0), (100, 10), (5000, 250)):
        values, tail_index = timings([(i + 1) * 1e-3 for i in range(n)], 0)
        assert n - tail_index - 1 == beyond
        assert values["op_tail_ms"] == pytest.approx(tail_index + 1)


def _op(workload, **match):
    return next(
        op for op in workloads.first_round(workload, workloads.DEFAULT_SEED)
        if all(op.expect.get(k) == v for k, v in match.items())
    )


def test_checker_accepts_the_real_outputs_and_their_digests():
    digests = checks.load_digests()
    for workload in ("catalog", "trace"):
        op = workloads.first_round(workload, workloads.DEFAULT_SEED)[0]
        assert checks.check(op, execute(cli, op), digests[workload][op.index]) == []


def test_checker_counts_a_corrupted_verdict():
    op = _op("catalog", scenario="pillowcase-ex2")
    outcome = execute(cli, op)
    assert checks.check(op, outcome) == []
    flipped = outcome.report.replace("transitive: no", "transitive: yes")
    assert checks.check(op, replace(outcome, report=flipped))

    op = _op("chains", kind="C", n=2)
    outcome = execute(cli, op)
    assert checks.check(op, outcome) == []
    assert checks.check(op, replace(outcome, report=outcome.report.replace("transitive: no", "transitive: yes")))


def test_checker_counts_a_corrupted_trace():
    op = _op("trace", orbifold="torus", kind="rational")
    outcome = execute(cli, op)
    assert checks.check(op, outcome) == []
    for old, new in (("trace verdict: Closed", "trace verdict: Inconclusive"),
                     ("period length 3.", "period length 4.")):
        assert old in outcome.report
        assert checks.check(op, replace(outcome, report=outcome.report.replace(old, new)))
    assert checks.check(op, replace(outcome, code=3))


def test_checker_counts_a_changed_report_byte():
    op = workloads.first_round("catalog", workloads.DEFAULT_SEED)[0]
    outcome = execute(cli, op)
    digest = checks.load_digests()["catalog"][op.index]
    assert checks.check(op, outcome, digest) == []
    changed = replace(outcome, report=outcome.report + " ")
    assert checks.check(op, changed, digest) == ["report digest differs from the one captured with the benchmark"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
