import contextlib
import io
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from foliage import cli
from foliage.catalog import SCENARIOS
from foliage.cli import (
    ScenarioError,
    build_report,
    build_scenario,
    main,
    parse_scenario,
    run,
    run_examples,
    serialize_scenario,
)

EX1 = SCENARIOS["pillowcase-ex1"]


class TestParsing:
    def test_builtin_ex1_structure(self):
        s = parse_scenario(EX1)
        assert [f.name for f in s.forms] == ["wL", "wR"]
        assert [o.builtin for o in s.orbifolds] == ["pillowcase", "pillowcase"]
        assert s.surgeries[0].kind == "A"
        assert s.surgeries[0].left == "wL"

    def test_empty_file_is_an_error(self):
        with pytest.raises(ScenarioError):
            parse_scenario("")

    def test_undeclared_symbol_is_an_error(self):
        bad = EX1.replace("dtheta = 1*p", "dtheta = 1*r")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert "r" in str(err.value)

    def test_unknown_section_reports_the_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("[nonsense]\nx = 1\n")
        assert "line 1" in str(err.value)

    def test_lines_need_key_value_shape(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[symbols]\nnot a key value line\n")

    def test_non_group_action_table_rejected(self):
        text = """[symbols]

[orbifold O]
element = 0 -1 1 0 ; 0 0

[form w]
on = O
dtheta = 1
dphi = 0
"""
        from foliage.orbifold import OrbifoldError

        with pytest.raises(OrbifoldError):
            build_scenario(parse_scenario(text))

    def test_round_trip_is_identity(self):
        for name, text in sorted(SCENARIOS.items()):
            s = parse_scenario(text)
            assert parse_scenario(serialize_scenario(s)) == s, name


class TestCommands:
    def test_examples_all_rows_match(self):
        text, code = run_examples()
        assert code == 0
        assert "4/4 rows match" in text
        for name, _ in __import__("foliage.catalog", fromlist=["EXAMPLES"]).EXAMPLES:
            assert name in text

    def test_periods_report(self):
        built = build_scenario(parse_scenario(SCENARIOS["torus-dense"]))
        report, artifacts, code = run("periods", built)
        assert code == 0
        assert "rank 2" in report

    def test_graph_command_emits_dot(self):
        built = build_scenario(parse_scenario(EX1))
        report, artifacts, code = run("graph", built)
        assert code == 0
        assert artifacts["dot"].startswith("digraph foliation {\n")
        assert artifacts["dot"].endswith("}\n")

    def test_trace_command_makes_an_svg(self):
        built = build_scenario(parse_scenario(SCENARIOS["torus-rational"]))
        report, artifacts, code = run("trace", built)
        assert code == 0
        assert "trace verdict: Closed" in report
        assert artifacts["svg"].startswith("<svg")

    def test_trace_rejects_surgered_models(self):
        built = build_scenario(parse_scenario(EX1))
        with pytest.raises(ScenarioError):
            run("trace", built)

    def test_surgery_report_records_override_and_criteria(self):
        built = build_scenario(parse_scenario(EX1))
        report, _, _ = run("surgery", built)
        assert "declared-basic override active" in report
        assert "criterion: transitivity" in report
        assert "== decomposition ==" in report


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        for name in ("pillowcase-ex1", "pillowcase-ex2", "sum-b-compact"):
            s = SCENARIOS[name]
            r1, _, _ = run("surgery", build_scenario(parse_scenario(s)))
            r2, _, _ = run("surgery", build_scenario(parse_scenario(s)))
            assert r1 == r2

    def test_reports_are_byte_identical_across_threads(self):
        def reports(name):
            built = build_scenario(parse_scenario(SCENARIOS[name]))
            return [build_report(built, c) for c in ("surgery", "transitivity", "periods")]

        names = sorted(SCENARIOS)
        serial = [reports(n) for n in names]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside sign() too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(reports, names * 4))
        finally:
            sys.setswitchinterval(saved)
        assert threaded == serial * 4

    def test_dot_is_byte_identical(self):
        for name in ("pillowcase-ex3", "torus-rational"):
            s = SCENARIOS[name]
            d1 = build_scenario(parse_scenario(s)).final.graph.to_dot()
            d2 = build_scenario(parse_scenario(s)).final.graph.to_dot()
            assert d1 == d2


class TestEntryPoint:
    def test_examples_exit_zero(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "4/4 rows match" in out

    def test_scenario_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("this is not a scenario\n")
        assert main(["periods", str(bad)]) == 2

    def test_bare_dependent_flag_exit_two(self, tmp_path, capsys):
        # the flag names no relation, so honouring it is impossible and
        # ignoring it would treat r as a new constant: rank 2, not compact
        path = tmp_path / "dependent.scn"
        path.write_text(
            "[symbols]\n"
            "q = 1.41421356237309504880168872420969807857\n"
            "r = 2.82842712474619009760337744841939615714 dependent\n\n"
            "[orbifold T]\nbuiltin = torus\n\n"
            "[form w]\non = T\ndtheta = 1*q\ndphi = 1*r\n"
        )
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3: a dependent symbol needs its relation" in err
        assert "Traceback" not in err

    def test_readme_scenario_example_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Scenario files", 1)[1]
        example = section.split("```\n", 2)[1]
        path = tmp_path / "readme.scn"
        path.write_text(example)
        monkeypatch.chdir(tmp_path)  # its [output] section writes graph.dot here
        for command in ("periods", "surgery"):
            assert main([command, str(path)]) == 0, capsys.readouterr().err
        assert (tmp_path / "graph.dot").exists()

    @pytest.mark.parametrize("seed", ["abc", "1/8", "1/0,1"])
    def test_malformed_seed_exit_two(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "torus-dense", "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        ["step = abc", "step = nan", "step = inf", "step = -0.01", "max_steps = 1e3"],
    )
    def test_malformed_tracer_value_exit_two(self, line, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(SCENARIOS["torus-dense"] + f"\n[tracer]\n{line}\n")
        assert main(["trace", str(path), "--steps", "100"]) == 2
        err = capsys.readouterr().err
        assert f"{line.split()[0]}: " in err and "line " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value", [("--step", "nan"), ("--step", "inf"), ("--step", "-1"), ("--steps", "-5")]
    )
    def test_malformed_tracer_flag_exit_two(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "torus-dense", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    def test_non_boolean_override_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        ex2 = SCENARIOS["pillowcase-ex2"]
        path.write_text(ex2.replace("basic_override = true", "basic_override = yes"))
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "basic_override must be true or false" in err and "line " in err
        assert "Traceback" not in err
        upper = ex2.replace("basic_override = true", "basic_override = TRUE")
        assert all(f.basic_override for f in parse_scenario(upper).forms)

    TORUS = SCENARIOS["torus-rational"]

    UNKNOWN_KEYS = [
        ("[form w]", "bumb = center 1/4 1/4 radius 1/16 amplitude 1/100"),
        ("[form w]", "basic_overide = true"),
        ("[tracer]", "sead = 1/3, 1/5"),
        ("[orbifold T]", "bultin = torus"),
        ("[output]", "svgg = leaf.svg"),
        ("[surgery ex1]", "tubes = 1/3 : 1/3"),
    ]

    @pytest.mark.parametrize(
        "header, line", UNKNOWN_KEYS, ids=[line.split()[0] for _, line in UNKNOWN_KEYS]
    )
    def test_unknown_key_exit_two(self, header, line, tmp_path, capsys):
        text = EX1 if header.startswith("[surgery") else self.TORUS + "\n[tracer]\n\n[output]\n"
        assert header in text
        text = text.replace(header + "\n", f"{header}\n{line}\n", 1)
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        lineno = text.splitlines().index(line) + 1
        assert f"line {lineno}: unknown key {line.split()[0]!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section", ["[tracer]\nstep = 0.01", "[output]\ndot = g.dot"], ids=["tracer", "output"]
    )
    def test_repeated_section_exit_two(self, section, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(self.TORUS + f"\n{section}\n\n{section}\n")
        assert main(["periods", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repeated section" in err and "line " in err
        assert "Traceback" not in err

    def test_graph_error_in_a_report_exit_two(self, monkeypatch, capsys):
        from foliage.graph import GraphError

        def broken(model):
            raise GraphError("circuit edges missing from graph")

        monkeypatch.setattr(cli, "factorization_witness", broken)
        assert main(["classify", "torus-rational"]) == 2
        err = capsys.readouterr().err
        assert "circuit edges missing" in err
        assert "Traceback" not in err

    def test_missing_file_exit_two(self):
        assert main(["periods", "/nonexistent/path.scn"]) == 2

    def test_dot_file_written(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert main(["graph", "pillowcase-ex1", "--dot", str(out)]) == 0
        assert out.read_text().startswith("digraph foliation {")

    def test_subprocess_console_script(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "foliage.cli", "examples"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "4/4 rows match" in result.stdout

    def test_scenario_file_from_disk(self, tmp_path, capsys):
        path = tmp_path / "ex.scn"
        path.write_text(SCENARIOS["torus-rational"])
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "CompactRegular" in out

    def test_inconclusive_trace_exits_three(self, capsys):
        # a dense leaf cannot settle within a 2000-step budget
        assert main(["trace", "torus-dense", "--steps", "2000"]) == 3
        out = capsys.readouterr().out
        assert "Inconclusive" in out

    @pytest.mark.parametrize("command, code", [("periods", 0), ("transitivity", 0), ("trace", 3)])
    def test_overflowing_symbol_never_tracebacks(self, command, code, tmp_path, capsys):
        # p = 1e400 is exact everywhere but the tracer, where it has no float
        path = tmp_path / "huge.scn"
        path.write_text(SCENARIOS["torus-dense"].replace(
            "p = 3.14159265358979323846264338327950288420", "p = 1e400"))
        assert main([command, str(path)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if command == "trace":
            assert "reason: form overflows the float range" in captured.out


# -- fuzz: mutated catalog scenarios end in exit 0, 2 or 3, never in an exception

FUZZ_TOKENS = [
    "1e400", "-1e400", "1e-400", "nan", "1/0", "inf", "0", "-1", "1/3", "7/2",
    "1e400*p", "1e-400*q", "-1*p", "abc", "true", "",
]
FUZZ_LINES = [
    "[tracer]", "[symbols]", "seed = 1e400, 1/3", "seed = 1e-400, -1e400",
    "step = 1e-400", "max_steps = 1e400", "r = 1e400", "s = 1e-400 dependent",
    "bump = center 1/4 1/8 radius 1/32 amplitude 1e400*p",
    "bump = center 1/4 1/8 radius 1/32 amplitude 1e-400",
    "basic_override = true", "dtheta = 1e400*p", "dphi = 1/0",
]
FUZZ_COMMANDS = [c for c in cli.COMMANDS if c != "examples"]


@st.composite
def mutated_scenarios(draw):
    lines = SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))].splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            lines.insert(i, draw(st.sampled_from(FUZZ_LINES)))
        elif "=" in lines[i]:
            key, _, value = lines[i].partition("=")
            words = value.split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = f"{key}= {' '.join(words)}"
    return "\n".join(lines) + "\n"


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_scenarios(), command=st.sampled_from(FUZZ_COMMANDS))
    def test_mutated_scenarios_exit_cleanly(self, tmp_path, text, command):
        path = tmp_path / "fuzz.scn"
        path.write_text(text)
        argv = [command, str(path)] + (["--steps", "2000"] if command == "trace" else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3), text
