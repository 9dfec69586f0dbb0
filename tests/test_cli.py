import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bench_reference import workloads

from qcorr import core
from qcorr.cli import COMMANDS, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_table1_json(capsys):
    code, out = _run(capsys, ["table1", "--restarts", "30", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "parameters", "results", "checks", "versions", "seed"}
    assert payload["command"] == "table1"
    assert all(check["pass"] for check in payload["checks"])
    assert len(payload["checks"]) == 9


def test_table1_counts_the_settings_of_its_records(capsys, monkeypatch):
    from qcorr import cli

    monkeypatch.setattr(cli, "ghz4_x_pairs", lambda: [])
    code, out = _run(capsys, ["table1", "--restarts", "1", "--format", "json"])
    assert json.loads(out)["results"]["lms_count"] == 1


def test_table2_text(capsys):
    code, out = _run(capsys, ["table2"])
    assert code == 0
    assert "overall: PASS (9/9)" in out


def test_singlet_command(capsys):
    code, out = _run(capsys, ["singlet", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["lms_count"] == 3
    assert all(check["pass"] for check in payload["checks"])


def test_ghz4x3_command(capsys):
    code, out = _run(capsys, ["ghz4x3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["lms_count"] == 2
    assert payload["results"]["family_member_count"] == 216
    assert all(check["pass"] for check in payload["checks"])


@pytest.mark.parametrize(
    "command, settings", [("singlet", 3), ("ghz4x3", 2), ("proptest --trials 1", 7)]
)
def test_command_reads_each_settings_distribution_once(capsys, monkeypatch, command, settings):
    # 24 singlet pairs in 3 settings and 54 four-level families in 2; proptest
    # reads the 11 GHZ pairs in 2 settings, the 24 singlet pairs in 3 and the
    # 54 families in 2 (its random suites read no distribution)
    calls = []
    probabilities = core.outcome_probabilities

    def count(state, unitaries):
        calls.append(state)
        return probabilities(state, unitaries)

    monkeypatch.setattr(core, "outcome_probabilities", count)
    code, _ = _run(capsys, [*command.split(), "--format", "json"])
    assert code == 0
    assert len(calls) == settings


def test_bell_d2(capsys):
    code, out = _run(capsys, ["bell", "2", "--lhv", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["lhv_max"] == 2
    names = [c["name"] for c in payload["checks"]]
    assert "two_setting_reduction" in names
    assert all(check["pass"] for check in payload["checks"])


def test_bell_d3_results(capsys):
    code, out = _run(capsys, ["bell", "3", "--lhv", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["quantum_value"] - 2.87293) < 1e-5
    assert abs(payload["results"]["noise_threshold"] - 0.303848) < 1e-5
    assert payload["results"]["detection_events_per_correlation"] == 6


def test_bell_sweep_csv(capsys):
    code, out = _run(capsys, ["bell", "--sweep", "2", "10", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,name,expected,actual,tolerance,pass"
    assert any(line.startswith("result,analytic_d10,") for line in lines)
    assert any("sweep_strictly_increasing" in line and "True" in line for line in lines)


def test_bell_guard_usage_error(capsys):
    code = main(["bell", "99", "--lhv"])
    assert code == 2


def test_proptest(capsys):
    code, out = _run(capsys, ["proptest", "--trials", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["pair_sign_violations"]["actual"] == 0
    assert checks["family_sign_violations"]["actual"] == 0
    assert checks["target_states_all_positive"]["pass"]


def test_reports_byte_identical(capsys):
    argv = ["table2", "--format", "json"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    argv = ["bell", "4", "--lhv", "--seed", "7", "--format", "text"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_usage_errors(capsys):
    assert main(["not-a-command"]) == 2
    assert "invalid choice: 'not-a-command'" in capsys.readouterr().err
    assert main([]) == 2
    assert "the following arguments are required: command" in capsys.readouterr().err
    assert main(["bell", "--sweep", "5"]) == 2


def test_seesaw_restarts_usage_error(capsys):
    for restarts in ("0", "-3"):
        assert main(["table1", "--restarts", restarts]) == 2
        assert "restart" in capsys.readouterr().err


def test_restarts_is_a_table1_option(capsys):
    assert main(["singlet", "--restarts", "0"]) == 2
    assert main(["bell", "3", "--restarts", "-5"]) == 2
    assert "--restarts" in capsys.readouterr().err
    code, out = _run(capsys, ["table1", "--restarts", "5", "--format", "json"])
    assert json.loads(out)["parameters"]["restarts"] == 5


def test_check_failure_exit_code(capsys, monkeypatch):
    import qcorr.cli as cli

    broken = tuple((row[0] + 1.0,) + row[1:] for row in cli.GHZ4_WITNESS_GRID)
    monkeypatch.setattr(cli, "GHZ4_WITNESS_GRID", broken)
    code, out = _run(capsys, ["table2"])
    assert code == 1
    assert "FAIL" in out


def test_numerical_failure_exit_code(capsys, monkeypatch):
    import qcorr.cli as cli
    from qcorr.witnesses import WitnessNeverFiresError

    def _boom(*args, **kwargs):
        raise WitnessNeverFiresError("forced")

    monkeypatch.setattr(cli, "noise_tolerance", _boom)
    code = main(["singlet"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_keeps_the_exit_status(unbuffered):
    # the read end is closed before the child starts, so its write must fail:
    # buffered, at the flush; unbuffered, inside `print`
    import qcorr

    src = str(Path(qcorr.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qcorr.cli", "table2", "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, text=True, cwd=src, env=env,
        )
    finally:
        os.close(write)
    assert done.returncode == 0
    assert done.stderr == ""


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("passing", [True, False], ids=["pass", "fail"])
def test_closed_stdout_returns_the_report_status(monkeypatch, passing):
    import qcorr.cli as cli

    if not passing:
        broken = tuple((row[0] + 1.0,) + row[1:] for row in cli.GHZ4_WITNESS_GRID)
        monkeypatch.setattr(cli, "GHZ4_WITNESS_GRID", broken)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["table2"])
    # main left stdout pointing at the null device; close it before it is restored
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert code == (0 if passing else 1)


def test_bell_invariant_miss_is_numerical_failure(capsys, monkeypatch):
    import qcorr.bell as bell

    exact = bell.analytic_value
    monkeypatch.setattr(bell, "analytic_value", lambda d: exact(d) + 1e-6)
    code = main(["bell", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_struct_tol_is_not_an_option(capsys, command):
    # The structural tolerance is a module constant, so no flag can change it.
    assert main([command, "--struct-tol", "1e-3"]) == 2
    assert main([command, "--struct-tol=1e-3"]) == 2
    assert "unrecognized arguments: --struct-tol=1e-3" in capsys.readouterr().err


def test_lhv_and_sweep_are_exclusive(capsys):
    assert main(["bell", "--sweep", "2", "3", "--lhv"]) == 2
    assert "not allowed with" in capsys.readouterr().err


def test_tol_is_a_witness_option(capsys):
    for argv in (["table2"], ["bell", "3"], ["proptest", "--trials", "1"]):
        assert main(argv + ["--tol", "5"]) == 2
        assert "--tol" in capsys.readouterr().err
    code, out = _run(capsys, ["singlet", "--tol", "1e-6", "--format", "json"])
    assert code == 0
    assert json.loads(out)["parameters"]["tol"] == 1e-6


def test_bell_dimension_and_sweep_are_exclusive(capsys):
    assert main(["bell", "7", "--sweep", "2", "3"]) == 2
    assert "--sweep" in capsys.readouterr().err
    code, out = _run(capsys, ["bell", "--sweep", "2", "32", "--format", "json"])
    assert code == 0
    assert json.loads(out)["parameters"]["d"] == 2


def test_proptest_rejects_empty_suites(capsys):
    for trials in ("0", "-5"):
        assert main(["proptest", "--trials", trials]) == 2
        assert "trial" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table1", "--tol", "nan"], "--tol"),
        (["table1", "--tol", "-1"], "--tol"),
        (["singlet", "--tol", "inf"], "--tol"),
    ],
)
def test_bad_tolerances_are_usage_errors(capsys, argv, flag):
    assert main(argv) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_negative_seed_is_a_usage_error(capsys, command):
    assert main([command, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qcorr {command} ")
    assert "argument --seed: expected a non-negative integer, got '-1'" in err


@pytest.mark.parametrize(
    "argv, target",
    [(["bell", "100000"], "bell_report"), (["table1", "--restarts", "100000000"], "biseparable_max")],
)
def test_out_of_memory_is_a_numerical_failure(capsys, monkeypatch, argv, target):
    import qcorr.cli as cli

    def _oom(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, target, _oom)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 745. GiB for an array\n"


def test_console_script_entry_point(capsys):
    tomllib = pytest.importorskip("tomllib")
    import importlib
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["qcorr"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["table2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "table2"


#: Each command's options as its --help names them.
OPTIONS = {
    "table1": {"--help", "--format", "--seed", "--tol", "--restarts"},
    "table2": {"--help", "--format", "--seed"},
    "singlet": {"--help", "--format", "--seed", "--tol"},
    "ghz4x3": {"--help", "--format", "--seed", "--tol"},
    "bell": {"--help", "--format", "--seed", "--lhv", "--sweep"},
    "proptest": {"--help", "--format", "--seed", "--trials"},
}


def test_every_command_is_listed():
    assert set(COMMANDS) == set(OPTIONS)


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--restarts", "2"],
        ["table2"],
        ["singlet"],
        ["ghz4x3"],
        ["bell", "--sweep", "2", "3"],
        ["proptest", "--trials", "1"],
    ],
)
def test_a_run_builds_one_parser(capsys, monkeypatch, argv):
    """A normal run builds no parser; help and a usage error build only the
    parser of the command they name."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == []
    assert main([argv[0], "--help"]) == 0
    assert built == [f"qcorr {argv[0]}"]
    assert main(argv + ["--bogus"]) == 2
    assert built == [f"qcorr {argv[0]}"] * 2


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_help_names_its_own_options(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: qcorr {command} ")
    assert set(re.findall(r"--[a-z]+", out)) == OPTIONS[command]


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qcorr [-h] {table1,table2,singlet,ghz4x3,bell,proptest} ...")
    for name, command in COMMANDS.items():
        assert re.search(rf"^    {name} +{re.escape(command.help)}$", out, re.M)


def test_unrecognized_option_prints_the_command_usage(capsys):
    assert main(["table2", "--tol", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qcorr table2 ")
    assert err.endswith("qcorr table2: error: unrecognized arguments: --tol 5\n")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qcorr", "table2", "--format", "json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "table2"


#: Words an argv is drawn from: every option name, abbreviations, the
#: `--opt=value` form, `--`, `-h` and stray words, and values that argparse
#: takes or refuses.
WORDS = sorted(set().union(*OPTIONS.values())) + [
    "--res",
    "--sw",
    "--form",
    "--format=json",
    "--",
    "-h",
    "bogus",
    "d",
]
VALUES = ["json", "xml", "0", "3", "32", "-1", "1e-3", "nan", ""]
#: How many values each option takes; the rest take one.
ARITY = {"--lhv": 0, "--sweep": 2}


def _chunk(flag):
    """`flag` with as many values as it takes, half of them values it
    accepts, so that the fast path comes up often."""
    count = ARITY.get(flag, 1)
    value = st.sampled_from(["json"] if flag == "--format" else ["3", "32"]) | st.sampled_from(VALUES)
    return st.lists(value, min_size=count, max_size=count).map(lambda values: [flag, *values])


#: Up to three of each command's own options, with their values.
CHUNKS = {
    command: st.lists(st.one_of([_chunk(flag) for flag in sorted(flags - {"--help"})]), max_size=3)
    for command, flags in OPTIONS.items()
}


@st.composite
def _argv(draw, command):
    """An argv for `command`: its own options with their values, `bell`'s
    dimension first or not, and maybe one stray word anywhere."""
    argv = sum(draw(CHUNKS[command]), [])
    if command == "bell" and draw(st.booleans()):
        argv.insert(0, draw(st.sampled_from(["3"] + VALUES)))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(WORDS + VALUES)))
    return argv


def _argparse_namespace(command, rest):
    """What the command's parser makes of `rest`, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(COMMANDS[command].parser().parse_args(rest))
        except SystemExit:
            return None


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scan_agrees_with_argparse(command, data):
    rest = data.draw(_argv(command))
    scanned = COMMANDS[command].scan(rest)
    expected = _argparse_namespace(command, rest)
    if expected is None:
        assert scanned is None
    elif scanned is not None:
        assert repr(sorted(vars(scanned).items())) == repr(sorted(expected.items()))


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()]


FAST_ARGV = [
    argv + ["--format", "json", "--seed", seed]
    for argv in workloads.COMMANDS.values()
    for seed in ("1", "2147483646")
] + _readme_examples()


@pytest.mark.parametrize("argv", FAST_ARGV, ids=" ".join)
def test_normal_runs_take_the_fast_path(argv):
    command, rest = argv[0], argv[1:]
    scanned = COMMANDS[command].scan(rest)
    assert scanned is not None
    assert vars(scanned) == _argparse_namespace(command, rest)


def test_a_run_leaves_argparse_unloaded():
    import qcorr

    src = str(Path(qcorr.__file__).resolve().parents[1])
    probe = (
        "import sys; names = ('argparse', 'gettext', 'locale'); "
        "print(any(n in sys.modules for n in names), file=sys.stderr); "
        "from qcorr.cli import main; code = main(['table2', '--format', 'json']); "
        "print(code, [n for n in names if n in sys.modules], file=sys.stderr)"
    )
    err = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, cwd=src
    ).stderr.splitlines()
    if err[0] == "True":
        pytest.skip("this interpreter imports argparse, gettext or locale at start-up")
    assert err[1] == "0 []"
