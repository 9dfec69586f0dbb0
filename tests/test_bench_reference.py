"""Every benchmarked command's JSON report at default flags matches the
benchmark's stored reference, by the benchmark's own comparison."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qcorr.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = _workloads()


@pytest.mark.parametrize("command", sorted(workloads.COMMANDS))
def test_default_report_matches_the_benchmark_reference(capsys, command):
    assert main(workloads.COMMANDS[command] + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    workloads._same(
        workloads.reference()["pipelines"][command],
        workloads.comparable(report),
        command,
        workloads.SEED_DEPENDENT.get(command, set()),
    )
