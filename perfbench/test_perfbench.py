"""Tests of the benchmark itself, at a minimal size: every metric named in
BENCHMARK.json is printed with its unit, and a planted wrong exact
reference makes the run fail."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, kind):
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert set(result["metrics"]) == set(named)
    for name, unit in named.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.overhead_frac"]["value"] > -1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, planted", [
    ("mc_stationary", {"mc_stationary": {"2,2": "1/2", "4,0": "1/3"}}),
    ("exact_sweep", {"exact_sweep": {"tiny": "0" * 64}}),
])
def test_planted_wrong_exact_reference_fails_the_run(workload, planted,
                                                     tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    for key, value in planted.items():
        expected[key].update(value)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc, result = run_bench(workload, 0, "--expected", str(path))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
