"""Smoke test of the benchmark at tiny sizes: schema and correctness checks only.

Run from the repository root with

    python3 -m pytest mvbench/test_smoke.py

It runs every workload for one second with 2,000 precinct districts and 200
calibrate replications.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = ROOT / "src" / "mvaudit" / "fixtures" / "austria2016.csv"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import precincts  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"][1:], "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--districts", "2000", "--reps", "200"]
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generator_is_deterministic_and_deep_tailed(seed):
    text = precincts.generate(seed, 2000)
    assert text == precincts.generate(seed, 2000)
    facts = checks.Facts(text)
    assert facts.n == 2000 and facts.status["red"] == 20 and facts.status["dubious"] == 6
    assert facts.validate["zero_mail_districts"] == 4
    checks.check_inputs(facts, fixture=False)


def cli_json(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, "-m", "mvaudit.cli", *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


def test_checks_reject_altered_outputs():
    facts = checks.Facts(FIXTURE.read_text(encoding="utf-8"))
    argv = ["analyze", str(FIXTURE), "--include-dubious", "--level", "0.99", "--json"]
    payload = cli_json(*argv)
    assert checks.check_analyze(payload, facts, argv, True, {}) > 12
    interval = dict(payload["prediction_interval"])
    interval["upper"] += 1
    for key, value in (
        ("p_reversal", payload["p_reversal"] * (1 + 1e-7)),
        ("t_stat", payload["t_stat"] * (1 + 1e-8)),
        ("reversal_threshold", payload["reversal_threshold"] + 1),
        ("dof", payload["dof"] + 1),
        ("prediction_interval", interval),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_analyze(dict(payload, **{key: value}), facts, argv, True, {})

    payload = cli_json("validate", str(FIXTURE), "--json")
    checks.check_validate(payload, facts)
    with pytest.raises(checks.CheckError):
        checks.check_validate(dict(payload, zero_mail_districts=1), facts)
