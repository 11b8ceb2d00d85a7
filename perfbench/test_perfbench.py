"""The benchmark's own test: every workload runs briefly and is checked.

Run from the root of a checkout (about a minute on a 2-core host)::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, *, seed: int = 2024, seconds: float = 2, trace: int = 0,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def final_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, declared: list, output: str) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"{metric['name']}: " in output  # also printed for people


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_pins(workload):
    proc = run_bench(workload)
    result = final_json(proc)
    assert_metrics(result, SPEC["end_to_end"], proc.stdout)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "pins: seed 2024" in proc.stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "cell_error_ratio: 0.000000 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc = run_bench(workload, seed=7, trace=1)
    result = final_json(proc)
    assert_metrics(result, SPEC["per_layer"], proc.stdout)
    assert "pins: seed 7" in proc.stdout
    assert result["correct"] and result["failed"] == 0
    assert "self time as a share of" in proc.stdout


def copy_benchmark(target: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", target / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))


@pytest.mark.parametrize("workload", ["static-grid", "service-grid"])
def test_perturbed_pin_is_a_failed_cell(tmp_path, workload):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pin_file = tmp_path / "perfbench" / "pins" / "seed-2024.json"
    pins = json.loads(pin_file.read_text())
    digests = pins["workloads"][workload]["digests"]
    # Flip the first cell's digest: that cell runs in every run.
    flipped = format(int(digests[:8], 16) ^ 1, "08x")
    pins["workloads"][workload]["digests"] = flipped + digests[8:]
    pin_file.write_text(json.dumps(pins))

    proc = run_bench(workload, seconds=1, cwd=tmp_path)
    result = final_json(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert f"expected {flipped}" in proc.stdout


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("static-grid", seconds=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
