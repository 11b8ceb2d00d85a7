"""Integration tests for ``scripts/run_paper_suite.py``.

The suite script drives the runner's experiment loop, so it must print
its blocks in suite order, record the same ``runner.experiment`` spans
and ``runner.experiments{status}`` counters as ``runner run``, and
share its failure policy: a failing experiment is logged, every other
block still prints, and the exit code is 1.  ``SUITE`` is patched down
to instant data-only experiments.
"""

import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

from repro import obs

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "run_paper_suite.py"
FAST_SUITE = [("fig1a", 1.0, None), ("abl-segments", 1.0, None)]


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Pristine telemetry state around every test (and no env leakage)."""
    saved = {
        key: os.environ.pop(key, None)
        for key in (obs.TELEMETRY_DIR_ENV, obs.TELEMETRY_ENV)
    }
    obs.reset()
    try:
        yield
    finally:
        obs.reset()
        for key, value in saved.items():
            if value is not None:
                os.environ[key] = value


@pytest.fixture
def suite(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_paper_suite", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SUITE", list(FAST_SUITE))
    return module


def block(experiment_id, scale):
    """One result block followed directly by its timing line."""
    return (
        rf"== {re.escape(experiment_id)}: (?:(?!\n\[).)*\n"
        rf"\[{re.escape(experiment_id)} scale={scale} finished in \d+\.\ds\]\n\n"
    )


SUITE_END = r"\[suite finished in \d+s\]\n"


def test_blocks_print_in_suite_order(suite, tmp_path):
    out = tmp_path / "suite.txt"
    assert suite.main([str(out), "--quiet"]) == 0
    pattern = block("fig1a", 1.0) + block("abl-segments", 1.0) + SUITE_END
    assert re.fullmatch(pattern, out.read_text(), re.DOTALL)


def test_telemetry_matches_runner_run(suite, tmp_path, capsys):
    from repro.experiments.runner import main as runner_main

    target = tmp_path / "telemetry"
    assert suite.main([str(tmp_path / "suite.txt"), "--quiet",
                       "--telemetry-dir", str(target)]) == 0
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["command"] == "paper_suite"
    assert manifest["metrics"]["counters"]["runner.experiments|status=ok"] == 2
    capsys.readouterr()
    assert runner_main(["report", "--telemetry", str(target)]) == 0
    assert "runner.experiment" in capsys.readouterr().out


def test_failing_experiment_is_reported_and_the_suite_continues(
    suite, tmp_path, capsys
):
    suite.SUITE = [FAST_SUITE[0], ("no-such-experiment", 1.0, None), FAST_SUITE[1]]
    out = tmp_path / "suite.txt"
    log_path = tmp_path / "suite.jsonl"
    assert suite.main([str(out), "--quiet", "--log-json", str(log_path)]) == 1
    pattern = block("fig1a", 1.0) + block("abl-segments", 1.0) + SUITE_END
    assert re.fullmatch(pattern, out.read_text(), re.DOTALL)
    assert "1 experiment(s) failed: no-such-experiment" in capsys.readouterr().err
    obs.LOGS.close()
    events = [json.loads(line) for line in log_path.read_text().splitlines()]
    failed = [e for e in events if e["event"] == "experiment.failed"]
    assert [e["experiment"] for e in failed] == ["no-such-experiment"]
    assert failed[0]["error"].startswith("KeyError")


def test_stdout_run_prints_only_data(suite, tmp_path, capsys):
    """Without an output file the data goes to stdout and the per-experiment
    ``done`` status records to stderr, so ``suite > out.txt`` diffs clean."""
    suite.SUITE = [FAST_SUITE[0]]
    assert suite.main([]) == 0
    captured = capsys.readouterr()
    assert not [line for line in captured.out.splitlines() if line.startswith("done ")]
    assert "done fig1a (" in captured.err
    out = tmp_path / "suite.txt"
    assert suite.main([str(out)]) == 0

    def data(text):
        return [line for line in text.splitlines() if "finished in" not in line]

    assert data(captured.out) == data(out.read_text())
