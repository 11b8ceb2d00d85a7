"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload static-grid --seed 2024 --seconds 20 --trace 0

Workloads: ``static-grid``, ``dynamic-grid``, ``service-grid`` (see
``grids.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every measured run starts in a fresh process whose environment holds no
``REPRO_*`` variable (kernel backend, stats cache, profiler and telemetry
switches would each change the code path measured).  Set-up is timed
from just before that process starts to the start of the timed phase;
it is repeated in ``SETUP_REPEATS - 1`` extra processes that stop after
set-up, and ``setup_s`` is the median.  Each process gets a scratch
directory under ``.perfbench_runs/``, removed when it ends; a process
that outlives its deadline is killed with its whole process group.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Scratch space of the runs (trace files, journals, caches), inside the checkout.
RUNS_DIR = Path(".perfbench_runs")
_child_numbers = itertools.count()
#: Set-up is short and the host's speed wanders, so it is sampled this often.
SETUP_REPEATS = 7
#: Wall-clock cap on all child processes of a run, so a hung run still exits.
CHILD_TIMEOUT_S = 150.0


def clean_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every run
    return env


def run_child(args, extra, deadline: float) -> dict:
    """Run bench.py once; returns its final JSON line plus its other lines."""
    command = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + extra
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}-{next(_child_numbers)}"
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    child = subprocess.Popen(
        command + ["--run-dir", str(run_dir), "--t0", repr(started)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=clean_env(),
        text=True,
        start_new_session=True,  # its own group, so service workers die with it
    )
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError("benchmark process timed out")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = out.splitlines()
    try:
        if child.returncode != 0:
            raise ValueError(f"exit code {child.returncode}")
        return {"result": json.loads(lines[-1]), "lines": lines[:-1]}
    except (ValueError, IndexError) as error:
        sys.stderr.write(err[-4000:])
        raise RuntimeError(f"benchmark process gave no result: {error}") from error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("static-grid", "dynamic-grid", "service-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2

    # A terminated launcher unwinds through run_child's cleanup, which
    # kills the benchmark process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(args, ["--setup-only"], deadline)["result"]["setup_s"])
        measured = run_child(args, [], deadline)
    except RuntimeError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    result = measured["result"]
    metrics = result["values"]
    for line in measured["lines"]:
        if not line.startswith("setup_s:"):
            print(line)
    if setups:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s: {metrics['setup_s']['value']:.6g} s (median of {len(setups)} set-ups)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
