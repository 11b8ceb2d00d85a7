#!/usr/bin/env python
"""Benchmark the fast-tier hot-path kernels and write BENCH_hotpath.json.

Times each vectorized kernel against its in-tree pre-optimization
reference on a synthetic mixed window (10M lines by default):

* static translation per mapping -- Coffee Lake, Skylake, MOP and
  Rubix-S GS1/2/4 -- against the per-bit decode and arithmetic-cipher
  oracles,
* Rubix-D chunk translation (gather vs per-engine masked loop),
* trace analysis (counting kernels vs argsort/np.unique),
* remap sweep advancement (closed form vs per-episode walk),
* the end-to-end dynamic window combining all three.

Every implementation pair is asserted bit-identical before its timing
is reported, so this doubles as an equivalence regression check
-- ``--quick`` runs a small window for exactly that purpose in CI (no
timing gate).

Reports append to a ``{"history": [...]}`` list in the output file, so
successive runs (different machines or dates) accumulate
instead of overwriting each other; a pre-history single-report file is
wrapped on first append.

Usage:
    PYTHONPATH=src python scripts/bench_hotpath.py                  # full 10M run
    PYTHONPATH=src python scripts/bench_hotpath.py --quick          # CI equivalence
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.perf.hotpath_bench import (  # noqa: E402
    DEFAULT_LINES,
    DEFAULT_SEED,
    format_report,
    run_benchmarks,
)

#: --quick window length: big enough that every kernel takes a vector
#: path (multiple chunks, an epoch-crossing remap call), small enough
#: for a few seconds of CI time.
QUICK_LINES = 400_000


def append_history(path: str, report: dict) -> None:
    """Append ``report`` to the ``history`` list in the JSON file at ``path``.

    A legacy file holding one bare report is wrapped into history form
    first; an unreadable file is replaced (benchmarks must not die on a
    corrupt artifact).
    """
    history = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
            if isinstance(existing, dict) and isinstance(existing.get("history"), list):
                history = existing["history"]
            elif isinstance(existing, dict) and existing:
                history = [existing]
        except (OSError, json.JSONDecodeError):
            history = []
    history.append(report)
    with open(path, "w") as fh:
        json.dump({"history": history}, fh, indent=2)
        fh.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--lines",
        type=int,
        default=DEFAULT_LINES,
        help=f"window length in line addresses (default {DEFAULT_LINES:,})",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per kernel; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=DEFAULT_SEED,
        help="trace/mapping seed (default %(default)#x)",
    )
    parser.add_argument(
        "--gang-size", type=int, default=4, help="Rubix-D gang size (default 4)"
    )
    parser.add_argument(
        "--segments", type=int, default=1, help="v-segments per v-group (default 1)"
    )
    parser.add_argument(
        "--chunk-lines",
        type=int,
        default=1 << 20,
        help="dynamic-window chunk size (default 2^20)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"equivalence-check mode: {QUICK_LINES:,} lines, 1 rep (for CI)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_hotpath.json",
        help="report path (default BENCH_hotpath.json); '-' skips writing",
    )
    args = parser.parse_args(argv)

    lines = QUICK_LINES if args.quick else args.lines
    reps = 1 if args.quick else args.reps
    report = run_benchmarks(
        lines=lines,
        reps=reps,
        seed=args.seed,
        chunk_lines=args.chunk_lines,
        gang_size=args.gang_size,
        segments=args.segments,
    )
    report["mode"] = "pair"
    print(format_report(report))
    report["config"]["quick"] = bool(args.quick)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.out != "-":
        append_history(args.out, report)
        print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
