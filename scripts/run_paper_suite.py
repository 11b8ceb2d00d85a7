#!/usr/bin/env python3
"""Run the full experiment suite at publication scales.

The suite runs in one process through the runner's experiment loop
(``repro.experiments.runner.run_experiments``), so every experiment
reuses the trace and window-statistics caches -- the whole suite costs
one analysis pass per (workload, mapping) configuration.  Output is the
EXPERIMENTS.md data, in suite order, each block followed by its timing
line.  A failing experiment is logged and skipped: every other block
still prints, and the script exits 1 naming the failures.  Set
``REPRO_STATS_CACHE=DIR`` to also persist the analyses across runs.

``--telemetry-dir DIR`` additionally writes a run manifest, metric
snapshots, and span event streams to DIR (see docs/OBSERVABILITY.md);
``--log-json PATH`` mirrors the console status records to a JSONL file.
Status records (``done <id> (Xs)``) go to stderr, so stdout carries only
the data when no output file is given.

Usage:  python scripts/run_paper_suite.py [output.txt] [--quiet|--verbose]
                                          [--log-json PATH]
                                          [--telemetry-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.runner import configure_run, finish_run, run_experiments
from repro.obs.runtime import get_logger

log = get_logger("paper_suite")

#: (experiment id, scale, workload limit) -- None = experiment default.
SUITE = [
    ("fig1a", 1.0, None),
    ("fig4", 1.0, None),
    ("table2", 1.0, None),
    ("fig7", 1.0, None),
    ("table3", 0.5, None),
    ("fig1c", 0.4, None),
    ("fig3", 0.4, None),
    ("fig8", 0.4, None),
    ("fig9", 0.4, None),
    ("sec48", 0.4, None),
    ("sec49", 0.4, None),
    ("fig12", 0.4, None),
    ("fig13", 0.4, None),
    ("table4", 0.4, None),
    ("fig14", 0.4, None),
    ("sec57", 0.4, None),
    ("table5", 0.4, None),
    ("sec61", 0.4, None),
    ("sec62", 0.4, None),
    ("fig16", 0.5, None),
    ("fig17", 0.4, None),
    ("fig8mix", 0.25, None),
    ("fig15", 0.2, None),
    ("sec73", 0.4, None),
    ("actdist", 0.3, None),
    ("indram-escape", 1.0, None),
    ("abl-pitfall", 0.3, None),
    ("abl-stride-attack", 1.0, None),
    ("abl-remap-rate", 0.2, None),
    ("abl-segments", 1.0, None),
    ("abl-tracker", 1.0, None),
    ("abl-cipher-rounds", 0.2, None),
    ("abl-reveng", 1.0, None),
]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default=None, help="output file (stdout if omitted)")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", action="store_true", help="print debug-level records too"
    )
    verbosity.add_argument(
        "--quiet", action="store_true", help="suppress console status output"
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="mirror structured log records to this JSONL file",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry and write run artifacts (manifest,"
        " metric snapshots, event streams) to DIR",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    manifest = configure_run(
        args,
        "paper_suite",
        {"suite": [list(entry) for entry in SUITE], "output": args.output},
    )
    out = open(args.output, "w") if args.output else sys.stdout
    suite_started = time.perf_counter()
    failures = []
    try:
        for (experiment_id, scale, _), (_, result, elapsed) in zip(
            SUITE, run_experiments(SUITE)
        ):
            if result is None:
                failures.append(experiment_id)
                continue
            print(result.format(), file=out)
            print(
                f"[{experiment_id} scale={scale} finished in {elapsed:.1f}s]\n",
                file=out,
            )
            out.flush()
            log.status(
                "suite.experiment_done",
                message=f"done {experiment_id} ({elapsed:.1f}s)",
                experiment=experiment_id,
                elapsed_s=round(elapsed, 3),
            )
        print(
            f"[suite finished in {time.perf_counter() - suite_started:.0f}s]", file=out
        )
    finally:
        if out is not sys.stdout:
            out.close()
    return finish_run(manifest, failures)


if __name__ == "__main__":
    raise SystemExit(main())
