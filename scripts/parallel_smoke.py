#!/usr/bin/env python3
"""CI smoke test for ``Campaign.run(workers=N)`` on the campaign service.

Exercises the parallel/resilience contract end to end on a tiny grid:

1. a serial run establishes the expected records;
2. a serial run with an injected crash after 3 cells leaves a partial
   checkpoint journal;
3. a parallel resume (``workers=2``, dispatched to the campaign
   service's loopback workers) from that journal completes the grid and
   must reproduce the expected records exactly;
4. a fresh all-parallel run, journaled, must also reproduce them;
5. a serial resume of that ``workers=2`` journal must replay every cell
   and execute none -- both modes key the journal by content digest.

Exit status 0 on success, 1 on any mismatch.  No timing assertions:
this validates correctness, not speedup (CI may have one core).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments.campaign import Campaign, MappingSpec
from repro.experiments.common import get_simulator
from repro.obs import runtime as obs_runtime
from repro.obs.manifest import RunManifest
from repro.resilience.faults import FaultPlan, FaultySimulator, SimulatedCrash
from repro.resilience.journal import CheckpointJournal


def make_campaign() -> Campaign:
    return Campaign(
        workloads=["xz", "lbm"],
        mappings=[
            MappingSpec("coffeelake"),
            MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
        ],
        schemes=["blockhammer"],
        thresholds=[128, 512],
        scale=0.05,
    )  # 2 x 2 x 1 x 2 = 8 cells


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    # Telemetry rides along when REPRO_TELEMETRY_DIR is set (the CI
    # validation stage does this); disabled, it costs one boolean per
    # instrumented call site.
    manifest = None
    if obs_runtime.telemetry_dir() is not None:
        manifest = RunManifest.create(
            "parallel_smoke", config={"cells": 8, "workers": 2}
        )

    expected = make_campaign().run()
    print(f"serial: {len(expected)} records")

    with tempfile.TemporaryDirectory(prefix="rubix-smoke-") as tmp:
        journal_path = Path(tmp) / "campaign.jsonl"

        # Simulated mid-sweep kill: crash after 3 cells, journal intact.
        crashing = FaultySimulator(get_simulator(), FaultPlan(crash_after_cells=3))
        try:
            make_campaign().run(simulator=crashing, journal=journal_path)
        except SimulatedCrash:
            pass
        else:
            return fail("fault injection did not crash the run")
        completed = len(CheckpointJournal(journal_path).completed())
        print(f"crashed after {completed} journaled cells")
        if completed != 3:
            return fail(f"expected 3 journaled cells, found {completed}")

        # Parallel resume must finish the grid and match the serial run.
        resumed = make_campaign()
        records = resumed.run(workers=2, resume_from=journal_path)
        if records != expected:
            return fail("parallel resume records differ from serial run")
        if resumed.cells_executed != len(expected) - 3:
            return fail(
                f"resume re-ran {resumed.cells_executed} cells,"
                f" expected {len(expected) - 3}"
            )
        print(f"parallel resume: {resumed.cells_executed} remaining cells, records match")

        # And a fresh parallel run from scratch, with a shared disk cache.
        parallel_journal = Path(tmp) / "parallel.jsonl"
        fresh = make_campaign().run(
            workers=2,
            stats_cache_dir=Path(tmp) / "stats-cache",
            journal=parallel_journal,
        )
        if fresh != expected:
            return fail("fresh parallel records differ from serial run")
        print("fresh parallel run: records match")

        # Its journal resumes serially without running anything.
        replayed = make_campaign()
        if replayed.run(resume_from=parallel_journal) != expected:
            return fail("serial resume of the parallel journal differs")
        if replayed.cells_executed != 0:
            return fail(
                f"serial resume of a complete parallel journal ran"
                f" {replayed.cells_executed} cells, expected 0"
            )
        print("serial resume of the parallel journal: 0 cells run")

    if manifest is not None:
        obs_runtime.write_telemetry(manifest=manifest)
        print(f"telemetry written to {obs_runtime.telemetry_dir()}")

    print("OK: parallel smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
