"""Write ``pins/seed-<n>.json``: the expected digest of every cell's result.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_pins.py 2024 7

The simulation grids are pinned from one pass of the benchmark's own
grid loop; the service grid from the serial ``Campaign.run`` path, whose
records the service must reproduce exactly.  Regenerate the pins only
when a change is meant to move simulated results, and say why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bench
import grids


def pins_for(seed: int) -> dict:
    entries = {}
    for workload in ("static-grid", "dynamic-grid"):
        checker = bench.Checker(None)
        bench.sim_pass(workload, bench.sim_setup(seed), checker)
        if checker.failed:
            raise RuntimeError(f"{workload} cells failed: {checker.mismatches}")
        entries[workload] = grids.pin_entry(workload, checker.reference)
    with tempfile.TemporaryDirectory(dir=".") as directory:
        campaigns, _ = bench.service_inputs(seed, Path(directory))
        reference = bench.service_reference(campaigns, range(len(campaigns)))
    entries["service-grid"] = grids.pin_entry("service-grid", reference)
    return {"seed": seed, "workloads": entries}


def main(argv) -> int:
    from repro.obs.logs import QUIET
    from repro.obs.runtime import configure

    configure(enabled=False, verbosity=QUIET)
    grids.PIN_DIR.mkdir(exist_ok=True)
    for seed in [int(arg) for arg in argv] or list(grids.PINNED_SEEDS):
        grids.pin_path(seed).write_text(json.dumps(pins_for(seed), indent=1) + "\n")
        print(f"wrote {grids.pin_path(seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
