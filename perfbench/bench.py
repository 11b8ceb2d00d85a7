"""One benchmark process: set up a workload, measure it, check it.

``run.py`` starts this in a fresh process with a cleaned environment and
passes ``--t0``, its monotonic clock just before the start, so set-up
time covers interpreter start, imports and input generation, and
``--run-dir``, a scratch directory it removes afterwards.  The last
stdout line is a JSON object that ``run.py`` turns into the result.

Simulation grids repeat whole passes (a fresh ``Simulator`` with a fresh
in-memory ``StatsCache`` each, so no window analysis is ever warm) until
the time is up, and report per-pass medians.  The service grid runs
closed-loop clients against one ``CampaignService`` until the time is
up.  With ``--trace 1`` the time is split: an untraced phase, then a
traced phase with spans around each layer (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from collections import deque
from pathlib import Path

import numpy

from repro.experiments.common import make_mapping
from repro.obs.logs import QUIET
from repro.obs.runtime import configure
from repro.parallel.cache import StatsCache
from repro.perf.simulator import Simulator
from repro.resilience.faults import check_result_invariants
from repro.workloads import spec, trace_io

import grids
import metrics
import spans

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak RSS of this process, plus the largest child's when asked (MB)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


class Checker:
    """Compares cell results with the pins, or with a reference when unpinned.

    Unpinned seeds have no stored answer: on the simulation grids every
    pass must reproduce the first one, and on the service grid every
    record must match the serial ``Campaign.run`` record.
    """

    def __init__(self, pins):
        self.pins = pins
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, cid: str, digest) -> bool:
        """Count one cell; ``digest`` is None for a cell that errored."""
        self.attempted += 1
        expected = (self.pins if self.pins is not None else self.reference).get(cid)
        ok = digest is not None and (
            digest == expected or (self.pins is None and expected is None)
        )
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{cid}: got {digest}, expected {expected}")
        return ok


# ---------------------------------------------------------------------------
# Simulation grids
# ---------------------------------------------------------------------------
def sim_setup(seed: int):
    traces = [spec.spec_trace(name, scale=grids.SIM_SCALE, seed=seed) for name in grids.SIM_TRACES]
    for trace in traces:
        trace.fingerprint  # the input's digest is part of preparing it
    return traces


def sim_pass(workload: str, traces, checker: Checker) -> dict:
    """One pass over the grid with a cold simulator; returns its figures."""
    results = []
    latencies = []
    lines = 0
    started = time.perf_counter()
    sim = Simulator(stats_cache=StatsCache())

    def build(mapping_spec):
        return make_mapping(
            mapping_spec.kind,
            sim.config,
            gang_size=mapping_spec.gang_size,
            remap_rate=mapping_spec.remap_rate,
            segments=mapping_spec.segments,
        )

    # Static mappings are built once per grid, as the fig8 experiment
    # does; Rubix-D state evolves, so each cell gets a fresh mapping, as
    # Campaign._cell_mapping does.
    mappings = grids.sim_mappings(workload)
    shared = {m: build(m) for m in mappings if m.kind != "rubix-d"}
    for trace in traces:
        misses = sim.stats_cache.misses
        for mapping_spec in mappings:
            for scheme in grids.SCHEMES:
                mapping = shared[mapping_spec] if mapping_spec in shared else build(mapping_spec)
                cell_start = time.perf_counter()
                try:
                    result = sim.run(trace, mapping, scheme=scheme, t_rh=grids.T_RH)
                except Exception as error:  # counted as a failed cell below
                    result = error
                latencies.append(time.perf_counter() - cell_start)
                results.append((trace.name, mapping_spec, scheme, result))
        # Every cache miss analysed one window of this trace.
        lines += (sim.stats_cache.misses - misses) * int(trace.lines.size)
    wall = time.perf_counter() - started

    correct = 0
    for trace_name, mapping_spec, scheme, result in results:
        cid = grids.cell_id(trace_name, grids.mapping_label(mapping_spec), scheme, grids.T_RH)
        digest = None
        if not isinstance(result, Exception):
            try:
                check_result_invariants(result)
                digest = grids.result_digest(result)
            except Exception:
                digest = None
        if checker.pins is None and cid not in checker.reference and digest is not None:
            checker.reference[cid] = digest
        correct += checker.check(cid, digest)
    return {
        "wall": wall,
        "lines": lines,
        "correct": correct,
        "latencies": latencies,
        "hits": sim.stats_cache.hits + sim.stats_cache.disk_hits,
        "misses": sim.stats_cache.misses,
    }


def run_sim(args, checker: Checker, recorder, phases) -> dict:
    if recorder is not None:
        recorder.install()  # set-up layer: trace generation
    traces = sim_setup(args.seed)
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "phases": {}}
    if args.setup_only:
        return report
    if recorder is not None:
        recorder.uninstall()
        report["setup_spans"], recorder.spans = recorder.spans, []
    for phase, seconds in phases:
        if phase == "traced":
            recorder.install()
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(sim_pass(args.workload, traces, checker))
        if phase == "traced":
            recorder.uninstall()
        report["phases"][phase] = passes
    report["peak_rss_mb"] = peak_rss_mb()
    return report


# ---------------------------------------------------------------------------
# Service grid
# ---------------------------------------------------------------------------
def service_inputs(seed: int, directory: Path):
    """Write the service traces as ``.rtr`` files; returns (campaigns, lines per trace)."""
    files = {}
    lines_of = {}
    for name in grids.SERVICE_TRACES:
        trace = spec.spec_trace(name, scale=grids.SERVICE_SCALE, seed=seed)
        path = trace_io.save_trace_raw(trace, directory / f"{name}.rtr")
        files[name] = str(path.resolve())
        lines_of[name] = int(trace.lines.size)
    campaigns = [grids.service_campaign(files[t], s, th) for t, s, th in grids.service_plan()]
    return campaigns, lines_of


async def start_service(run_dir: Path, tag: str):
    """A fresh ``CampaignService`` with its own journal and cache directory."""
    from repro.service.scheduler import CampaignService, ServiceConfig

    config = ServiceConfig(
        workers=grids.SERVICE_WORKERS, stats_cache_dir=str(run_dir / f"cache-{tag}")
    )
    service = CampaignService(config, journal=run_dir / f"journal-{tag}.jsonl", resume=False)
    await service.start()
    # Set-up ends once every worker has registered with the scheduler.
    while service.stats()["workers_alive"] < grids.SERVICE_WORKERS:
        await asyncio.sleep(0.001)
    return service


async def service_session(service, campaigns, seconds: float) -> dict:
    """Closed-loop clients submit the campaigns in order until time is up."""
    queue = deque(enumerate(campaigns))
    outcomes = []  # (campaign index, records or None)
    latencies = []
    clients = min(2, os.cpu_count() or 1)
    deadline = time.perf_counter() + seconds

    async def client(name: str) -> None:
        while queue and time.perf_counter() < deadline:
            index, campaign = queue.popleft()
            submitted = time.perf_counter()
            try:
                handle = await service.submit(campaign, tenant=name)
                records = await asyncio.wait_for(handle.result(), timeout=60.0)
            except Exception:  # refused, failed or timed out: never committed
                records = None
            latencies.append(time.perf_counter() - submitted)
            outcomes.append((index, records))

    started = time.perf_counter()
    await asyncio.gather(*(client(f"client{i}") for i in range(clients)))
    wall = time.perf_counter() - started
    return {"wall": wall, "outcomes": outcomes, "latencies": latencies, "clients": clients}


def service_reference(campaigns, indices) -> dict:
    """``{cell_id: digest}`` of the serial in-process records of some campaigns."""
    reference = {}
    for index in indices:
        for record in campaigns[index].run():
            reference[grids.record_cell_id(record)] = grids.record_digest(record)
    return reference


def score_session(session: dict, campaigns, lines_of: dict, checker: Checker) -> dict:
    correct = 0
    lines = 0
    for index, records in session["outcomes"]:
        if records is None:
            for _ in range(campaigns[index].size()):
                checker.check(f"never-committed#{index}", None)
            continue
        for record in records:
            digest = grids.record_digest(record) if record.get("status") == "ok" else None
            if checker.check(grids.record_cell_id(record), digest):
                correct += 1
                lines += lines_of[grids.record_trace(record)]
    return {"correct": correct, "lines": lines}


async def run_service_grid(args, checker: Checker, recorder, phases, run_dir: Path) -> dict:
    if recorder is not None:
        recorder.install()  # set-up layers: trace generation and files
    campaigns, lines_of = service_inputs(args.seed, run_dir / "traces")
    report = {"phases": {}}
    if recorder is not None:
        recorder.uninstall()
        report["setup_spans"], recorder.spans = recorder.spans, []
    service = await start_service(run_dir, phases[0][0])
    report["setup_s"] = time.monotonic() - args.t0
    if args.setup_only:
        await service.stop()
        return report

    for number, (phase, seconds) in enumerate(phases):
        if number:
            if phase == "traced":
                recorder.dump_dir = run_dir / "worker-spans"
                recorder.dump_dir.mkdir()
                recorder.install()  # before the fork, so workers inherit it
            service = await start_service(run_dir, phase)
        session = await service_session(service, campaigns, seconds)
        stats = service.stats()
        await service.drain()
        if phase == "traced":
            recorder.uninstall()
            session["worker_spans"], session["worker_cache"] = spans.load_worker_dumps(
                recorder.dump_dir
            )
        session.update(
            stats=stats,
            busy_s=sum(entry["duration_s"] for entry in service.journal.timings().values()),
            disk_entries=len(list((run_dir / f"cache-{phase}").glob("*.npz"))),
        )
        report["phases"][phase] = session
    if checker.pins is None:
        submitted = {i for s in report["phases"].values() for i, _ in s["outcomes"]}
        checker.reference = service_reference(campaigns, sorted(submitted))
    for session in report["phases"].values():
        session.update(score_session(session, campaigns, lines_of, checker))
    report["peak_rss_mb"] = peak_rss_mb(include_children=True)
    return report


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    configure(enabled=False, verbosity=QUIET)
    pins = grids.load_pins(args.workload, args.seed)
    checker = Checker(pins)
    recorder = spans.Recorder() if args.trace else None
    if args.trace:
        phases = [("untraced", args.seconds / 2), ("traced", args.seconds / 2)]
    else:
        phases = [("untraced", args.seconds)]

    if args.workload == "service-grid":
        report = asyncio.run(run_service_grid(args, checker, recorder, phases, args.run_dir))
    else:
        report = run_sim(args, checker, recorder, phases)
    if args.setup_only:
        print(json.dumps({"setup_s": report["setup_s"]}))
        return 0

    print(f"env: python {sys.version.split()[0]}, numpy {numpy.__version__},"
          f" nproc {os.cpu_count()}")
    print(f"pins: {'seed ' + str(args.seed) if pins is not None else 'unpinned'}")
    for line in checker.mismatches:
        print(f"mismatch: {line}")
    if args.trace:
        values, lines = metrics.per_layer(args.workload, report, recorder)
    else:
        values, lines = metrics.end_to_end(args.workload, report)
    for line in lines:
        print(line)
    print(f"cell_error_ratio: {checker.failed / max(1, checker.attempted):.6f} ratio"
          f" ({checker.failed} of {checker.attempted} cells)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "values": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
