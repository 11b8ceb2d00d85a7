#!/usr/bin/env python3
"""CI smoke test for the distributed (socket-transport) campaign service.

Exercises the network failure envelope end to end on a small grid:

1. a serial run establishes the expected records;
2. the wire-chaos schedule for the chosen seed is precomputed and
   asserted (>= 2 severed connections, >= 1 corrupt frame, >= 1 frame
   lost in the network), so the smoke cannot silently degrade into a
   clean-wire run;
3. the grid is submitted to a scheduler listening on an ephemeral
   127.0.0.1 port, computed by three spawned socket workers whose
   completion frames are dropped, corrupted, torn, delayed, and
   duplicated, and whose connections are severed, by the seeded chaos
   layer -- against real sockets, so the CRC check, nack/resend path,
   lease-expiry re-dispatch, and reconnect backoff being exercised are
   the production code paths;
4. mid-run, the scheduler's live observability endpoint must answer:
   GET /metrics with a non-empty Prometheus exposition, GET /healthz
   with status "ok" (HTTP 200), and GET /status with live per-worker
   and cell-progress data (>= 1 live worker while cells are in flight);
5. the converged records must match the serial reference exactly, the
   journal must hold exactly one commit per cell digest, and at least
   one commit must carry a bumped epoch or second attempt (proof the
   recovery machinery actually ran);
6. the telemetry events must reassemble into a single rooted trace:
   the scheduler's service.submit span plus campaign.cell spans from
   >= 2 other processes (the socket workers), with zero orphans;
7. a scheduler that listens but is never dialed must spawn workers of
   its own at its fallback deadline and still complete.

Exit status 0 on success, 1 on any mismatch.  Telemetry is always on
for this smoke: artifacts land in REPRO_TELEMETRY_DIR when set (the CI
validation stage does this, then runs scripts/validate_telemetry.py
--traces over them) or in a private temp dir otherwise.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.experiments.campaign import Campaign, MappingSpec
from repro.obs import runtime as obs_runtime
from repro.obs.assemble import assemble_traces
from repro.obs.live import PROMETHEUS_CONTENT_TYPE
from repro.obs.manifest import RunManifest
from repro.resilience.journal import CheckpointJournal
from repro.service import (
    CampaignService,
    ChaosSpec,
    ServiceConfig,
    cell_digest,
    planned_wire_faults,
    spawn_net_workers,
)

MAPPINGS = [
    MappingSpec("coffeelake"),
    MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
]

#: Seed 6 is verified below to sever >= 2 connections, corrupt >= 1
#: frame, and lose >= 1 frame outright on this 8-cell grid.
WIRE_CHAOS = ChaosSpec(
    seed=6,
    wire_drop_frac=0.15,
    wire_corrupt_frac=0.2,
    wire_truncate_frac=0.1,
    wire_conn_drop_frac=0.15,
    wire_delay_frac=0.1,
    wire_delay_s=0.05,
    duplicate_frac=0.15,
)

#: Short leases so a lost completion frame expires inside smoke time; a
#: long fallback deadline so degraded mode cannot mask a worker bug.
#: status_listen exposes the live /metrics//healthz//status endpoint on
#: an ephemeral port the smoke probes mid-run.
CONFIG = ServiceConfig(
    workers=2,
    lease_timeout_s=1.0,
    heartbeat_interval_s=0.15,
    listen="127.0.0.1:0",
    local_fallback_deadline_s=60.0,
    frame_timeout_s=5.0,
    status_listen="127.0.0.1:0",
)

N_WORKERS = 3


def make_campaign() -> Campaign:
    return Campaign(
        workloads=["xz", "lbm"],
        mappings=MAPPINGS,
        schemes=["blockhammer"],
        thresholds=[128, 512],
        scale=0.05,
    )  # 8 cells


def grid_digests(campaign: Campaign) -> set:
    payload = campaign.parallel_payload()
    return {
        cell_digest(payload, campaign.cell_key(*cell)) for cell in campaign.cells()
    }


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def run_distributed(campaign, *, config, n_workers, chaos, journal, manifest, probe=None):
    """One campaign over real TCP; returns (records, stats, exitcodes).

    ``probe`` is an optional ``async probe(service)`` awaited after the
    submission is in flight and before its result -- the smoke uses it
    to hit the live observability endpoint mid-run.
    """
    processes = []

    async def _main():
        async with CampaignService(
            config, journal=journal, manifest=manifest
        ) as service:
            if n_workers:
                processes.extend(
                    spawn_net_workers(
                        service.listen_address,
                        n_workers,
                        chaos_spec=chaos,
                        obs_config=obs_runtime.export_config(),
                    )
                )
            handle = await service.submit(campaign)
            if probe is not None:
                await probe(service)
            return await handle.result(), service.stats()

    try:
        records, stats = asyncio.run(_main())
        for process in processes:
            process.join(timeout=15)
        return records, stats, [process.exitcode for process in processes]
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


def ensure_telemetry() -> Path:
    """Telemetry is mandatory for this smoke (endpoint + trace checks).

    Honors an externally-set REPRO_TELEMETRY_DIR (CI validates that
    directory afterwards); otherwise claims a private temp dir.  The
    env var is (re)exported either way so spawned socket workers write
    their event streams into the same directory.
    """
    directory = obs_runtime.telemetry_dir()
    if directory is None:
        directory = Path(tempfile.mkdtemp(prefix="rubix-smoke-telemetry-"))
    os.environ[obs_runtime.TELEMETRY_DIR_ENV] = str(directory)
    obs_runtime.configure(enabled=True, telemetry_dir=directory)
    return directory


def _fetch(url: str):
    """Blocking GET -> (status, content type, body bytes)."""
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type", ""), response.read()


async def probe_endpoints(service) -> None:
    """Hit /metrics, /healthz, /status mid-run; raise on any dead route.

    Runs between submit() and the result await, so cells are genuinely
    in flight.  Polls /status until at least one worker is alive (the
    socket workers may still be dialing when the probe starts).
    """
    loop = asyncio.get_running_loop()
    base = f"http://{service.status_address}"

    status, ctype, body = await loop.run_in_executor(None, _fetch, base + "/metrics")
    if status != 200 or ctype != PROMETHEUS_CONTENT_TYPE or not body.strip():
        raise AssertionError(
            f"/metrics mid-run: status={status} type={ctype!r} bytes={len(body)}"
        )

    status, _, body = await loop.run_in_executor(None, _fetch, base + "/healthz")
    health = json.loads(body)
    if status != 200 or health.get("status") != "ok":
        raise AssertionError(f"/healthz mid-run: status={status} payload={health}")

    deadline = time.monotonic() + 30.0
    payload = {}
    while time.monotonic() < deadline:
        status, _, body = await loop.run_in_executor(None, _fetch, base + "/status")
        payload = json.loads(body)
        if status != 200:
            raise AssertionError(f"/status mid-run: HTTP {status}")
        if payload.get("workers_alive", 0) >= 1 and payload.get("cells"):
            break
        await asyncio.sleep(0.2)
    else:
        raise AssertionError(f"/status never showed live workers: {payload}")
    if payload.get("cells") != 8:
        raise AssertionError(f"/status cells={payload.get('cells')}, expected 8")
    if not isinstance(payload.get("workers"), list) or not payload["workers"]:
        raise AssertionError("/status carries no per-worker detail")
    print(
        f"live endpoint at {service.status_address}: /metrics, /healthz, /status"
        f" answered mid-run ({payload['workers_alive']} workers alive,"
        f" {payload['committed']}/{payload['cells']} cells committed)"
    )


def check_trace_tree(directory: Path) -> str:
    """Assert one rooted submit trace spanning >= 3 processes; '' if ok."""
    trees = [
        tree
        for tree in assemble_traces(directory)
        if any(span.name == "service.submit" for span in tree.spans.values())
    ]
    if not trees:
        return "no assembled trace contains a service.submit span"
    # The chaos run is this process's only service.submit submission so
    # far; take the earliest such trace.
    tree = trees[0]
    if tree.root is None:
        return (
            f"submit trace {tree.trace_id} has {len(tree.roots)} roots,"
            " expected exactly one"
        )
    if tree.root.name != "service.submit":
        return f"submit trace rooted at {tree.root.name!r}, not service.submit"
    if tree.orphans:
        return (
            f"submit trace {tree.trace_id} has {len(tree.orphans)} orphan"
            " span(s) whose parents never landed"
        )
    cell_pids = {
        span.pid for span in tree.spans.values() if span.name == "campaign.cell"
    }
    worker_pids = cell_pids - {tree.root.pid}
    if len(worker_pids) < 2:
        return (
            f"submit trace holds cell spans from only {len(worker_pids)}"
            f" worker process(es); expected >= 2"
        )
    print(
        f"trace tree: {tree.span_count()} spans from {len(tree.pids)} processes"
        f" assemble under one service.submit root"
        f" ({len(worker_pids)} worker pids, 0 orphans)"
    )
    return ""


def main() -> int:
    telemetry_dir = ensure_telemetry()
    campaign = make_campaign()
    keys = [campaign.cell_key(*cell) for cell in campaign.cells()]
    plan = [decision for _, decision in planned_wire_faults(WIRE_CHAOS, keys)]
    severed = sum(d.drops_connection for d in plan)
    corrupt = sum(d.fate == "corrupt" for d in plan)
    lost = sum(d.fate == "drop" for d in plan)
    print(
        f"wire-chaos schedule over {len(keys)} cells: {severed} severed"
        f" connections, {corrupt} corrupt frames, {lost} lost frames"
    )
    if severed < 2 or corrupt < 1 or lost < 1:
        return fail("wire-chaos seed is no longer adversarial; pick a new seed")

    expected = make_campaign().run()
    print(f"serial reference: {len(expected)} records")

    manifest = RunManifest.create(
        "distributed_smoke",
        config={"cells": len(keys), "net_workers": N_WORKERS, "chaos_seed": WIRE_CHAOS.seed},
    )
    with tempfile.TemporaryDirectory(prefix="rubix-distributed-smoke-") as tmp:
        journal_path = Path(tmp) / "distributed.jsonl"
        records, stats, exitcodes = run_distributed(
            make_campaign(),
            config=CONFIG,
            n_workers=N_WORKERS,
            chaos=WIRE_CHAOS,
            journal=journal_path,
            manifest=manifest,
            probe=probe_endpoints,
        )
        if records != expected:
            return fail("distributed chaos-run records differ from the serial run")
        print("chaos run over TCP: records match the serial reference")
        if stats["fallback_engaged"]:
            return fail("degraded mode engaged while socket workers were alive")
        if any(code != 0 for code in exitcodes):
            return fail(f"socket workers exited uncleanly: {exitcodes}")
        print(f"workers: {N_WORKERS} socket workers drained cleanly (exit 0)")

        digests = grid_digests(campaign)
        entries = CheckpointJournal(journal_path).load()
        if len(entries) != len(digests):
            return fail(
                f"journal holds {len(entries)} commits for {len(digests)} cells"
                " (exactly-once violated)"
            )
        if {entry["key"] for entry in entries} != digests:
            return fail("journal digests do not cover the submitted grid")
        redispatched = [
            entry for entry in entries if entry["epoch"] > 0 or entry["attempt"] > 1
        ]
        if not redispatched:
            return fail("wire chaos forced no re-dispatch (recovery never ran)")
        print(
            f"journal: exactly one commit per cell ({len(entries)} total,"
            f" {len(redispatched)} recovered via re-dispatch)"
        )

        trace_error = check_trace_tree(telemetry_dir)
        if trace_error:
            return fail(trace_error)

    # Degraded mode: a listening scheduler nobody dials must spawn
    # workers of its own and still complete.
    fallback_config = ServiceConfig(
        workers=2,
        listen="127.0.0.1:0",
        local_fallback_deadline_s=0.5,
        heartbeat_interval_s=0.15,
    )
    records, stats, _ = run_distributed(
        make_campaign(),
        config=fallback_config,
        n_workers=0,
        chaos=None,
        journal=None,
        manifest=manifest,
    )
    if records != expected:
        return fail("degraded-mode records differ from the serial run")
    if not stats["fallback_engaged"]:
        return fail("scheduler with zero workers never engaged local fallback")
    print("degraded mode: zero workers -> local pool completed identically")

    if obs_runtime.telemetry_dir() is not None:
        obs_runtime.write_telemetry(manifest=manifest)
        print(f"telemetry written to {obs_runtime.telemetry_dir()}")

    print("OK: distributed smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
