"""Integration tests: the campaign service matches serial runs -- under chaos.

The acceptance contract of the fault-tolerant service: a 24-cell grid
(including Rubix-D cells with mutable remap state) submitted by
concurrent tenants, while the seeded chaos harness kills workers, stalls
heartbeats, and duplicates/reorders completions, still produces records
identical to a serial ``Campaign.run`` -- with every cell committed to
the journal exactly once, and a drained-then-restarted scheduler
resuming from that journal without recomputing anything.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.errors import ServiceSaturated
from repro.experiments.campaign import Campaign, MappingSpec, campaign_from_spec
from repro.resilience.journal import CheckpointJournal
from repro.service import (
    CampaignService,
    ChaosSpec,
    ServiceConfig,
    cell_digest,
    planned_faults,
    planned_wire_faults,
    run_service,
    truncate_journal_tail,
)

WORKLOADS = ["xz", "namd", "lbm"]
MAPPINGS = [
    MappingSpec("coffeelake"),
    MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
]

#: Chosen so the 24-cell grid's first-attempt schedule contains multiple
#: kills of *both* flavors, heartbeat-stalling hangs, and duplicated
#: completions (asserted in test_chaos_schedule_is_adversarial_enough).
CHAOS = ChaosSpec(
    seed=2,
    kill_before_frac=0.15,
    kill_after_frac=0.1,
    hang_frac=0.08,
    hang_s=1.5,
    duplicate_frac=0.15,
    reorder_every=4,
)

#: Process and wire faults in one schedule.  Chosen so the 24-cell grid
#: plans kills of both flavors and a hang, plus a corrupt frame and a
#: severed connection on cells whose worker survives to send them
#: (asserted in test_mixed_schedule_is_adversarial_enough).
MIXED_CHAOS = ChaosSpec(
    seed=10,
    kill_before_frac=0.1,
    kill_after_frac=0.1,
    hang_frac=0.08,
    hang_s=1.5,
    wire_corrupt_frac=0.15,
    wire_conn_drop_frac=0.1,
)

#: Short leases so hang-induced expiries happen inside test time.
CHAOS_CONFIG = ServiceConfig(
    workers=3,
    lease_timeout_s=0.8,
    heartbeat_interval_s=0.15,
    max_worker_restarts=64,
)


def make_campaign(**overrides) -> Campaign:
    kwargs = dict(
        workloads=WORKLOADS,
        mappings=MAPPINGS,
        schemes=["aqua", "blockhammer"],
        thresholds=[128, 512],
        scale=0.05,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


def grid_keys(campaign: Campaign) -> list:
    return [campaign.cell_key(*cell) for cell in campaign.cells()]


def grid_digests(campaign: Campaign) -> set:
    payload = campaign.parallel_payload()
    return {
        cell_digest(payload, campaign.cell_key(*cell)) for cell in campaign.cells()
    }


class TestServiceMatchesSerial:
    def test_24_cell_grid_identical_records(self):
        campaign = make_campaign()
        assert campaign.size() == 24
        serial = make_campaign().run()
        parallel = make_campaign().run(workers=4)
        [service] = run_service([make_campaign()], config=ServiceConfig(workers=3))
        assert service == parallel == serial
        assert all(record["status"] == "ok" for record in service)


class TestServiceUnderChaos:
    def test_chaos_schedule_is_adversarial_enough(self):
        """The seed must actually produce the failure mix we claim to test."""
        campaign = make_campaign()
        keys = [campaign.cell_key(*cell) for cell in campaign.cells()]
        plan = [decision for _, decision in planned_faults(CHAOS, keys)]
        kills = [d for d in plan if d.action in ("kill-before", "kill-after")]
        assert len(kills) >= 2, "chaos seed must kill at least two workers"
        assert any(d.action == "kill-before" for d in plan)
        assert any(d.action == "kill-after" for d in plan)
        assert any(d.action == "hang" for d in plan)
        assert sum(d.duplicate for d in plan) >= 2

    def test_chaos_run_matches_serial_with_exactly_once_journal(self, tmp_path):
        journal_path = tmp_path / "service.jsonl"
        serial = make_campaign().run()
        campaign = make_campaign()
        [records] = run_service(
            [campaign], config=CHAOS_CONFIG, journal=journal_path, chaos=CHAOS
        )
        assert records == serial
        # Exactly-once commitment: one journal entry per cell digest,
        # despite kills, re-dispatches, duplicates, and reordering.
        entries = CheckpointJournal(journal_path).load()
        assert len(entries) == 24
        assert {entry["key"] for entry in entries} == grid_digests(campaign)
        # Every committed entry is stamped with its lease identity.
        for entry in entries:
            assert entry["attempt"] >= 1 and "lease_id" in entry

    def test_concurrent_tenants_dedupe_and_converge(self, tmp_path):
        """Two overlapping grids under chaos: shared cells run once."""
        journal_path = tmp_path / "tenants.jsonl"
        alice = make_campaign(schemes=["aqua"])  # 12 cells
        bob = make_campaign(workloads=["xz", "namd"])  # 16 cells, 8 shared
        results = run_service(
            [make_campaign(schemes=["aqua"]), make_campaign(workloads=["xz", "namd"])],
            config=CHAOS_CONFIG,
            journal=journal_path,
            chaos=CHAOS,
            tenants=["alice", "bob"],
        )
        assert results[0] == alice.run()
        assert results[1] == bob.run()
        union = grid_digests(alice) | grid_digests(bob)
        entries = CheckpointJournal(journal_path).load()
        assert len(entries) == len(union)  # shared cells committed once
        assert {entry["key"] for entry in entries} == union


class TestOwnWorkersApplyEveryFault:
    """The service's own workers honour both halves of a ChaosSpec."""

    def test_mixed_schedule_is_adversarial_enough(self):
        keys = grid_keys(make_campaign())
        faults = dict(planned_faults(MIXED_CHAOS, keys))
        actions = {decision.action for decision in faults.values()}
        assert {"kill-before", "kill-after", "hang"} <= actions
        killed = {k for k, d in faults.items() if d.action.startswith("kill")}
        sent = [
            decision
            for key, decision in planned_wire_faults(MIXED_CHAOS, keys)
            if key not in killed
        ]
        assert any(decision.fate == "corrupt" for decision in sent)
        assert any(decision.drops_connection for decision in sent)

    def test_default_service_applies_process_and_wire_faults(self, tmp_path):
        journal_path = tmp_path / "mixed.jsonl"
        serial = make_campaign().run()
        campaign = make_campaign()
        kills = sum(
            decision.action in ("kill-before", "kill-after")
            for _, decision in planned_faults(MIXED_CHAOS, grid_keys(campaign))
        )

        async def main():
            async with CampaignService(
                CHAOS_CONFIG, journal=journal_path, chaos=MIXED_CHAOS
            ) as service:
                handle = await service.submit(campaign)
                records = await handle.result()
                # A kill-after on the last cell can resolve the handle
                # just before its worker's death is noticed.
                for _ in range(200):
                    if service.stats()["worker_restarts"] >= kills:
                        break
                    await asyncio.sleep(0.05)
                return records, service.stats()

        obs.reset()
        obs.configure(enabled=True)
        try:
            records, stats = asyncio.run(main())
            checksum_errors = obs.METRICS.counter_value(
                "service.transport.frame_errors", kind="checksum"
            )
        finally:
            obs.reset()
        assert records == serial
        entries = CheckpointJournal(journal_path).load()
        assert len(entries) == 24
        assert {entry["key"] for entry in entries} == grid_digests(campaign)
        # Every kill respawns one process; severed connections reconnect
        # and respawn nothing.
        assert stats["worker_restarts"] == kills
        # The corrupt completion frame really crossed the wire.
        assert checksum_errors >= 1


class TestDrainRestartResume:
    def test_restarted_scheduler_resumes_without_recompute(self, tmp_path):
        journal_path = tmp_path / "resume.jsonl"
        serial = make_campaign().run()
        # First service run: half the grid, under chaos.
        half = make_campaign(thresholds=[128])
        run_service([half], config=CHAOS_CONFIG, journal=journal_path, chaos=CHAOS)
        first_entries = {
            entry["key"]: entry for entry in CheckpointJournal(journal_path).load()
        }
        assert len(first_entries) == 12

        # Restarted scheduler, full grid, telemetry on: only the 12 new
        # cells may be dispatched; the committed ones replay byte-identically.
        obs.reset()
        obs.configure(enabled=True)
        try:
            [records] = run_service(
                [make_campaign()], config=ServiceConfig(workers=2), journal=journal_path
            )
            dispatches = obs.METRICS.counter_value("service.dispatches")
            resumed = obs.METRICS.counter_value("service.cells", result="resumed")
        finally:
            obs.reset()
        assert records == serial
        assert dispatches == 12, "committed cells must not be re-dispatched"
        assert resumed == 12
        second_entries = {
            entry["key"]: entry for entry in CheckpointJournal(journal_path).load()
        }
        assert len(second_entries) == 24
        for key, entry in first_entries.items():
            assert second_entries[key] == entry  # byte-identical resume

    def test_torn_journal_resumes_and_heals(self, tmp_path):
        journal_path = tmp_path / "torn.jsonl"
        serial = make_campaign().run()
        run_service([make_campaign()], config=ServiceConfig(workers=2), journal=journal_path)
        truncate_journal_tail(journal_path, seed=3)
        # The torn record's cell simply re-runs; everything else resumes.
        [records] = run_service(
            [make_campaign()], config=ServiceConfig(workers=2), journal=journal_path
        )
        assert records == serial
        entries = CheckpointJournal(journal_path).load()
        assert len(entries) == 24  # healed: the torn cell was re-committed


class TestAdmissionControl:
    def test_oversized_submission_is_rejected(self):
        async def main():
            config = ServiceConfig(workers=1, max_pending_cells=4)
            async with CampaignService(config) as service:
                small = make_campaign(
                    workloads=["xz"], schemes=["aqua"], thresholds=[128]
                )  # 2 cells: admitted
                handle = await service.submit(small, tenant="ok")
                with pytest.raises(ServiceSaturated) as exc_info:
                    await service.submit(make_campaign(), tenant="greedy")
                assert exc_info.value.context["limit"] == 4
                await handle.result()

        asyncio.run(main())

    def test_draining_service_refuses_submissions(self):
        async def main():
            async with CampaignService(ServiceConfig(workers=1)) as service:
                small = make_campaign(
                    workloads=["xz"], schemes=["aqua"], thresholds=[128]
                )
                handle = await service.submit(small)
                await handle.result()
                service._draining = True
                with pytest.raises(ServiceSaturated):
                    await service.submit(small)
                service._draining = False  # let __aexit__ drain normally

        asyncio.run(main())


class TestServiceWorkerEnvironment:
    def test_stats_cache_and_manifest_worker_identity(self, tmp_path, monkeypatch):
        """Satellite contract: service workers get the same REPRO_STATS_CACHE
        propagation as pool workers, and every spawned worker (including
        chaos respawns) is recorded in the run manifest."""
        from repro.obs.manifest import RunManifest
        from repro.parallel.cache import STATS_CACHE_ENV

        cache_dir = tmp_path / "stats"
        monkeypatch.setenv(STATS_CACHE_ENV, str(cache_dir))
        manifest = RunManifest.create("test.service", argv=[])
        campaign = make_campaign(workloads=["xz"], schemes=["blockhammer"], thresholds=[128])
        [records] = run_service(
            [campaign],
            config=ServiceConfig(workers=2, mp_context="spawn"),
            manifest=manifest,
        )
        assert all(record["status"] == "ok" for record in records)
        # 'spawn' workers start cold; their analyses must hit the shared
        # on-disk cache configured through the environment.
        assert list(cache_dir.glob("*.npz")), "service workers should use the env cache"
        assert len(manifest.workers) == 2
        for entry in manifest.workers:
            assert entry["worker_id"].startswith("w") and entry["pid"]
            assert entry["stats_cache_dir"] == str(cache_dir)
        # The manifest round-trips the worker list.
        path = manifest.finalize().write(tmp_path / "manifest.json")
        assert RunManifest.load(path).workers == manifest.workers

    def test_chaos_respawns_recorded_in_manifest(self, tmp_path):
        from repro.obs.manifest import RunManifest

        manifest = RunManifest.create("test.service.chaos", argv=[])
        [records] = run_service(
            [make_campaign()], config=CHAOS_CONFIG, chaos=CHAOS, manifest=manifest
        )
        assert all(record["status"] == "ok" for record in records)
        replacements = [w for w in manifest.workers if w["replaces"]]
        assert len(manifest.workers) > CHAOS_CONFIG.workers
        assert replacements, "killed workers should appear as respawns"


class TestSpecRoundTrip:
    def test_campaign_from_spec_matches_direct_construction(self):
        spec = {
            "workloads": WORKLOADS,
            "mappings": [
                "coffeelake",
                {"kind": "rubix-d", "gang_size": 4, "remap_rate": 0.01},
            ],
            "schemes": ["aqua", "blockhammer"],
            "thresholds": [128, 512],
            "scale": 0.05,
            "tenant": "alice",
        }
        campaign = campaign_from_spec(json.loads(json.dumps(spec)))
        direct = make_campaign()
        assert campaign.size() == direct.size() == 24
        assert [campaign.cell_key(*c) for c in campaign.cells()] == [
            direct.cell_key(*c) for c in direct.cells()
        ]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            campaign_from_spec({"workloads": ["xz"], "mapings": ["coffeelake"]})
        with pytest.raises(ValueError, match="mapping"):
            campaign_from_spec({"workloads": ["xz"], "mappings": [42]})
        with pytest.raises(ValueError):
            campaign_from_spec([1, 2, 3])
        # Campaigns have one kernel path; a spec that still names a
        # kernel tier must fail loudly rather than be silently ignored.
        with pytest.raises(ValueError, match=r"unknown campaign spec key\(s\): backend"):
            campaign_from_spec(
                {"workloads": ["xz"], "mappings": ["coffeelake"], "backend": "numpy"}
            )
