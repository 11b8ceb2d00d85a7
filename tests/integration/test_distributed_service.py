"""Integration tests: the campaign service over TCP matches serial runs.

The distributed acceptance contract: the same 24-cell grid (including
Rubix-D cells with mutable remap state) computed by socket workers on
the other side of a real TCP connection -- while the seeded wire-fault
layer drops, corrupts, truncates, delays, and duplicates completion
frames and severs connections -- still produces records byte-identical
to a serial ``Campaign.run``, with every cell committed to the journal
exactly once and lost work recovered through epoch-bumped re-dispatch.
Process faults apply to socket workers too: a kill schedule really
kills them.  And when no worker ever connects, the scheduler spawns
workers of its own rather than hanging.
"""

import asyncio

from repro.experiments.campaign import Campaign, MappingSpec
from repro.resilience.journal import CheckpointJournal
from repro.service import (
    KILLED_EXIT_CODE,
    CampaignService,
    ChaosSpec,
    ServiceConfig,
    cell_digest,
    planned_faults,
    planned_wire_faults,
    spawn_net_workers,
)

WORKLOADS = ["xz", "namd", "lbm"]
MAPPINGS = [
    MappingSpec("coffeelake"),
    MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
]

#: Verified to give the 24-cell grid's first-attempt schedule >= 2
#: connection drops, >= 1 corrupt frame, and >= 1 vanished frame
#: (asserted in test_wire_chaos_schedule_is_adversarial_enough).
WIRE_CHAOS = ChaosSpec(
    seed=1,
    wire_drop_frac=0.12,
    wire_corrupt_frac=0.15,
    wire_truncate_frac=0.08,
    wire_conn_drop_frac=0.10,
    wire_delay_frac=0.1,
    wire_delay_s=0.05,
    duplicate_frac=0.1,
)

#: Verified to plan one kill of each flavor on the 8-cell grid of
#: TestSocketWorkersApplyProcessFaults, so two of three workers die.
KILL_CHAOS = ChaosSpec(seed=6, kill_before_frac=0.1, kill_after_frac=0.1)

#: Short leases so a dropped completion frame expires inside test time;
#: a long fallback deadline so degraded mode never triggers while the
#: socket workers are the thing under test.
NET_CONFIG = dict(
    workers=3,
    lease_timeout_s=1.0,
    heartbeat_interval_s=0.15,
    listen="127.0.0.1:0",
    local_fallback_deadline_s=60.0,
    frame_timeout_s=5.0,
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


def grid_digests(campaign: Campaign) -> set:
    payload = campaign.parallel_payload()
    return {
        cell_digest(payload, campaign.cell_key(*cell)) for cell in campaign.cells()
    }


def run_distributed(campaign, *, config, n_workers, chaos=None, journal=None):
    """One campaign through a listening scheduler + socket workers.

    Workers are real spawned processes dialing the scheduler's ephemeral
    port; wire chaos (if any) runs worker-side, on real sockets.
    Returns (records, stats, worker_exitcodes).
    """
    processes = []

    async def _main():
        async with CampaignService(config, journal=journal) as service:
            processes.extend(
                spawn_net_workers(
                    service.listen_address, n_workers, chaos_spec=chaos
                )
            )
            handle = await service.submit(campaign)
            records = await handle.result()
            return records, service.stats()

    try:
        records, stats = asyncio.run(_main())
        for process in processes:
            process.join(timeout=10)
        return records, stats, [process.exitcode for process in processes]
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


class TestDistributedMatchesSerial:
    def test_24_cell_grid_identical_over_tcp(self):
        campaign = make_campaign()
        assert campaign.size() == 24
        serial = make_campaign().run()
        parallel = make_campaign().run(workers=4)
        networked, stats, exitcodes = run_distributed(
            make_campaign(), config=ServiceConfig(**NET_CONFIG), n_workers=3
        )
        assert networked == parallel == serial
        assert all(record["status"] == "ok" for record in networked)
        assert stats["committed"] == 24
        assert not stats["fallback_engaged"]
        assert exitcodes == [0, 0, 0]  # clean goodbye on drain


class TestDistributedUnderWireChaos:
    def test_wire_chaos_schedule_is_adversarial_enough(self):
        """The seed must actually produce the failure mix we claim to test."""
        campaign = make_campaign()
        keys = [campaign.cell_key(*cell) for cell in campaign.cells()]
        plan = [decision for _, decision in planned_wire_faults(WIRE_CHAOS, keys)]
        assert sum(d.drops_connection for d in plan) >= 2
        assert sum(d.fate == "corrupt" for d in plan) >= 1
        assert sum(d.fate == "drop" for d in plan) >= 1

    def test_chaos_run_matches_serial_with_exactly_once_journal(self, tmp_path):
        journal_path = tmp_path / "distributed.jsonl"
        serial = make_campaign().run()
        campaign = make_campaign()
        records, stats, _ = run_distributed(
            campaign,
            config=ServiceConfig(**NET_CONFIG),
            n_workers=3,
            chaos=WIRE_CHAOS,
            journal=journal_path,
        )
        assert records == serial  # byte-identical through every fault
        assert stats["committed"] == 24 and not stats["fallback_engaged"]
        # Exactly-once commitment despite dropped, duplicated, corrupted,
        # and torn completion frames: one journal entry per cell digest.
        entries = CheckpointJournal(journal_path).load()
        assert len(entries) == 24
        assert {entry["key"] for entry in entries} == grid_digests(campaign)
        # Lost frames and severed connections force re-dispatch: at
        # least one committed cell must carry a bumped epoch or a
        # second attempt -- proof recovery actually ran.
        redispatched = [
            entry for entry in entries if entry["epoch"] > 0 or entry["attempt"] > 1
        ]
        assert redispatched, "wire chaos must force at least one re-dispatch"
        for entry in entries:
            assert entry["attempt"] >= 1 and "lease_id" in entry


class TestSocketWorkersApplyProcessFaults:
    def test_kill_schedule_kills_socket_workers(self):
        grid = dict(workloads=["xz", "namd"], schemes=["aqua"])  # 8 cells
        campaign = make_campaign(**grid)
        keys = [campaign.cell_key(*cell) for cell in campaign.cells()]
        actions = [decision.action for _, decision in planned_faults(KILL_CHAOS, keys)]
        kills = sum(action in ("kill-before", "kill-after") for action in actions)
        assert "kill-before" in actions and "kill-after" in actions
        assert kills < 3, "one of the three workers must survive"
        records, stats, exitcodes = run_distributed(
            campaign, config=ServiceConfig(**NET_CONFIG), n_workers=3, chaos=KILL_CHAOS
        )
        assert records == make_campaign(**grid).run()
        assert stats["committed"] == 8 and not stats["fallback_engaged"]
        assert sorted(exitcodes) == [0] * (3 - kills) + [KILLED_EXIT_CODE] * kills


class TestDegradedMode:
    def test_no_workers_falls_back_to_local_pool(self):
        """A listening scheduler nobody dials still completes the grid."""
        campaign = make_campaign(
            workloads=["xz"], schemes=["aqua"], thresholds=[128, 512]
        )  # 4 cells
        serial = make_campaign(
            workloads=["xz"], schemes=["aqua"], thresholds=[128, 512]
        ).run()
        config = ServiceConfig(
            workers=2,
            listen="127.0.0.1:0",
            local_fallback_deadline_s=0.5,
            heartbeat_interval_s=0.15,
        )
        records, stats, _ = run_distributed(campaign, config=config, n_workers=0)
        assert records == serial
        assert stats["fallback_engaged"]
        assert stats["committed"] == 4
