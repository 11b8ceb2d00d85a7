"""``Campaign.run(workers=N)`` from inside a running event loop.

``workers > 1`` runs the grid on a campaign service driven by
``asyncio.run``, which cannot nest; notebook cells and async callers
already run a loop, and must still get the serial records.
"""

import asyncio

from repro.experiments.campaign import Campaign, MappingSpec


def make_campaign() -> Campaign:
    return Campaign(
        workloads=["xz"],
        mappings=[MappingSpec("coffeelake")],
        schemes=["aqua"],
        thresholds=[128, 512],
        scale=0.05,
    )


def test_workers_run_inside_a_running_event_loop():
    async def caller():
        campaign = make_campaign()
        return campaign.run(workers=2), campaign.cells_executed

    records, executed = asyncio.run(caller())
    assert records == make_campaign().run()
    assert executed == 2
