"""Benchmark the campaign engine: serial sweep vs service dispatch.

The parallel round is NOT asserted faster -- CI may have a single core,
where dispatching cells to the campaign service's workers adds pure
overhead.  What these benchmarks surface is (a) the per-cell cost of a
warm-cache serial sweep and (b) the fixed cost of fanning the same grid
out over service workers (spawn, registration, leases, drain), so
regressions in either path show up in the benchmark history.
"""

from repro.experiments.campaign import Campaign, MappingSpec

#: 3 workloads x 2 mappings x 1 scheme x 2 thresholds = 12 cells.
GRID = dict(
    workloads=["xz", "namd", "lbm"],
    mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
    schemes=["blockhammer"],
    thresholds=[128, 512],
    scale=0.05,
)


def _check(records):
    assert len(records) == 12
    assert all(record["status"] == "ok" for record in records)


def test_bench_campaign_serial(benchmark):
    _check(Campaign(**GRID).run())  # warm the trace/stats caches first
    records = benchmark.pedantic(
        lambda: Campaign(**GRID).run(), iterations=1, rounds=3
    )
    _check(records)


def test_bench_campaign_parallel(benchmark):
    _check(Campaign(**GRID).run())  # warm caches the forked workers inherit
    records = benchmark.pedantic(
        lambda: Campaign(**GRID).run(workers=2), iterations=1, rounds=3
    )
    _check(records)
