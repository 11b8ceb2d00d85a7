"""The content-keyed window-statistics cache shared by campaign workers.

:mod:`repro.parallel.cache` keys analysis results by content digest so
simulators in different processes (and runs) reuse rather than recompute
them; parallel cell execution itself lives in the campaign service
(:mod:`repro.service`), behind ``Campaign.run(workers=N)``.
"""

from repro.parallel.cache import (
    STATS_CACHE_ENV,
    StatsCache,
    default_persist_dir,
    stats_cache_key,
)

__all__ = [
    "STATS_CACHE_ENV",
    "StatsCache",
    "stats_cache_key",
    "default_persist_dir",
]
