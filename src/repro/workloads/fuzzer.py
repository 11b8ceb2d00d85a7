"""Seeded sweep fuzzer over playbook specs, with auto-bisection.

The litex playbooks express parameter sweeps as ``start:end:step``
ranges; this module does the same for simulation.  A sweep is a base
playbook spec plus per-field axes::

    base  = double_sided_spec(victim_row=1000)
    sweep = {"rounds": "16:257:16"}                    # or explicit lists
    result = fuzz(base, sweep, config=FuzzConfig(t_rh=128))

:func:`fuzz` expands the axes into a cell grid, runs every cell through
the existing :class:`~repro.experiments.campaign.Campaign` engine (so
``workers=N`` parallelism, the content-keyed stats cache, resilience
boundaries, journals, and telemetry all apply unchanged -- each spec
travels as a self-contained ``playbook:<json>`` workload name), flags
the cells whose record shows hot rows under the grid's mapping, and
then *bisects*: starting from the first hot cell (deterministic grid
order), each swept intensity axis is binary-searched down to the
smallest swept value that still produces hot rows, yielding the minimal
pattern.  Everything is a pure function of (base, sweep, config), so a
fixed seed reproduces the identical result -- the property the CI smoke
(``scripts/fuzz_smoke.py``) pins.

Bisection assumes axes are *monotone*: larger values produce at least
as much row pressure (true for rounds/activations/intensities; not for
phases).  Non-numeric or non-monotone axes are simply kept at the hot
cell's value.

Axis paths are dotted and may index lists, so overlay parameters are
sweepable too: ``{"near_injections.0.every": "100:1000:100"}``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.campaign import Campaign, MappingSpec
from repro.obs.runtime import METRICS, TRACER
from repro.workloads.playbook import parse_range, validate_spec, workload_name_for


# ---------------------------------------------------------------------------
# Sweep expansion
# ---------------------------------------------------------------------------
def parse_axis(values: Union[str, Sequence]) -> List[Any]:
    """Expand one sweep axis: a ``start:end:step`` string or a list."""
    if isinstance(values, str):
        return list(parse_range(values))
    if isinstance(values, (list, tuple)):
        if not values:
            raise ValueError("sweep axes must not be empty")
        return list(values)
    raise ValueError(
        f"sweep axis must be a 'start:end:step' string or a list, got {values!r}"
    )


def set_path(spec: dict, path: str, value: Any) -> dict:
    """Return a deep copy of ``spec`` with the dotted ``path`` replaced.

    Integer segments index into lists (``near_injections.0.every``).
    The path must already exist -- a typo'd axis name must fail loudly,
    not silently sweep nothing.
    """
    out = copy.deepcopy(spec)
    node: Any = out
    segments = path.split(".")
    for i, segment in enumerate(segments):
        last = i == len(segments) - 1
        if isinstance(node, list):
            try:
                index = int(segment)
            except ValueError as error:
                raise ValueError(
                    f"axis '{path}': segment '{segment}' must be a list index"
                ) from error
            if not 0 <= index < len(node):
                raise ValueError(
                    f"axis '{path}': index {index} out of range for list of {len(node)}"
                )
            if last:
                node[index] = value
            else:
                node = node[index]
        elif isinstance(node, dict):
            if segment not in node:
                raise ValueError(
                    f"axis '{path}': key '{segment}' not present in the base spec"
                    " (sweep axes must name existing fields)"
                )
            if last:
                node[segment] = value
            else:
                node = node[segment]
        else:
            raise ValueError(
                f"axis '{path}': cannot descend into {type(node).__name__} at '{segment}'"
            )
    return out


def expand_sweep(
    base: dict, sweep: Dict[str, Union[str, Sequence]]
) -> List[Tuple[Dict[str, Any], dict]]:
    """Cartesian grid of (overrides, spec) cells, in deterministic order.

    Axes iterate in sorted name order; each axis in its given value
    order.  Every produced spec is validated up front, so a sweep that
    would generate an invalid cell fails before any simulation runs.
    """
    validate_spec(base)
    if not sweep:
        raise ValueError("sweep needs at least one axis")
    names = sorted(sweep)
    axes = [parse_axis(sweep[name]) for name in names]
    cells: List[Tuple[Dict[str, Any], dict]] = []
    for combo in product(*axes):
        overrides = dict(zip(names, combo))
        spec = base
        for name, value in overrides.items():
            spec = set_path(spec, name, value)
        validate_spec(spec)
        cells.append((overrides, spec))
    return cells


# ---------------------------------------------------------------------------
# Fuzz configuration / result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzConfig:
    """How sweep cells are evaluated and what counts as 'hot'."""

    #: Mapping every cell is *evaluated* under (the spec's
    #: ``target_mapping`` governs what it is *constructed* against).
    mapping: MappingSpec = MappingSpec("coffeelake")
    scheme: str = "none"
    t_rh: int = 128
    #: Record field that measures row pressure (``hot_rows_64`` /
    #: ``hot_rows_512``).
    metric: str = "hot_rows_64"
    #: A cell is hot when record[metric] >= min_hot_rows.
    min_hot_rows: int = 1
    #: Cap on evaluated grid cells; larger grids are subsampled with the
    #: seeded RNG below (0 = no cap).
    max_cells: int = 0
    seed: int = 0
    workers: int = 1
    stats_cache_dir: Optional[str] = None


@dataclass
class FuzzResult:
    """Outcome of one sweep + bisection."""

    #: One entry per evaluated cell: {"overrides", "workload", "record", "hot"}.
    cells: List[dict]
    #: Overrides of the seed cell bisection started from (None = no hot cell).
    seed_overrides: Optional[Dict[str, Any]]
    #: Minimal hot overrides after per-axis bisection (None = no hot cell).
    minimal_overrides: Optional[Dict[str, Any]]
    #: The minimal spec itself, ready for compile_playbook.
    minimal_spec: Optional[dict]
    #: Record of the minimal cell's evaluation.
    minimal_record: Optional[dict]
    #: Extra single-cell evaluations spent bisecting.
    probes: int = 0
    #: Cells dropped by the max_cells subsample (0 = full grid).
    skipped_cells: int = 0

    @property
    def hot_cells(self) -> List[dict]:
        """The evaluated cells that produced hot rows."""
        return [cell for cell in self.cells if cell["hot"]]


# ---------------------------------------------------------------------------
# Evaluation through the campaign engine
# ---------------------------------------------------------------------------
def _is_hot(record: dict, config: FuzzConfig) -> bool:
    return (
        record.get("status") == "ok"
        and int(record.get(config.metric, 0)) >= config.min_hot_rows
    )


def _campaign(workloads: Sequence[str], config: FuzzConfig) -> Campaign:
    return Campaign(
        workloads=list(workloads),
        mappings=[config.mapping],
        schemes=[config.scheme],
        thresholds=[config.t_rh],
        scale=1.0,
    )


def _evaluate(
    specs: Sequence[dict], config: FuzzConfig, *, workers: Optional[int] = None
) -> List[dict]:
    """Run specs through the campaign engine; one record per spec.

    Duplicate specs (identical canonical JSON) collapse to one campaign
    cell and share its record -- sweeps whose axes collide stay valid.
    """
    names = [workload_name_for(spec) for spec in specs]
    unique = list(dict.fromkeys(names))
    records = _campaign(unique, config).run(
        workers=workers if workers is not None else config.workers,
        stats_cache_dir=config.stats_cache_dir,
    )
    by_name = {record["workload"]: record for record in records}
    return [by_name[name] for name in names]


# ---------------------------------------------------------------------------
# The fuzzer
# ---------------------------------------------------------------------------
def fuzz(
    base: dict, sweep: Dict[str, Union[str, Sequence]], *, config: FuzzConfig = FuzzConfig()
) -> FuzzResult:
    """Expand, evaluate, and bisect one sweep; fully deterministic."""
    cells = expand_sweep(base, sweep)
    skipped = 0
    if config.max_cells and len(cells) > config.max_cells:
        rng = np.random.default_rng(config.seed)
        keep = np.sort(rng.choice(len(cells), size=config.max_cells, replace=False))
        skipped = len(cells) - config.max_cells
        cells = [cells[i] for i in keep.tolist()]

    with TRACER.span("fuzz.sweep", cells=len(cells)):
        records = _evaluate([spec for _, spec in cells], config)
    results = []
    for (overrides, spec), record in zip(cells, records):
        hot = _is_hot(record, config)
        if METRICS.enabled:
            status = "hot" if hot else ("cold" if record.get("status") == "ok" else "error")
            METRICS.inc("fuzz.cells", result=status)
        results.append(
            {
                "overrides": overrides,
                "workload": workload_name_for(spec),
                "record": record,
                "hot": hot,
            }
        )

    seed_cell = next((cell for cell in results if cell["hot"]), None)
    if seed_cell is None:
        return FuzzResult(
            cells=results,
            seed_overrides=None,
            minimal_overrides=None,
            minimal_spec=None,
            minimal_record=None,
            probes=0,
            skipped_cells=skipped,
        )

    minimal_overrides, minimal_spec, minimal_record, probes = _bisect(
        base, sweep, dict(seed_cell["overrides"]), seed_cell["record"], config
    )
    return FuzzResult(
        cells=results,
        seed_overrides=dict(seed_cell["overrides"]),
        minimal_overrides=minimal_overrides,
        minimal_spec=minimal_spec,
        minimal_record=minimal_record,
        probes=probes,
        skipped_cells=skipped,
    )


def _spec_with(base: dict, overrides: Dict[str, Any]) -> dict:
    spec = base
    for name, value in overrides.items():
        spec = set_path(spec, name, value)
    return spec


def _bisect(
    base: dict,
    sweep: Dict[str, Union[str, Sequence]],
    overrides: Dict[str, Any],
    record: dict,
    config: FuzzConfig,
) -> Tuple[Dict[str, Any], dict, dict, int]:
    """Shrink each numeric axis to its minimal still-hot swept value.

    Coordinate descent in sorted axis order: for each axis, binary
    search the sorted swept values at or below the current one (probes
    run single-cell through the campaign engine, so the stats cache
    dedupes repeats).  Axes whose values are not numbers are left at the
    seed cell's value.
    """
    probes = 0

    def hot_at(candidate: Dict[str, Any]) -> Tuple[bool, dict]:
        nonlocal probes
        probes += 1
        if METRICS.enabled:
            METRICS.inc("fuzz.probes")
        (result,) = _evaluate([_spec_with(base, candidate)], config, workers=1)
        return _is_hot(result, config), result

    with TRACER.span("fuzz.bisect", axes=len(sweep)):
        for axis in sorted(sweep):
            current = overrides[axis]
            if isinstance(current, bool) or not isinstance(current, (int, float)):
                continue
            values = sorted(v for v in parse_axis(sweep[axis]) if v <= current)
            lo, hi = 0, values.index(current)
            best_record = record
            while lo < hi:
                mid = (lo + hi) // 2
                candidate = dict(overrides)
                candidate[axis] = values[mid]
                hot, probe_record = hot_at(candidate)
                if hot:
                    hi = mid
                    best_record = probe_record
                else:
                    lo = mid + 1
            overrides[axis] = values[lo]
            record = best_record if values[lo] != current else record
    return overrides, _spec_with(base, overrides), record, probes


__all__ = [
    "FuzzConfig",
    "FuzzResult",
    "parse_axis",
    "set_path",
    "expand_sweep",
    "fuzz",
]
