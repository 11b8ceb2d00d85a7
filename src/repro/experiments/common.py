"""Shared plumbing for the experiment runners.

Process-level caches keep the expensive artifacts -- generated traces
and per-(trace, mapping) window statistics -- shared across experiments,
so running the whole suite costs one analysis pass per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_keyed_xor import KeyedXorMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import DRAMConfig, baseline_config, multichannel_config
from repro.errors import MappingConfigError, WorkloadConfigError
from repro.mapping.base import AddressMapping
from repro.mapping.intel import CoffeeLakeMapping, SkylakeMapping
from repro.mapping.linear import LinearMapping
from repro.mapping.mop import MOPMapping
from repro.mapping.stride import LargeStrideMapping
from repro.obs.runtime import METRICS, TRACER
from repro.parallel.cache import StatsCache, default_persist_dir
from repro.perf.simulator import Simulator
from repro.workloads.mixes import mix_names, mix_trace
from repro.workloads.playbook import (
    compile_playbook,
    is_playbook_workload,
    spec_from_workload,
)
from repro.workloads.spec import spec_names, spec_trace
from repro.workloads.stream_suite import stream_suite_names, stream_suite_trace
from repro.workloads.trace import Trace


@dataclass
class ExperimentResult:
    """Formatted output of one experiment (one table or figure)."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)

    def format(self) -> str:
        """Render as an aligned text table."""
        cells = [self.headers] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [max(len(str(r[i])) for r in cells) for i in range(len(self.headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form (for --json exports and tooling)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent, default=str)

    def column(self, header: str) -> List[object]:
        """Extract one column by header name (used by tests)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_map(self, key_header: str = None) -> Dict[object, List[object]]:
        """Index rows by their first (or named) column."""
        index = 0 if key_header is None else self.headers.index(key_header)
        return {row[index]: row for row in self.rows}


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


# ---------------------------------------------------------------------------
# Shared caches
# ---------------------------------------------------------------------------
_SIMULATORS: Dict[Tuple, Simulator] = {}
_TRACES: Dict[Tuple, Trace] = {}


def get_simulator(config: Optional[DRAMConfig] = None) -> Simulator:
    """Process-wide simulator for one DRAM geometry.

    When the ``REPRO_STATS_CACHE`` environment variable names a
    directory, the simulator's window-statistics cache persists there --
    successive runs and service workers then share one content-keyed
    cache on disk.
    """
    config = config or baseline_config()
    key = (config.channels, config.ranks, config.banks, config.rows_per_bank)
    if key not in _SIMULATORS:
        _SIMULATORS[key] = Simulator(
            config, stats_cache=StatsCache(persist_dir=default_persist_dir())
        )
    return _SIMULATORS[key]


def workload_names() -> List[str]:
    """Every workload name :func:`get_trace` accepts, in one namespace."""
    return (
        list(spec_names())
        + mix_names()
        + [f"stream-{kernel}" for kernel in stream_suite_names()]
    )


def validate_workload(name: str) -> str:
    """Fail fast on unknown workload names, listing the valid options.

    ``playbook:<json>`` names carry their whole spec inline (see
    :mod:`repro.workloads.playbook`); they are validated structurally
    here -- malformed JSON or bad spec fields fail before any cell runs.
    ``file:<path>`` names point at persisted trace files (npz bundles or
    zero-copy raw ``.rtr`` traces, see :mod:`repro.workloads.trace_io`);
    the path must exist up front so a sweep never dies mid-grid on a
    typo'd trace path.
    """
    if name.startswith("file:"):
        from pathlib import Path

        if not Path(name[5:]).is_file():
            raise WorkloadConfigError(
                f"trace file workload points at no file: {name[5:]!r}", workload=name
            )
        return name
    if is_playbook_workload(name):
        try:
            spec_from_workload(name)
            _playbook_mapping_kwargs(spec_from_workload(name).get("target_mapping"))
        except ValueError as error:
            raise WorkloadConfigError(
                f"bad playbook workload: {error}", workload=name
            ) from error
        return name
    known = workload_names()
    if name not in known:
        raise WorkloadConfigError(
            f"unknown workload '{name}'; known: {', '.join(known)}",
            workload=name,
        )
    return name


def _playbook_mapping_kwargs(target) -> Optional[dict]:
    """Normalize a spec's ``target_mapping`` into make_mapping kwargs.

    Accepts a mapping short name or a dict of
    ``{kind, gang_size, seed, remap_rate, segments}``; None defaults to
    the Coffee Lake baseline (the mapping a no-knowledge-of-Rubix
    attacker would target).  Returns None for line-space specs that need
    no mapping at all.
    """
    if target is None:
        return {"name": "coffeelake"}
    if isinstance(target, str):
        if target not in MAPPING_NAMES:
            raise ValueError(
                f"unknown target_mapping '{target}'; known: {', '.join(MAPPING_NAMES)}"
            )
        return {"name": target}
    if isinstance(target, dict):
        allowed = {"kind", "gang_size", "seed", "remap_rate", "segments"}
        unknown = set(target) - allowed
        if unknown:
            raise ValueError(
                f"unknown target_mapping key(s): {', '.join(sorted(unknown))};"
                f" allowed: {', '.join(sorted(allowed))}"
            )
        if "kind" not in target:
            raise ValueError("target_mapping dicts need a 'kind'")
        kwargs = {"name": str(target["kind"])}
        if kwargs["name"] not in MAPPING_NAMES:
            raise ValueError(
                f"unknown target_mapping '{kwargs['name']}';"
                f" known: {', '.join(MAPPING_NAMES)}"
            )
        for key in ("gang_size", "seed", "segments"):
            if key in target:
                kwargs[key] = int(target[key])
        if "remap_rate" in target:
            kwargs["remap_rate"] = float(target["remap_rate"])
        return kwargs
    raise ValueError(
        f"target_mapping must be a mapping name or an object, got {target!r}"
    )


def _playbook_trace(name: str, *, scale: float) -> Trace:
    """Compile a ``playbook:<json>`` workload into its trace.

    The spec's ``target_mapping`` names the mapping the *attacker*
    constructs the pattern against (default Coffee Lake, on the baseline
    geometry); the campaign then evaluates the resulting fixed trace
    under each grid mapping -- exactly the threat-model split the Rubix
    analysis needs (construct vs evaluate mappings may differ).
    """
    spec = spec_from_workload(name)
    mapping = None
    if spec.get("address_space", "row") != "line":
        kwargs = _playbook_mapping_kwargs(spec.get("target_mapping"))
        mapping = make_mapping(**kwargs)
    return compile_playbook(spec, mapping, scale=scale)


def get_trace(
    name: str,
    *,
    scale: float = 0.5,
    cores: int = 4,
    line_addr_bits: int = 28,
) -> Trace:
    """Cached workload trace by name.

    Accepts SPEC names ('blender'), mixes ('mix3'), STREAM kernels
    ('stream-copy'), and persisted trace files ('file:/path/to.rtr'),
    in one namespace.  Unknown names raise
    :class:`~repro.errors.WorkloadConfigError` listing the options.

    ``file:`` workloads load as written -- ``scale``/``cores`` describe
    generation and do not re-scale a persisted trace; raw ``.rtr``
    files open as zero-copy memmaps, so even multi-hundred-million-line
    inputs cost O(1) memory here.
    """
    validate_workload(name)
    key = (name, round(scale, 6), cores, line_addr_bits)
    if key in _TRACES:
        return _TRACES[key]
    with TRACER.span("trace.gen", workload=name, scale=scale):
        if name.startswith("file:"):
            from repro.workloads.trace_io import load_trace

            trace = load_trace(name[5:])
        elif is_playbook_workload(name):
            trace = _playbook_trace(name, scale=scale)
        elif name.startswith("mix"):
            trace = mix_trace(name, line_addr_bits=line_addr_bits, scale=scale)
        elif name.startswith("stream-"):
            trace = stream_suite_trace(
                name.split("-", 1)[1], line_addr_bits=line_addr_bits, scale=scale
            )
        else:
            trace = spec_trace(
                name, line_addr_bits=line_addr_bits, scale=scale, cores=cores
            )
    # Playbook names embed whole JSON specs (and file names embed
    # paths); fold each family into one label value so a sweep cannot
    # blow the metric-cardinality cap.
    if is_playbook_workload(name):
        label = "playbook"
    elif name.startswith("file:"):
        label = "file"
    else:
        label = name
    METRICS.inc("trace.generated", workload=label)
    _TRACES[key] = trace
    return trace


def clear_caches() -> None:
    """Drop all cached traces and simulators (tests use this)."""
    _SIMULATORS.clear()
    _TRACES.clear()


# ---------------------------------------------------------------------------
# Mapping factory
# ---------------------------------------------------------------------------
#: Mapping names accepted by :func:`make_mapping`.
MAPPING_NAMES = (
    "coffeelake",
    "skylake",
    "mop",
    "stride",
    "linear",
    "rubix-s",
    "rubix-d",
    "keyed-xor",
)


def make_mapping(
    name: str,
    config: Optional[DRAMConfig] = None,
    *,
    gang_size: int = 4,
    seed: int = 2024,
    remap_rate: float = 0.01,
    segments: int = 1,
) -> AddressMapping:
    """Construct a mapping by short name."""
    config = config or baseline_config()
    if name == "coffeelake":
        return CoffeeLakeMapping(config)
    if name == "skylake":
        return SkylakeMapping(config)
    if name == "mop":
        return MOPMapping(config)
    if name == "stride":
        return LargeStrideMapping(config, gang_size=gang_size)
    if name == "linear":
        return LinearMapping(config)
    if name == "rubix-s":
        return RubixSMapping(config, gang_size=gang_size, seed=seed)
    if name == "rubix-d":
        return RubixDMapping(
            config, gang_size=gang_size, seed=seed, remap_rate=remap_rate, segments=segments
        )
    if name == "keyed-xor":
        return KeyedXorMapping(config, gang_size=gang_size, seed=seed)
    raise MappingConfigError(
        f"unknown mapping '{name}'; known: {', '.join(MAPPING_NAMES)}",
        mapping=name,
    )


#: The gang size each scheme performs best with (Sections 4.6 / 5.9).
BEST_GANG_SIZE_S = {"aqua": 4, "srs": 4, "blockhammer": 1}
BEST_GANG_SIZE_D = {"aqua": 4, "srs": 2, "blockhammer": 1}


def spec_workloads(limit: Optional[int] = None) -> Sequence[str]:
    """The 18 SPEC workload names (optionally truncated for quick runs)."""
    names = spec_names()
    return names[:limit] if limit else names


def average(values: Sequence[float]) -> float:
    """Arithmetic mean (paper's 'Mean' bars)."""
    if not values:
        raise ValueError("average of empty sequence")
    return sum(values) / len(values)


__all__ = [
    "ExperimentResult",
    "get_simulator",
    "get_trace",
    "workload_names",
    "validate_workload",
    "clear_caches",
    "make_mapping",
    "MAPPING_NAMES",
    "BEST_GANG_SIZE_S",
    "BEST_GANG_SIZE_D",
    "spec_workloads",
    "average",
    "multichannel_config",
]
