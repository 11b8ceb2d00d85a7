"""Sweep campaigns: tidy-format runs over configuration grids.

The registered experiments print the paper's exact artifacts; downstream
users usually want something else -- "run these workloads over that grid
of (mapping, scheme, threshold) and give me tidy records I can load
into pandas".  :class:`Campaign` provides that surface on top of the
shared simulator and caches.

Campaigns are *resilient*: every cell runs inside a
:class:`~repro.resilience.executor.ResilientExecutor` fault boundary, so
one malformed configuration or crashing cell yields a tidy error record
instead of aborting the sweep, and an optional JSONL checkpoint journal
makes an interrupted campaign resumable exactly where it stopped
(``Campaign.run(resume_from=...)``).  Journal entries are keyed by
:func:`cell_digest`, a content digest over everything a record depends
on -- the cell key *and* the DRAM config and degrade policy -- so a
resume under a different configuration re-runs cells instead of
replaying stale records.

Campaigns are also *parallel*: ``Campaign.run(workers=N)`` runs the grid
on the campaign service (:func:`repro.service.scheduler.run_service`)
with ``N`` local workers, which run the identical per-cell code path --
same fault boundary, same records -- so serial and parallel sweeps of
one grid produce byte-identical results, and the same journal works
for either mode (and for ``repro-run serve``).

Cells are independent by construction: mappings with *mutable* remap
state (Rubix-D with a nonzero remap rate) are built fresh, from their
seed, for every cell, so a cell's result never depends on which cells
ran before it -- the property that makes parallel == serial exact.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.dram.config import DRAMConfig
from repro.errors import SchemeConfigError
from repro.experiments.common import (
    MAPPING_NAMES,
    get_simulator,
    get_trace,
    make_mapping,
    validate_workload,
)
from repro.mapping.base import AddressMapping
from repro.obs.runtime import METRICS, TRACER
from repro.perf.simulator import SCHEMES, RunResult
from repro.resilience.executor import CellOutcome, ResilientExecutor
from repro.resilience.faults import check_result_invariants
from repro.resilience.journal import CheckpointJournal


def cell_digest(payload: dict, key: str) -> str:
    """Content digest identifying one cell's result: the journal key.

    Serial runs, ``workers=N`` runs and the campaign service all journal
    and resume under it, and the service dedupes overlapping tenant
    grids by it.

    Args:
        payload: The owning campaign's :meth:`Campaign.parallel_payload`
            (contributes the DRAM config and degrade policy -- the
            grid-independent inputs a record depends on).
        key: The campaign's canonical cell key (contributes workload,
            mapping spec, scheme, threshold, and scale).
    """
    digest = hashlib.blake2b(digest_size=20)
    for part in (key, payload.get("config"), payload.get("degrade_scale_factor")):
        digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


@dataclass(frozen=True)
class MappingSpec:
    """One mapping configuration in a sweep grid."""

    kind: str
    gang_size: int = 4
    remap_rate: float = 0.01
    segments: int = 1

    @property
    def label(self) -> str:
        if self.kind in ("rubix-s", "rubix-d", "keyed-xor", "stride"):
            return f"{self.kind}-gs{self.gang_size}"
        return self.kind


@dataclass
class Campaign:
    """A cartesian sweep over workloads x mappings x schemes x thresholds.

    Example::

        campaign = Campaign(
            workloads=["gcc", "mcf"],
            mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", 4)],
            schemes=["aqua", "blockhammer"],
            thresholds=[1024, 128],
            scale=0.1,
        )
        records = campaign.run()
        # -> list of dicts, one per cell, ready for DataFrame(records)

    All grid coordinates are validated in ``__post_init__`` -- unknown
    workload, mapping, or scheme names raise typed configuration errors
    listing the valid options *before* any cell runs.
    """

    workloads: Sequence[str]
    mappings: Sequence[MappingSpec]
    schemes: Sequence[str] = ("none",)
    thresholds: Sequence[int] = (128,)
    scale: float = 0.2
    config: Optional[DRAMConfig] = None
    #: Scale multiplier the graceful-degradation fallback re-runs with
    #: when a cell exceeds its budget (None disables the fallback).
    degrade_scale_factor: Optional[float] = 0.5
    _mapping_cache: Dict[MappingSpec, AddressMapping] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Cells run (not replayed from a journal) by this instance's
    #: ``run`` calls; a retried or degraded cell still counts once.
    cells_executed: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if not self.mappings:
            raise ValueError("campaign needs at least one mapping")
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        for workload in self.workloads:
            validate_workload(workload)
        for spec in self.mappings:
            if spec.kind not in MAPPING_NAMES:
                # Same typed error (and option list) make_mapping raises,
                # but before any cell has burned simulation time.
                make_mapping(spec.kind)
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise SchemeConfigError(
                    f"unknown scheme '{scheme}'; known: {', '.join(SCHEMES)}",
                    scheme=scheme,
                )

    def size(self) -> int:
        """Number of cells in the grid."""
        return (
            len(self.workloads)
            * len(self.mappings)
            * len(self.schemes)
            * len(self.thresholds)
        )

    def _make_mapping(self, spec: MappingSpec) -> AddressMapping:
        sim = get_simulator(self.config)
        return make_mapping(
            spec.kind,
            sim.config,
            gang_size=spec.gang_size,
            remap_rate=spec.remap_rate,
            segments=spec.segments,
        )

    def _mapping(self, spec: MappingSpec) -> AddressMapping:
        # Keyed on the full (frozen, hashable) spec: two specs differing
        # in any field get distinct mappings, identical specs share one.
        if spec not in self._mapping_cache:
            self._mapping_cache[spec] = self._make_mapping(spec)
        return self._mapping_cache[spec]

    def _cell_mapping(self, spec: MappingSpec) -> AddressMapping:
        """The mapping instance one cell runs against.

        Stateless mappings are shared across cells; mappings whose remap
        state *evolves* while simulating (Rubix-D with remap_rate > 0)
        are built fresh from their seed per cell, so every cell is
        order-independent and parallel execution reproduces the serial
        records exactly.
        """
        if spec.kind == "rubix-d" and spec.remap_rate > 0.0:
            return self._make_mapping(spec)
        return self._mapping(spec)

    def cells(self) -> Iterable[tuple]:
        """The grid coordinates, in deterministic order."""
        return product(self.workloads, self.mappings, self.schemes, self.thresholds)

    def cell_key(self, workload: str, spec: MappingSpec, scheme: str, t_rh: int) -> str:
        """Canonical retry/chaos key for one cell (stable across runs).

        Journals key on :func:`cell_digest` instead, which also covers
        the DRAM config and degrade policy.
        """
        return (
            f"{workload}|{spec.kind}|gs{spec.gang_size}|rr{spec.remap_rate}"
            f"|seg{spec.segments}|{scheme}|trh{t_rh}|scale{self.scale}"
        )

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        executor: Optional[ResilientExecutor] = None,
        journal: Optional[Union[str, Path, CheckpointJournal]] = None,
        resume_from: Optional[Union[str, Path, CheckpointJournal]] = None,
        simulator=None,
        workers: int = 1,
        stats_cache_dir: Optional[Union[str, Path]] = None,
        mp_context: Optional[str] = None,
    ) -> List[dict]:
        """Execute the sweep; returns one tidy record per cell.

        Args:
            executor: Fault boundary each cell runs in (a default
                :class:`ResilientExecutor` when omitted).  Failing cells
                yield records with ``status="error"`` plus the typed
                error class -- the sweep always completes.
            journal: Checkpoint journal to write (path or instance).  An
                existing file at the path is restarted from scratch.
            resume_from: Journal of a previous, interrupted run; its
                completed cells are returned as-is without re-running,
                and newly-completed cells are appended to it.  Mutually
                exclusive with ``journal``.  Entries are keyed by
                :func:`cell_digest`, so serial runs, ``workers=N`` runs
                and the campaign service resume each other's journals.
            simulator: Override the shared simulator (used by the
                fault-injection harness).
            workers: Number of worker processes; ``workers > 1`` runs
                the grid on the campaign service
                (:func:`~repro.service.scheduler.run_service`), whose
                workers run the same per-cell fault boundary and
                produce records identical to a serial run.
            stats_cache_dir: Directory for a disk-persistent window-
                statistics cache shared across workers (and across
                runs); None keeps caches in-memory and per-process.
            mp_context: Multiprocessing start method of the workers
                ('fork', 'spawn', ...); None uses the platform default.

        Raises:
            ValueError: Both ``journal`` and ``resume_from`` given, a
                non-positive ``workers``, or per-worker overrides
                (``executor=``/``simulator=``) combined with
                ``workers > 1``.
        """
        if journal is not None and resume_from is not None:
            raise ValueError("pass either journal= (fresh) or resume_from=, not both")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1 and (executor is not None or simulator is not None):
            raise ValueError(
                "executor=/simulator= overrides are per-process and cannot"
                " cross the process boundary; run with workers=1 to use them"
            )
        checkpoint, completed = self._checkpoint(journal, resume_from)
        cells = list(self.cells())
        digests: List[Optional[str]] = [None] * len(cells)
        if checkpoint is not None:
            payload = self.parallel_payload()
            digests = [cell_digest(payload, self.cell_key(*cell)) for cell in cells]
        if workers > 1:
            pending = sum(1 for digest in digests if digest not in completed)
            if not pending:
                return [completed[digest] for digest in digests]
            from repro.service.scheduler import ServiceConfig, run_service

            config = ServiceConfig(
                workers=min(workers, pending),
                stats_cache_dir=str(stats_cache_dir) if stats_cache_dir else None,
                mp_context=mp_context,
                # A campaign is never refused for its own size.
                max_pending_cells=max(ServiceConfig.max_pending_cells, self.size()),
            )
            with TRACER.span("campaign.run", cells=self.size(), workers=config.workers):
                (served,) = run_service([self], config=config, journal=checkpoint)
            self.cells_executed += pending
            return served

        executor = executor or ResilientExecutor()
        sim = simulator or get_simulator(self.config)
        if stats_cache_dir is not None:
            sim.stats_cache.persist_to(stats_cache_dir)

        records: List[dict] = []
        with TRACER.span("campaign.run", cells=self.size(), workers=1):
            for (workload, spec, scheme, t_rh), digest in zip(cells, digests):
                if digest in completed:
                    records.append(completed[digest])
                    continue
                started = time.perf_counter()
                record = self.execute_cell(sim, executor, workload, spec, scheme, t_rh)
                self.cells_executed += 1
                records.append(record)
                if checkpoint is not None:
                    checkpoint.append(
                        digest,
                        record,
                        duration_s=time.perf_counter() - started,
                        worker_id=f"p{os.getpid()}",
                    )
        return records

    def execute_cell(
        self,
        sim,
        executor: ResilientExecutor,
        workload: str,
        spec: MappingSpec,
        scheme: str,
        t_rh: int,
    ) -> dict:
        """Run one grid cell inside the fault boundary; returns its record.

        This is the single per-cell code path: the serial loop above and
        the campaign service's workers both call it, which is what
        guarantees record-for-record identical output between the two.
        """
        key = self.cell_key(workload, spec, scheme, t_rh)
        with TRACER.span(
            "campaign.cell",
            workload=workload,
            mapping=spec.label,
            scheme=scheme,
            t_rh=t_rh,
        ):
            outcome = executor.execute(
                key,
                lambda: self._run_cell(sim, workload, spec, scheme, t_rh, self.scale),
                degrade=self._degrade_fn(sim, workload, spec, scheme, t_rh),
                validate=check_result_invariants,
            )
        record = self._record(workload, spec, scheme, t_rh, outcome)
        if METRICS.enabled:
            METRICS.inc("campaign.cells", status=record["status"])
            METRICS.inc("campaign.activations", int(record.get("activations", 0)))
            METRICS.inc("campaign.mitigations", int(record.get("mitigations", 0)), scheme=scheme)
            METRICS.inc("campaign.remap_swaps", int(record.get("remap_swaps", 0)))
        return record

    def parallel_payload(self) -> dict:
        """Constructor kwargs that rebuild this campaign in a worker.

        Everything here is picklable and tiny (names, specs, numbers,
        the DRAM config); workers rebuild traces, mappings, and
        simulators locally via the per-process caches.
        """
        return {
            "workloads": list(self.workloads),
            "mappings": list(self.mappings),
            "schemes": list(self.schemes),
            "thresholds": list(self.thresholds),
            "scale": self.scale,
            "config": self.config,
            "degrade_scale_factor": self.degrade_scale_factor,
        }

    # ------------------------------------------------------------------
    def _checkpoint(self, journal, resume_from):
        """Resolve the journal arguments to (journal, completed-records)."""
        source = resume_from if resume_from is not None else journal
        if source is None:
            return None, {}
        checkpoint = (
            source
            if isinstance(source, CheckpointJournal)
            else CheckpointJournal(source)
        )
        if resume_from is None:
            checkpoint.reset()
        return checkpoint, checkpoint.completed()

    def _run_cell(
        self, sim, workload: str, spec: MappingSpec, scheme: str, t_rh: int, scale: float
    ) -> RunResult:
        trace = get_trace(workload, scale=scale)
        return sim.run(trace, self._cell_mapping(spec), scheme=scheme, t_rh=t_rh)

    def _degrade_fn(self, sim, workload: str, spec: MappingSpec, scheme: str, t_rh: int):
        if self.degrade_scale_factor is None:
            return None
        reduced = self.scale * self.degrade_scale_factor
        return lambda: self._run_cell(sim, workload, spec, scheme, t_rh, reduced)

    def _record(
        self,
        workload: str,
        spec: MappingSpec,
        scheme: str,
        t_rh: int,
        outcome: CellOutcome,
    ) -> dict:
        record = {
            "workload": workload,
            "mapping": spec.label,
            "scheme": scheme,
            "t_rh": t_rh,
            "status": outcome.status,
            "attempts": outcome.attempts,
        }
        if outcome.flags:
            record["flags"] = list(outcome.flags)
        if outcome.ok:
            result: RunResult = outcome.value
            # Plain python scalars only: journal records must round-trip
            # through JSON unchanged, so resumed sweeps return records
            # identical to uninterrupted ones.
            record.update(
                {
                    "normalized_performance": float(result.normalized_performance),
                    "slowdown_pct": float(result.slowdown_pct),
                    "hit_rate": float(result.hit_rate),
                    "activations": int(result.activations),
                    "hot_rows_64": int(result.hot_rows_64),
                    "hot_rows_512": int(result.hot_rows_512),
                    "mitigations": int(result.mitigations),
                    "remap_swaps": int(result.remap_swaps),
                    "t_mitigation_s": float(result.t_mitigation_s),
                }
            )
        record.update(outcome.error_fields())
        return record


def campaign_from_spec(spec: dict) -> Campaign:
    """Build a :class:`Campaign` from a JSON-friendly spec dict.

    The spec format the CLI's ``serve``/``submit`` subcommands accept::

        {
          "workloads": ["xz", "namd"],
          "mappings": ["coffeelake",
                       {"kind": "rubix-d", "gang_size": 4, "remap_rate": 0.01}],
          "schemes": ["aqua", "blockhammer"],
          "thresholds": [128, 512],
          "scale": 0.05
        }

    Mappings may be bare kind strings (defaults for the other fields) or
    dicts of :class:`MappingSpec` fields.  Unknown top-level or mapping
    keys raise ``ValueError`` up front; grid validation (workload,
    mapping, and scheme names) happens in ``Campaign.__post_init__`` as
    usual.

    Workload entries may also be self-contained ``playbook:<json>``
    attack-playbook names (see :mod:`repro.workloads.playbook` and
    :func:`repro.workloads.playbook.workload_name_for`), so declarative
    attack sweeps ride the same spec format, journals, workers,
    and service wire protocol as every other campaign.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"campaign spec must be an object, got {type(spec).__name__}")
    allowed = {
        "workloads",
        "mappings",
        "schemes",
        "thresholds",
        "scale",
        "tenant",
    }
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(
            f"unknown campaign spec key(s): {', '.join(sorted(unknown))};"
            f" allowed: {', '.join(sorted(allowed))}"
        )
    mappings: List[MappingSpec] = []
    for entry in spec.get("mappings", []):
        if isinstance(entry, str):
            mappings.append(MappingSpec(entry))
        elif isinstance(entry, dict):
            try:
                mappings.append(MappingSpec(**entry))
            except TypeError as error:
                raise ValueError(f"bad mapping spec {entry!r}: {error}") from error
        else:
            raise ValueError(f"mapping entries must be strings or objects, got {entry!r}")
    kwargs = {
        "workloads": list(spec.get("workloads", [])),
        "mappings": mappings,
    }
    if "schemes" in spec:
        kwargs["schemes"] = list(spec["schemes"])
    if "thresholds" in spec:
        kwargs["thresholds"] = [int(t) for t in spec["thresholds"]]
    if "scale" in spec:
        kwargs["scale"] = float(spec["scale"])
    return Campaign(**kwargs)


__all__ = ["MappingSpec", "Campaign", "campaign_from_spec", "cell_digest"]
