"""Process-wide telemetry runtime: the singletons and their lifecycle.

One metrics registry, one tracer, and one log state per process, all
disabled by default.  Enable them explicitly::

    from repro import obs
    obs.configure(enabled=True, telemetry_dir="runs/today")

or implicitly through the environment -- ``REPRO_TELEMETRY_DIR=DIR``
(enable + write artifacts to DIR) or ``REPRO_TELEMETRY=1`` (enable,
in-memory only).  The environment path switches telemetry on for a
script that has no flag for it (the CI smoke stages use it); the
campaign service ships :func:`export_config` to the workers it spawns
(see :mod:`repro.service.worker`).

Artifact layout under the telemetry directory::

    manifest.json                run provenance + final metrics snapshot
    metrics.jsonl                one metric series per line
    metrics.prom                 Prometheus text-exposition snapshot
    events-<run>-<pid>.jsonl     span + log event stream, one file per
                                 process per run
    profile-<span>-<pid>.collapsed   sampling-profiler stacks (opt-in)

Events are written per-(run, process): the run id (:func:`run_id`, an
8-hex token minted once in the parent and inherited by every worker via
``REPRO_RUN_ID`` / :func:`export_config`) keeps two runs sharing a
telemetry dir -- or a respawned worker that recycled a pid -- from
append-interleaving unrelated event streams into one file, and every
event line is stamped with it so ``validate_telemetry`` can reject a
mixed file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, TextIO, Union

from repro.obs.logs import NORMAL, LogState, StructuredLogger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import (
    MetricsRegistry,
    snapshot_to_jsonl,
    snapshot_to_prometheus,
)
from repro.obs.tracing import Tracer

#: Enable telemetry and write run artifacts to this directory.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
#: Enable telemetry without a directory ("1"/"true"/"yes"/"on").
TELEMETRY_ENV = "REPRO_TELEMETRY"
#: Run id workers inherit so their event files join the parent's run.
RUN_ID_ENV = "REPRO_RUN_ID"

_TRUTHY = {"1", "true", "yes", "on"}

_run_id: Optional[str] = None


def run_id() -> str:
    """This process tree's telemetry run id (minted once, inherited).

    The first caller in a process tree mints an 8-hex token and exports
    it through ``REPRO_RUN_ID`` so forked/spawned workers adopt the same
    one; :func:`export_config` ships it to programmatic pools the same
    way.  Event filenames and event lines are keyed by it, so two runs
    sharing a telemetry directory (or a recycled pid) can never
    interleave into one file.
    """
    global _run_id
    if _run_id is None:
        inherited = os.environ.get(RUN_ID_ENV, "").strip()
        _run_id = inherited or os.urandom(4).hex()
        os.environ[RUN_ID_ENV] = _run_id
    return _run_id


def _set_run_id(value: Optional[str]) -> None:
    global _run_id
    _run_id = value or None
    if _run_id:
        os.environ[RUN_ID_ENV] = _run_id


class _EventStream:
    """Per-(run, process) JSONL sink for span and log events."""

    def __init__(self) -> None:
        self.directory: Optional[Path] = None
        self._file: Optional[TextIO] = None
        self._pid: Optional[int] = None
        self._run: Optional[str] = None

    def emit(self, event: dict) -> None:
        if self.directory is None:
            return
        pid = os.getpid()
        run = run_id()
        if self._file is None or self._pid != pid or self._run != run:
            self.close()
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = open(self.directory / f"events-{run}-{pid}.jsonl", "a")
                self._pid = pid
                self._run = run
            except OSError:
                self.directory = None  # sink broken; stop trying
                return
        event.setdefault("run", run)
        try:
            self._file.write(json.dumps(event, default=str) + "\n")
            self._file.flush()
        except OSError:
            pass

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
        self._file = None
        self._pid = None
        self._run = None


# ---------------------------------------------------------------------------
# Singletons.  Object identity is stable for the life of the process;
# reset() clears them in place.
# ---------------------------------------------------------------------------
_EVENTS = _EventStream()
METRICS = MetricsRegistry()
TRACER = Tracer(METRICS, emit=_EVENTS.emit)
LOGS = LogState()
_telemetry_dir: Optional[Path] = None


def enabled() -> bool:
    """Is telemetry collection on in this process?"""
    return METRICS.enabled


def telemetry_dir() -> Optional[Path]:
    """The configured artifact directory, if any."""
    return _telemetry_dir


def configure(
    *,
    enabled: bool = True,
    telemetry_dir: Optional[Union[str, Path]] = None,
    verbosity: Optional[int] = None,
    log_json: Optional[Union[str, Path]] = None,
) -> None:
    """Turn telemetry on/off and point its sinks.

    Args:
        enabled: Master switch for metrics + spans.
        telemetry_dir: Directory for run artifacts (manifest, metrics,
            per-process event streams); None keeps telemetry in-memory.
        verbosity: Console log verbosity (``obs.QUIET`` / ``NORMAL`` /
            ``VERBOSE``); None leaves it unchanged.
        log_json: Path for the structured JSONL log sink; None leaves
            the current sink unchanged.
    """
    global _telemetry_dir
    METRICS.enabled = enabled
    if telemetry_dir is not None:
        _telemetry_dir = Path(telemetry_dir)
        _EVENTS.directory = _telemetry_dir if enabled else None
    elif not enabled:
        _EVENTS.directory = None
    LOGS.emit_event = _EVENTS.emit if (enabled and _EVENTS.directory) else None
    if verbosity is not None:
        LOGS.verbosity = verbosity
    if log_json is not None:
        LOGS.set_json_path(log_json)


def get_logger(name: str) -> StructuredLogger:
    """A named structured logger bound to the process-wide log state."""
    return StructuredLogger(name, LOGS)


def reset() -> None:
    """Restore pristine (disabled) state -- tests use this between cases."""
    global _telemetry_dir, _run_id
    METRICS.enabled = False
    METRICS.clear()
    TRACER.clear()
    _EVENTS.close()
    _EVENTS.directory = None
    _telemetry_dir = None
    _run_id = None
    os.environ.pop(RUN_ID_ENV, None)
    LOGS.verbosity = NORMAL
    LOGS.set_json_path(None)
    LOGS.emit_event = None


# ---------------------------------------------------------------------------
# Cross-process plumbing
# ---------------------------------------------------------------------------
def export_config() -> Optional[dict]:
    """Picklable config a worker process applies to mirror this process.

    None when telemetry is disabled (workers then skip configuration
    entirely, keeping the disabled path allocation-free).
    """
    if not METRICS.enabled:
        return None
    return {
        "enabled": True,
        "telemetry_dir": str(_telemetry_dir) if _telemetry_dir else None,
        "verbosity": LOGS.verbosity,
        "run_id": run_id(),
    }


def apply_config(config: Optional[dict]) -> None:
    """Apply an :func:`export_config` payload inside a worker process."""
    if not config:
        return
    if config.get("run_id"):
        _set_run_id(config["run_id"])
    configure(
        enabled=config.get("enabled", True),
        telemetry_dir=config.get("telemetry_dir"),
        verbosity=config.get("verbosity"),
    )


def _configure_from_env() -> None:
    directory = os.environ.get(TELEMETRY_DIR_ENV, "").strip()
    flag = os.environ.get(TELEMETRY_ENV, "").strip().lower()
    if directory:
        configure(enabled=True, telemetry_dir=directory)
    elif flag in _TRUTHY:
        configure(enabled=True)


# Environment auto-enable at import: a process started with the env vars
# set (the CI smoke stages, and any child process that inherits them)
# is configured here without any explicit hand-off.
_configure_from_env()


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------
def write_telemetry(
    directory: Optional[Union[str, Path]] = None,
    *,
    manifest: Optional[RunManifest] = None,
) -> Dict[str, Path]:
    """Write the metrics snapshot (and manifest) as run artifacts.

    Args:
        directory: Target directory; defaults to the configured
            telemetry directory.
        manifest: A run manifest to finalize (its ``metrics`` field is
            filled with the snapshot unless already set) and write.

    Returns:
        ``{artifact name: written path}``.

    Raises:
        ValueError: No directory configured and none given.
    """
    target = Path(directory) if directory is not None else _telemetry_dir
    if target is None:
        raise ValueError("no telemetry directory configured; pass directory=")
    target.mkdir(parents=True, exist_ok=True)
    snapshot = METRICS.snapshot()
    written: Dict[str, Path] = {}
    metrics_path = target / "metrics.jsonl"
    metrics_path.write_text("\n".join(snapshot_to_jsonl(snapshot)) + "\n")
    written["metrics"] = metrics_path
    prom_path = target / "metrics.prom"
    prom_path.write_text(snapshot_to_prometheus(snapshot))
    written["prometheus"] = prom_path
    if manifest is not None:
        if manifest.finished_at is None:
            manifest.finalize(metrics=snapshot)
        elif manifest.metrics is None:
            manifest.metrics = snapshot
        written["manifest"] = manifest.write(target / "manifest.json")
    from repro.obs.profile import PROFILER  # lazy: avoids an import cycle

    for path in PROFILER.write(target):
        written[path.name] = path
    return written


def heartbeat(worker: Optional[str] = None) -> None:
    """Record a worker liveness gauge (wall clock, telemetry only)."""
    METRICS.set_gauge(
        "parallel.worker_heartbeat",
        time.time(),
        worker=worker or f"p{os.getpid()}",
    )


__all__ = [
    "LOGS",
    "METRICS",
    "RUN_ID_ENV",
    "TELEMETRY_DIR_ENV",
    "TELEMETRY_ENV",
    "TRACER",
    "apply_config",
    "configure",
    "enabled",
    "export_config",
    "get_logger",
    "heartbeat",
    "reset",
    "run_id",
    "telemetry_dir",
    "write_telemetry",
]
