"""Wire protocol between the campaign scheduler and its workers.

Everything that crosses the scheduler/worker process boundary is one of
the small dataclasses below, shipped as a length-prefixed checksummed
JSON frame over one TCP connection per worker session
(:mod:`repro.service.transport`) -- loopback for the workers the
scheduler spawns itself, any network for ``repro-run work`` workers.

Scheduler -> worker: :class:`CellAssignment` (a leased cell),
:class:`ShutdownMsg` (graceful drain), :class:`RegisteredMsg`
(registration acknowledgement), and :class:`NackMsg` (a frame from the
worker failed integrity checks; please resend).
Worker -> scheduler: :class:`HelloMsg` (registration),
:class:`HeartbeatMsg` (lease renewal), :class:`CompletionMsg` (a
finished cell, carrying the lease identity that produced it so the
scheduler can fence stale and duplicate deliveries), and
:class:`GoodbyeMsg` (clean exit acknowledgement).

Distributed trace context crosses with them: every
:class:`CellAssignment` carries the submitting span's
``"trace_id:span_id"`` token inside its :class:`CellTask` (the
``trace`` field), so the worker-side cell spans parent under the
scheduler's ``service.submit`` span; the JSON framing round-trips the
token untouched.

Cells are identified by a *content digest*
(:func:`repro.experiments.campaign.cell_digest`): a digest over
everything that determines a cell's tidy record.  Two tenants submitting
overlapping sweep grids therefore share cells by construction: the
scheduler runs each digest once and fans the record out to every
waiting submission.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import error_record
from repro.experiments.campaign import MappingSpec


@dataclass(frozen=True)
class CellTask:
    """One grid cell, in shipping form (names and numbers only).

    ``trace`` is the submitting side's trace context as a compact
    ``"trace_id:span_id"`` token (:meth:`Tracer.current_context`); a
    worker attaches it before executing, so the cell's spans join the
    submitter's trace no matter which process -- or host -- runs it.
    Empty when telemetry is off or the submitter held no span.
    """

    key: str  #: Canonical cell key (retry jitter, chaos decisions).
    workload: str
    spec: MappingSpec
    scheme: str
    t_rh: int
    trace: str = ""  #: Distributed trace context token ("" = none).


def payload_digest(payload: dict) -> str:
    """Digest identifying one campaign constructor payload.

    Workers key their rebuilt-campaign cache on this, so a worker serving
    several tenants builds each distinct campaign exactly once.
    """
    digest = hashlib.blake2b(digest_size=12)
    for key in sorted(payload):
        digest.update(f"{key}={payload[key]!r}|".encode())
    return digest.hexdigest()


def cell_error_record(task: CellTask, error: BaseException, attempts: int) -> dict:
    """The tidy error record of a cell that failed outside the simulation.

    Used when a worker's cell raises unexpectedly and when the scheduler
    gives up on a cell (retry or restart budget exhausted).
    """
    record = {
        "workload": task.workload,
        "mapping": task.spec.label,
        "scheme": task.scheme,
        "t_rh": task.t_rh,
        "status": "error",
        "attempts": attempts,
    }
    record.update(error_record(error))
    return record


# ---------------------------------------------------------------------------
# Scheduler -> worker
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellAssignment:
    """One leased cell, dispatched to a specific worker.

    The lease fields (``lease_id``, ``attempt``, ``epoch``) travel with
    the assignment and come back verbatim on every heartbeat and
    completion, so the scheduler can always tell which dispatch of a
    cell a message belongs to.
    """

    task: CellTask
    payload: dict
    payload_key: str
    digest: str
    lease_id: str
    attempt: int
    epoch: int
    heartbeat_interval_s: float


@dataclass(frozen=True)
class ShutdownMsg:
    """Graceful stop: finish nothing new, acknowledge with a goodbye."""


@dataclass(frozen=True)
class RegisteredMsg:
    """Registration acknowledgement for a socket worker.

    Carries the scheduler-assigned ``worker_id`` (unique per
    *connection*: a reconnecting worker gets a fresh identity) and the
    heartbeat cadence the scheduler expects.
    """

    worker_id: str
    heartbeat_interval_s: float


@dataclass(frozen=True)
class NackMsg:
    """One of the worker's frames was discarded (checksum/decode failure).

    ``lease_id`` names the lease the scheduler currently attributes to
    the worker (empty when unknown).  A worker holding an unacknowledged
    completion resends it -- cheap fast-path recovery that spares the
    cell a full lease-expiry round trip.
    """

    reason: str
    lease_id: str = ""


# ---------------------------------------------------------------------------
# Worker -> scheduler
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HelloMsg:
    """First frame of a socket worker's session: who is connecting.

    ``name`` is the worker's *stable* self-chosen identity (it survives
    reconnects and lands in logs/manifests); the scheduler's reply
    (:class:`RegisteredMsg`) assigns the per-connection ``worker_id``
    used by the lease table.
    """

    name: str
    pid: int = 0
    reconnects: int = 0  #: How many times this worker has reconnected.


@dataclass(frozen=True)
class HeartbeatMsg:
    """Periodic liveness proof for the lease a worker currently holds.

    ``sent_at`` is wall-clock (human-readable in logs); ``sent_monotonic``
    is the sender's monotonic clock, which the scheduler uses to compute
    heartbeat latency *drift* (receive-interval minus send-interval)
    without cross-clock skew -- the two clocks never need a common
    epoch, only a common rate.  An **idle ping** is a heartbeat with an
    empty ``lease_id``: socket workers send it between cells so the
    scheduler can tell an idle worker from a half-open connection.
    """

    worker_id: str
    lease_id: str
    sent_at: float
    sent_monotonic: float = 0.0


@dataclass(frozen=True)
class CompletionMsg:
    """One finished cell plus the lease identity that produced it."""

    worker_id: str
    lease_id: str
    digest: str
    key: str
    attempt: int
    epoch: int
    record: dict
    duration_s: float = 0.0
    telemetry: Optional[dict] = field(default=None)


@dataclass(frozen=True)
class GoodbyeMsg:
    """Clean worker exit (response to :class:`ShutdownMsg`)."""

    worker_id: str
    cells_run: int = 0


__all__ = [
    "CellAssignment",
    "CellTask",
    "CompletionMsg",
    "GoodbyeMsg",
    "HeartbeatMsg",
    "HelloMsg",
    "NackMsg",
    "RegisteredMsg",
    "ShutdownMsg",
    "cell_error_record",
    "payload_digest",
]
