"""Fault-tolerant campaign service: leased scheduling over worker processes.

:class:`CampaignService` is the one engine that runs campaign cells in
parallel -- ``Campaign.run(workers=N)`` is :func:`run_service` over a
service of its own -- and a long-lived scheduler that serves many
concurrent submissions:

* **submissions** (:meth:`CampaignService.submit`) decompose a
  :class:`Campaign` into cell states keyed by
  :func:`~repro.experiments.campaign.cell_digest`, the same content
  digest serial runs journal under; overlapping tenant grids *dedupe*
  -- a cell digest runs once, its record fans out to every waiting
  submission;
* **admission control** bounds the pending-cell queue; a submission
  that would overflow it fails fast with
  :class:`~repro.errors.ServiceSaturated`, never unbounded memory;
* **leases**: every dispatched cell carries a lease with a heartbeat
  deadline (:mod:`repro.service.lease`).  A worker that crashes, hangs,
  or is SIGKILLed misses its heartbeats; the lease expires and the cell
  is re-dispatched with deterministic backoff from the existing
  :class:`~repro.resilience.executor.RetryPolicy` -- under the
  *infrastructure* retry budget, separate from simulation retries;
* **exactly-once commitment**: completions are idempotent.  The first
  delivery of a cell's record is committed to the
  :class:`~repro.resilience.journal.CheckpointJournal` (stamped with
  lease/attempt/epoch metadata); duplicated or stale-lease deliveries
  are dropped, safe because every attempt of a cell computes the same
  deterministic record;
* **recovery**: dead workers are detected twice over (closed
  connection -> immediate; silent hang -> lease expiry), the
  scheduler's own worker processes are respawned up to a restart
  budget, and a scheduler restarted on the same journal resumes without
  recomputing committed cells.

The scheduler itself is a single asyncio task -- all state mutation
happens on the event loop, so there are no locks around the lease
table, cell map, or worker table.  One reader thread per worker
connection feeds the loop's inbox via ``call_soon_threadsafe``.

**One worker substrate.**  Every worker is a socket worker
(:mod:`repro.service.worker`) speaking the framed transport
(:mod:`repro.service.transport`): it registers with a Hello/Registered
handshake, heartbeats over its connection (idle pings included, so a
silent link is distinguishable from an idle worker), and streams
completions back.  The scheduler always listens -- on
``ServiceConfig.listen`` when set, otherwise on an ephemeral loopback
port that only the ``workers`` processes it spawns itself dial.  A
dropped connection requeues that session's leases; a checksum-failed
frame is discarded, nacked, and counted, never fatal.  In listen mode,
if no worker shows up within ``local_fallback_deadline_s`` while work
is pending, the scheduler degrades gracefully by spawning ``workers``
processes of its own -- a campaign always completes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import multiprocessing
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.errors import (
    FrameError,
    ServiceSaturated,
    ServiceStopped,
    TransportError,
    WorkerLostError,
)
from repro.experiments.campaign import cell_digest
from repro.obs.live import LiveEndpoint
from repro.obs.manifest import RunManifest
from repro.obs.metrics import series_key
from repro.obs.runtime import METRICS, TRACER, export_config, get_logger
from repro.parallel.cache import STATS_CACHE_ENV
from repro.resilience.executor import RetryPolicy
from repro.resilience.journal import CheckpointJournal
from repro.service.chaos import ChaosSpec, CompletionGate
from repro.service.lease import Lease, LeaseTable
from repro.service.protocol import (
    CellAssignment,
    CellTask,
    CompletionMsg,
    GoodbyeMsg,
    HeartbeatMsg,
    HelloMsg,
    NackMsg,
    RegisteredMsg,
    ShutdownMsg,
    cell_error_record,
    payload_digest,
)
from repro.service.transport import FramedSocket, listen_socket
from repro.service.worker import service_worker_main

log = get_logger("service")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`CampaignService`.

    Attributes:
        workers: How many worker processes the scheduler spawns itself:
            up front without ``listen``, as the degraded-mode pool with
            it.
        lease_timeout_s: Heartbeat deadline; a lease silent this long is
            expired and its cell re-dispatched.
        heartbeat_interval_s: How often workers renew their lease (keep
            well under ``lease_timeout_s``).
        tick_s: Scheduler housekeeping cadence (expiry scan, dispatch).
        max_pending_cells: Admission-control ceiling on not-yet-committed
            cells across all submissions.
        max_worker_restarts: Total replacement workers the service may
            spawn before declaring itself starved.
        retry: Backoff/budget policy for *infrastructure* re-dispatches
            (``max_infra_attempts`` bounds dispatches per cell;
            ``delay_s`` spaces them deterministically).
        mp_context: Start method ('fork', 'spawn', ...) of the worker
            processes the scheduler spawns; None uses the platform
            default.
        stats_cache_dir: Shared content-keyed stats-cache directory for
            workers; defaults to ``REPRO_STATS_CACHE`` when set.
        listen: ``"host:port"`` to accept workers from any host on (port
            0 binds an ephemeral port; see
            :attr:`CampaignService.listen_address`).  In listen mode no
            workers are spawned up front -- ``workers`` becomes the size
            of the degraded-mode pool.  ``None`` (the default) listens
            on an ephemeral loopback port, for the scheduler's own
            ``workers`` processes only.
        local_fallback_deadline_s: Listen mode only -- if work is
            pending and *no* worker is alive this long, the scheduler
            spawns ``workers`` worker processes of its own so the
            campaign still completes (degraded mode, counted by
            ``service.transport.fallback``).
        frame_timeout_s: Per-frame progress deadline on worker sockets;
            a connection stalled mid-frame this long is declared lost.
        slow_worker_lag_s: A worker whose heartbeat-interval
            drift exceeds this is flagged slow (gauge
            ``service.transport.heartbeat_lag_s``, counter
            ``service.transport.slow_workers``); detection only -- the
            lease timeout remains the action threshold.
        status_listen: ``"host:port"`` for the embedded live
            observability endpoint (:mod:`repro.obs.live`): ``/metrics``
            (Prometheus snapshot), ``/healthz`` (liveness + degraded
            flag; 503 once degraded), ``/status`` (per-worker heartbeat
            lag, leases in flight, cache hit rate, cell progress).
            Read-only; ``None`` (default) starts nothing and costs
            nothing.
    """

    workers: int = 2
    lease_timeout_s: float = 5.0
    heartbeat_interval_s: float = 0.5
    tick_s: float = 0.05
    max_pending_cells: int = 4096
    max_worker_restarts: int = 16
    retry: RetryPolicy = RetryPolicy(backoff_base_s=0.02)
    mp_context: Optional[str] = None
    stats_cache_dir: Optional[str] = None
    listen: Optional[str] = None
    local_fallback_deadline_s: float = 5.0
    frame_timeout_s: float = 10.0
    slow_worker_lag_s: float = 0.25
    status_listen: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.lease_timeout_s <= 0 or self.heartbeat_interval_s <= 0:
            raise ValueError("lease timeout and heartbeat interval must be positive")
        if self.max_pending_cells < 1:
            raise ValueError("max_pending_cells must be >= 1")
        if self.local_fallback_deadline_s < 0:
            raise ValueError("local_fallback_deadline_s must be >= 0")
        if self.frame_timeout_s <= 0:
            raise ValueError("frame_timeout_s must be positive")


@dataclass
class _CellState:
    """Scheduler-side state of one content-keyed cell."""

    digest: str
    key: str
    task: CellTask
    payload: dict
    payload_key: str
    status: str = "pending"  # "pending" | "leased" | "committed"
    record: Optional[dict] = None
    attempts: int = 0  #: Dispatches so far (infrastructure budget).
    epoch: int = 0  #: Requeue generation (bumped on every expiry).
    not_before: float = 0.0  #: Earliest re-dispatch time (backoff).
    lease: Optional[Lease] = None
    waiters: List["SubmissionHandle"] = field(default_factory=list)


@dataclass
class _Worker:
    """Scheduler-side handle on one registered worker connection.

    A worker process that reconnects registers as a fresh ``_Worker``.
    The heartbeat-drift fields feed the slow-host detector: intervals
    measured on the *sender's* monotonic clock (``last_beat_monotonic``)
    are compared against intervals on the scheduler's clock
    (``last_beat_received``), so lag needs no common epoch between
    hosts.
    """

    worker_id: str
    conn: FramedSocket
    name: str = ""  #: Stable self-chosen identity of the worker process.
    state: str = "idle"  # "idle" | "busy" | "suspect" | "dead"
    current_lease: Optional[str] = None
    last_beat_monotonic: float = 0.0
    last_beat_received: float = 0.0
    lag_s: float = 0.0
    slow: bool = False


class SubmissionHandle:
    """One tenant's submitted campaign; await :meth:`result` for records."""

    def __init__(self, submission_id: str, tenant: str, digests: List[str]) -> None:
        self.submission_id = submission_id
        self.tenant = tenant
        #: Cell digests in the campaign's deterministic cell order.
        self.digests = digests
        self.remaining = set(digests)
        self._event = asyncio.Event()
        self._records: Optional[List[dict]] = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    async def result(self) -> List[dict]:
        """The campaign's tidy records, one per cell, in cell order.

        Raises :class:`~repro.errors.ServiceStopped` if the service was
        hard-stopped before this submission finished.
        """
        await self._event.wait()
        if self._error is not None:
            raise self._error
        assert self._records is not None
        return self._records


class CampaignService:
    """Asyncio campaign scheduler over a pool of leased worker processes.

    Args:
        config: Scheduling/lease/backpressure knobs.
        journal: Path (or instance) of the durable commit log.  An
            existing journal is *resumed* by default -- its committed
            cells are served from the log without recompute; pass
            ``resume=False`` to start it over.
        chaos: Optional seeded failure-injection schedule (tests/CI).
        manifest: Optional run manifest; every spawned worker's identity
            is recorded in its ``workers`` list.

    Use as an async context manager::

        async with CampaignService(config, journal=path) as service:
            handle = await service.submit(campaign, tenant="alice")
            records = await handle.result()

    or drive synchronously via :func:`run_service`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        journal: Optional[Union[str, Path, CheckpointJournal]] = None,
        chaos: Optional[ChaosSpec] = None,
        manifest: Optional[RunManifest] = None,
        resume: bool = True,
    ) -> None:
        self.config = config or ServiceConfig()
        if journal is None or isinstance(journal, CheckpointJournal):
            self.journal = journal
        else:
            self.journal = CheckpointJournal(journal)
        if self.journal is not None and not resume:
            self.journal.reset()
        self.chaos = chaos
        self.manifest = manifest
        self._clock = time.monotonic
        self._leases = LeaseTable(self.config.lease_timeout_s, clock=self._clock)
        self._gate = CompletionGate(chaos) if chaos else None
        self._cells: Dict[str, _CellState] = {}
        self._pending: Deque[str] = deque()
        self._workers: Dict[str, _Worker] = {}
        #: The scheduler's own worker processes, by name.
        self._local: Dict[str, multiprocessing.Process] = {}
        self._handles: List[SubmissionHandle] = []
        self._worker_seq = itertools.count()
        self._submission_seq = itertools.count()
        self._restarts = 0
        self._started = False
        self._draining = False
        self._stop_loop = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inbox: Optional[asyncio.Queue] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._reader_stop = threading.Event()
        # -- worker connections ----------------------------------------
        self._listener = None  #: Listening socket, bound by start().
        #: Actual ``host:port`` bound (resolves a ``:0`` ephemeral port).
        self.listen_address: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._reader_threads: List[threading.Thread] = []
        self._conn_seq = itertools.count()
        self._session_seq = itertools.count()
        self._conn_workers: Dict[int, str] = {}  # conn token -> worker_id
        self._fallback_deadline = 0.0
        self._fallback_done = False
        self._committed_log: Dict[str, dict] = {}
        if self.journal is not None:
            self._committed_log = dict(self.journal.completed())
        self._mp = (
            multiprocessing.get_context(self.config.mp_context)
            if self.config.mp_context
            else multiprocessing.get_context()
        )
        self._stats_cache_dir = self.config.stats_cache_dir or os.environ.get(
            STATS_CACHE_ENV
        ) or None
        # -- live observability endpoint -------------------------------
        self._endpoint: Optional[LiveEndpoint] = None
        #: Actual ``host:port`` of the /metrics endpoint once started.
        self.status_address: Optional[str] = None
        # Published by the scheduler loop via whole-dict replacement;
        # HTTP handler threads only ever read the reference, so they
        # never observe a half-built snapshot and need no lock.
        self._status_snapshot: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CampaignService":
        """Listen, spawn workers, and start the scheduler loop."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._inbox = asyncio.Queue()
        self._listener = listen_socket(self.config.listen or "127.0.0.1:0")
        host, port = self._listener.getsockname()[:2]
        self.listen_address = f"{host}:{port}"
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        if self.config.listen is None:
            for _ in range(self.config.workers):
                self._spawn_worker()
        else:
            self._fallback_deadline = (
                self._clock() + self.config.local_fallback_deadline_s
            )
        if self.config.status_listen is not None:
            self._endpoint = LiveEndpoint(
                self.config.status_listen,
                status_provider=lambda: self._status_snapshot,
                health_provider=self._health_payload,
            )
            self._endpoint.start()
            self.status_address = self._endpoint.address
            self._publish_status()
        self._loop_task = asyncio.create_task(self._run())
        topology = (
            f"listening on {self.listen_address}"
            if self.config.listen
            else f"{self.config.workers} workers on {self.listen_address}"
        )
        log.info(
            "service.started",
            message=f"[service up: {topology},"
            f" lease timeout {self.config.lease_timeout_s}s]",
            workers=self.config.workers,
            listen=self.listen_address,
        )
        return self

    async def __aenter__(self) -> "CampaignService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()
        else:
            await self.stop()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then stop.

        Stops admitting new submissions, waits for every accepted
        submission to resolve (all its cells committed to the journal --
        the in-flight checkpoint), then shuts workers down cleanly.  A
        scheduler restarted on the same journal afterwards serves the
        committed cells byte-identically without recompute.
        """
        self._draining = True
        for handle in list(self._handles):
            await handle._event.wait()
        await self._shutdown(graceful=True)

    async def stop(self) -> None:
        """Hard shutdown: terminate workers now; fail unresolved handles."""
        self._draining = True
        await self._shutdown(graceful=False)
        for handle in self._handles:
            if not handle.done:
                handle._error = ServiceStopped(
                    "service stopped before submission completed",
                    submission=handle.submission_id,
                    remaining_cells=len(handle.remaining),
                )
                handle._event.set()

    async def _shutdown(self, *, graceful: bool) -> None:
        self._stop_loop = True
        if self._loop_task is not None:
            try:
                await self._loop_task
            except Exception:
                pass  # already surfaced through the handles' errors
            self._loop_task = None
        self._reader_stop.set()
        if self._listener is not None:
            # On Linux, close() alone does not wake a thread blocked in
            # accept(); shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        live = [w for w in self._workers.values() if w.state != "dead"]
        if graceful:
            for worker in live:
                try:
                    worker.conn.send(ShutdownMsg())
                except OSError:
                    pass
            # Let workers *read* the shutdown before we close their
            # connections: closing with inbound bytes queued (heartbeats)
            # RSTs the socket, which can destroy the queued ShutdownMsg.
            # Each worker answers with a goodbye and closes its side; its
            # reader thread exits on that EOF, so joining the readers is
            # exactly "every worker has acknowledged or gone silent".
            for thread in self._reader_threads:
                thread.join(timeout=2.0)
        # Our own processes exit by themselves once told to shut down; one
        # without a live session (reconnecting, or not yet registered)
        # would only keep dialing the closed listener.
        told = {w.name for w in live} if graceful else set()
        for name, process in self._local.items():
            if name in told:
                process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._local = {}
        for worker in live:
            self._close_worker(worker)
        for thread in self._reader_threads:
            thread.join(timeout=1.0)
        self._reader_threads = []
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        if METRICS.enabled:
            METRICS.set_gauge("service.workers", 0)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, campaign, tenant: str = "default") -> SubmissionHandle:
        """Admit one campaign; returns a handle to await its records.

        Cells already committed (by an earlier submission, an earlier
        *run* via the resumed journal, or an overlapping tenant) are
        served from the commit log; only genuinely new cell digests
        enter the dispatch queue.

        Raises:
            ServiceSaturated: Admitting this campaign's new cells would
                exceed ``max_pending_cells`` (or the service is
                draining).
        """
        if not self._started:
            raise RuntimeError("service not started; use 'async with' or start()")
        if self._draining:
            raise ServiceSaturated("service is draining; not accepting submissions")
        payload = campaign.parallel_payload()
        payload_key = payload_digest(payload)
        with TRACER.span("service.submit", cells=campaign.size(), tenant=tenant):
            # Every cell this submission creates ships the submit span's
            # context; worker-side campaign.cell spans then parent under
            # it.  A cell deduped across tenants keeps its *first*
            # submitter's trace.
            trace_ctx = TRACER.current_context() or ""
            plan = []  # (digest, key, coords) in deterministic cell order
            new_digests = set()
            for workload, spec, scheme, t_rh in campaign.cells():
                key = campaign.cell_key(workload, spec, scheme, t_rh)
                digest = cell_digest(payload, key)
                plan.append((digest, key, (workload, spec, scheme, t_rh)))
                if digest not in self._cells and digest not in self._committed_log:
                    new_digests.add(digest)
            backlog = sum(
                1 for c in self._cells.values() if c.status != "committed"
            )
            if backlog + len(new_digests) > self.config.max_pending_cells:
                METRICS.inc("service.submissions", result="saturated")
                raise ServiceSaturated(
                    "admission queue is full",
                    pending_cells=backlog,
                    new_cells=len(new_digests),
                    limit=self.config.max_pending_cells,
                    tenant=tenant,
                )
            handle = SubmissionHandle(
                f"s{next(self._submission_seq)}", tenant, [d for d, _, _ in plan]
            )
            for digest, key, (workload, spec, scheme, t_rh) in plan:
                cell = self._cells.get(digest)
                if cell is None:
                    cell = _CellState(
                        digest=digest,
                        key=key,
                        task=CellTask(
                            key, workload, spec, scheme, t_rh, trace=trace_ctx
                        ),
                        payload=payload,
                        payload_key=payload_key,
                    )
                    self._cells[digest] = cell
                    if digest in self._committed_log:
                        cell.status = "committed"
                        cell.record = self._committed_log[digest]
                        METRICS.inc("service.cells", result="resumed")
                    else:
                        self._pending.append(digest)
                        METRICS.inc("service.cells", result="new")
                else:
                    METRICS.inc("service.cells", result="deduped")
                if cell.status == "committed":
                    handle.remaining.discard(digest)
                else:
                    cell.waiters.append(handle)
            self._handles.append(handle)
            METRICS.inc("service.submissions", result="accepted")
            if not handle.remaining:
                self._finish_handle(handle)
            self._dispatch()
        log.info(
            "service.submitted",
            message=f"[{tenant}/{handle.submission_id}: {len(plan)} cells,"
            f" {len(new_digests)} new]",
            tenant=tenant,
            cells=len(plan),
            new=len(new_digests),
        )
        return handle

    # ------------------------------------------------------------------
    # Scheduler loop (single asyncio task; owns all mutable state)
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._inbox is not None
        try:
            while not self._stop_loop:
                try:
                    item = await asyncio.wait_for(
                        self._inbox.get(), timeout=self.config.tick_s
                    )
                except asyncio.TimeoutError:
                    item = None
                while True:
                    if item is not None:
                        self._handle_item(item)
                    if self._inbox.empty():
                        break
                    item = self._inbox.get_nowait()
                self._expire_leases()
                self._reap_workers()
                if self._gate is not None:
                    for held in self._gate.flush_due():
                        self._on_completion(*held)
                self._maybe_fallback()
                self._check_starvation()
                self._dispatch()
                self._publish_status()
        except Exception as error:
            # A scheduler bug (or a failed journal write) must not leave
            # submitters awaiting handles forever: fail them loudly.
            log.error(
                "service.loop_failed",
                message=f"[scheduler loop died: {error}]",
                error=str(error),
            )
            for handle in self._handles:
                if not handle.done:
                    handle._error = ServiceStopped(
                        "scheduler loop failed", cause=str(error)
                    )
                    handle._event.set()
            raise

    def _handle_item(self, item) -> None:
        kind, token, message = item
        if kind == "hello":
            conn, hello = message
            self._register_worker(token, conn, hello)
            return
        worker_id = self._conn_workers.get(token)
        if kind == "disconnected":
            self._conn_workers.pop(token, None)
            if worker_id is not None:
                self._worker_lost(worker_id, "connection-lost")
            return
        if worker_id is None:
            return  # connection died before registration completed
        if kind == "frame-error":
            self._on_frame_error(worker_id, message)
            return
        if isinstance(message, HeartbeatMsg):
            self._on_heartbeat(worker_id, message)
            return
        if isinstance(message, CompletionMsg):
            if self._gate is not None:
                for delivered in self._gate.intercept((worker_id, message)):
                    self._on_completion(*delivered)
            else:
                self._on_completion(worker_id, message)
            return
        if isinstance(message, GoodbyeMsg):
            worker = self._workers.get(worker_id)
            if worker is not None and worker.state != "dead":
                worker.state = "dead"
            return
        if isinstance(message, NackMsg):
            # The worker discarded one of *our* frames (a torn or
            # corrupted assignment).  The lease covering it will expire
            # and re-dispatch; nothing to resend statelessly.
            METRICS.inc("service.transport.frame_errors", kind="peer-nack")
            log.warning(
                "service.peer_nack",
                message=f"[{worker_id} discarded a frame of ours:"
                f" {message.reason}]",
                worker=worker_id,
                reason=message.reason,
            )
            return

    # -- heartbeats ----------------------------------------------------
    def _on_heartbeat(self, worker_id: str, beat: HeartbeatMsg) -> None:
        worker = self._workers.get(worker_id)
        if worker is not None:
            self._track_heartbeat(worker, beat)
        if beat.lease_id:
            if self._leases.renew(beat.lease_id):
                METRICS.inc("service.heartbeats")
            return
        # Idle ping: the worker is alive and holds no lease.  If we still
        # attribute a lease to it that is no longer active -- e.g. its
        # completion frame was lost and the lease has since expired --
        # the worker may rejoin the idle pool.
        if worker is None or worker.state == "dead":
            return
        METRICS.inc("service.heartbeats")
        if worker.current_lease and self._leases.get(worker.current_lease) is None:
            worker.current_lease = None
        if worker.current_lease is None and worker.state in ("busy", "suspect"):
            worker.state = "idle"

    def _track_heartbeat(self, worker: _Worker, beat: HeartbeatMsg) -> None:
        """Slow-host detection from monotonic heartbeat intervals.

        Lag is (receive interval) - (send interval): both are measured
        on a *single* clock each (worker's and scheduler's monotonic
        respectively), so the comparison needs no common epoch and no
        wall-clock synchronization between hosts.
        """
        now = self._clock()
        if worker.last_beat_monotonic and beat.sent_monotonic:
            sent_dt = beat.sent_monotonic - worker.last_beat_monotonic
            recv_dt = now - worker.last_beat_received
            lag = max(0.0, recv_dt - sent_dt)
            worker.lag_s = lag
            label = worker.name or worker.worker_id
            if METRICS.enabled:
                METRICS.set_gauge(
                    "service.transport.heartbeat_lag_s", lag, worker=label
                )
            if lag > self.config.slow_worker_lag_s and not worker.slow:
                worker.slow = True
                METRICS.inc("service.transport.slow_workers")
                log.warning(
                    "service.slow_worker",
                    message=f"[{worker.worker_id} ({label}) heartbeats lag"
                    f" {lag * 1000:.0f}ms behind its send cadence]",
                    worker=worker.worker_id,
                    lag_s=round(lag, 4),
                )
            elif worker.slow and lag <= self.config.slow_worker_lag_s / 2:
                worker.slow = False  # hysteresis: recovered
        if beat.sent_monotonic:
            worker.last_beat_monotonic = beat.sent_monotonic
            worker.last_beat_received = now

    # -- frame integrity ------------------------------------------------
    def _on_frame_error(self, worker_id: str, kind: str) -> None:
        """One frame from a worker failed checksum/decode: discard + nack.

        Never fatal to the scheduler: the reader already skipped the
        frame; here we count it and ask the worker to resend whatever it
        last sent (the cheap path around a full lease-expiry cycle).
        """
        METRICS.inc("service.transport.frame_errors", kind=kind)
        worker = self._workers.get(worker_id)
        lease_id = (worker.current_lease or "") if worker is not None else ""
        log.warning(
            "service.frame_discarded",
            message=f"[discarded a bad frame from {worker_id} ({kind});"
            " nacking]",
            worker=worker_id,
            kind=kind,
        )
        if worker is not None and worker.state != "dead":
            try:
                worker.conn.send(NackMsg(reason=kind, lease_id=lease_id))
            except OSError:
                self._worker_lost(worker_id, "connection-lost")

    # -- completions ----------------------------------------------------
    def _on_completion(self, worker_id: str, message: CompletionMsg) -> None:
        worker = self._workers.get(worker_id)
        if worker is not None and worker.current_lease == message.lease_id:
            worker.current_lease = None
            if worker.state in ("busy", "suspect"):
                worker.state = "idle"
        self._leases.release(message.lease_id)
        cell = self._cells.get(message.digest)
        if cell is None or cell.status == "committed":
            # Duplicate delivery or stale attempt of an already-committed
            # cell: drop.  Deterministic cells make this always safe.
            METRICS.inc("service.completions", result="duplicate")
            return
        self._commit(
            cell,
            message.record,
            worker_id=worker_id,
            duration_s=message.duration_s,
            attempt=message.attempt,
            epoch=message.epoch,
            lease_id=message.lease_id,
            telemetry=message.telemetry,
        )

    def _commit(
        self,
        cell: _CellState,
        record: dict,
        *,
        worker_id: Optional[str],
        attempt: int,
        epoch: int,
        lease_id: Optional[str],
        duration_s: float = 0.0,
        telemetry: Optional[dict] = None,
    ) -> None:
        """Exactly-once commitment point for one cell."""
        if telemetry:
            METRICS.merge(telemetry)
        cell.status = "committed"
        cell.record = record
        cell.lease = None
        self._committed_log[cell.digest] = record
        if self.journal is not None:
            self.journal.append(
                cell.digest,
                record,
                duration_s=duration_s or None,
                worker_id=worker_id,
                attempt=attempt,
                epoch=epoch,
                lease_id=lease_id,
            )
        METRICS.inc("service.completions", result="committed")
        waiters, cell.waiters = cell.waiters, []
        for handle in waiters:
            handle.remaining.discard(cell.digest)
            if not handle.remaining and not handle.done:
                self._finish_handle(handle)

    def _finish_handle(self, handle: SubmissionHandle) -> None:
        handle._records = [self._cells[d].record for d in handle.digests]
        handle._event.set()

    # -- failure detection & recovery -----------------------------------
    def _expire_leases(self) -> None:
        for lease in self._leases.expire_due():
            METRICS.inc("service.lease_expiries")
            log.warning(
                "service.lease_expired",
                message=f"[lease {lease.lease_id} ({lease.key}) on"
                f" {lease.worker_id} missed its heartbeat deadline]",
                worker=lease.worker_id,
                key=lease.key,
            )
            worker = self._workers.get(lease.worker_id)
            if (
                worker is not None
                and worker.current_lease == lease.lease_id
                and worker.state == "busy"
            ):
                # Could be a hang rather than a death: stop dispatching
                # to it, but let it rejoin if it ever reports back.
                worker.state = "suspect"
            cell = self._cells.get(lease.digest)
            if cell is not None and cell.status == "leased" and cell.lease is lease:
                self._requeue(cell, "lease-expired")

    def _requeue(self, cell: _CellState, reason: str) -> None:
        cell.lease = None
        cell.epoch += 1
        METRICS.inc("service.requeues", reason=reason)
        if cell.attempts >= self.config.retry.max_infra_attempts:
            error = WorkerLostError(
                "cell exhausted its infrastructure retry budget",
                key=cell.key,
                dispatches=cell.attempts,
                reason=reason,
            )
            self._commit(
                cell,
                cell_error_record(cell.task, error, cell.attempts),
                worker_id=None,
                attempt=cell.attempts,
                epoch=cell.epoch,
                lease_id=None,
            )
            return
        cell.status = "pending"
        # Existing RetryPolicy machinery: deterministic, per-cell backoff
        # spaces the re-dispatch (the '#infra' namespace matches the
        # executor's separate infrastructure budget).
        cell.not_before = self._clock() + self.config.retry.delay_s(
            f"{cell.key}#infra", cell.attempts
        )
        self._pending.append(cell.digest)

    def _reap_workers(self) -> None:
        """Respawn the scheduler's own worker processes that died.

        A process's lost connection has already requeued its leases (see
        :meth:`_worker_lost`); this replaces the process itself, under
        the restart budget.  A live process whose connection dropped
        reconnects by itself and is left alone.
        """
        for name, process in list(self._local.items()):
            if process.is_alive():
                continue
            del self._local[name]
            if self._stop_loop or self._restarts >= self.config.max_worker_restarts:
                continue
            self._restarts += 1
            METRICS.inc("service.worker_restarts")
            log.warning(
                "service.worker_respawn",
                message=f"[worker process {name} exited"
                f" (code {process.exitcode}); respawning]",
                worker=name,
                exitcode=process.exitcode,
            )
            self._spawn_worker(replaces=name)

    def _worker_lost(self, worker_id: str, reason: str) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.state == "dead":
            return
        log.warning(
            "service.worker_lost",
            message=f"[worker {worker_id} ({worker.name}) lost ({reason});"
            " expiring its leases]",
            worker=worker_id,
            reason=reason,
        )
        worker.state = "dead"
        worker.current_lease = None
        self._close_worker(worker)
        for lease in self._leases.for_worker(worker_id):
            self._leases.expire(lease.lease_id)
            METRICS.inc("service.lease_expiries")
            cell = self._cells.get(lease.digest)
            if cell is not None and cell.status == "leased":
                self._requeue(cell, reason)

    def _maybe_fallback(self) -> None:
        """Degraded mode: no workers showed up, so make our own.

        Listen mode only.  When the fallback deadline passes with
        outstanding work and not a single live worker (none ever
        connected, or every one disconnected for good), the scheduler
        spawns ``workers`` processes of its own so the campaign still
        completes.  One-shot; while any worker is alive the deadline
        keeps sliding forward.
        """
        if self.config.listen is None or self._fallback_done:
            return
        now = self._clock()
        if any(w.state != "dead" for w in self._workers.values()):
            self._fallback_deadline = now + self.config.local_fallback_deadline_s
            return
        if now < self._fallback_deadline:
            return
        outstanding = any(c.status != "committed" for c in self._cells.values())
        if not outstanding:
            self._fallback_deadline = now + self.config.local_fallback_deadline_s
            return
        self._fallback_done = True
        METRICS.inc("service.transport.fallback")
        log.warning(
            "service.degraded",
            message=f"[no workers connected within"
            f" {self.config.local_fallback_deadline_s}s; spawning"
            f" {self.config.workers} workers of our own]",
            workers=self.config.workers,
        )
        for _ in range(self.config.workers):
            self._spawn_worker()

    def _check_starvation(self) -> None:
        """Fail outstanding cells when no worker can ever run them."""
        if self._local or any(w.state != "dead" for w in self._workers.values()):
            return
        if self._restarts < self.config.max_worker_restarts:
            return
        if self.config.listen is not None and not self._fallback_done:
            return  # a remote worker (or the fallback pool) may yet come
        for cell in self._cells.values():
            if cell.status == "committed":
                continue
            error = WorkerLostError(
                "no workers left and the restart budget is exhausted",
                key=cell.key,
                restarts=self._restarts,
            )
            self._commit(
                cell,
                cell_error_record(cell.task, error, cell.attempts),
                worker_id=None,
                attempt=cell.attempts,
                epoch=cell.epoch,
                lease_id=None,
            )

    # -- dispatch -------------------------------------------------------
    def _dispatch(self) -> None:
        now = self._clock()
        idle = sorted(
            (w for w in self._workers.values() if w.state == "idle"),
            key=lambda w: w.worker_id,
        )
        if idle:
            deferred: List[str] = []
            while self._pending and idle:
                digest = self._pending.popleft()
                cell = self._cells.get(digest)
                if cell is None or cell.status != "pending":
                    continue
                if cell.not_before > now:
                    deferred.append(digest)
                    continue
                worker = idle.pop(0)
                self._dispatch_to(worker, cell)
            self._pending.extend(deferred)
        if METRICS.enabled:
            METRICS.set_gauge("service.queue_depth", len(self._pending))
            METRICS.set_gauge(
                "service.workers",
                sum(1 for w in self._workers.values() if w.state != "dead"),
            )

    def _dispatch_to(self, worker: _Worker, cell: _CellState) -> None:
        cell.attempts += 1
        lease = self._leases.grant(
            cell.digest, cell.key, worker.worker_id, cell.attempts, cell.epoch
        )
        cell.lease = lease
        cell.status = "leased"
        worker.state = "busy"
        worker.current_lease = lease.lease_id
        assignment = CellAssignment(
            task=cell.task,
            payload=cell.payload,
            payload_key=cell.payload_key,
            digest=cell.digest,
            lease_id=lease.lease_id,
            attempt=cell.attempts,
            epoch=cell.epoch,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
        )
        try:
            worker.conn.send(assignment)
        except OSError:
            self._leases.expire(lease.lease_id)
            self._requeue(cell, "connection-lost")
            self._worker_lost(worker.worker_id, "connection-lost")
            return
        METRICS.inc("service.dispatches")

    # ------------------------------------------------------------------
    # Worker process management
    # ------------------------------------------------------------------
    def _spawn_worker(self, replaces: Optional[str] = None) -> None:
        """Start one worker process of our own, dialing our listener."""
        name = f"w{next(self._worker_seq)}"
        # ``service_worker_main`` is looked up in this module's globals at
        # call time, so a wrapper installed over it (tracing) is honoured.
        process = self._mp.Process(
            target=service_worker_main,
            args=(
                self.listen_address,
                name,
                self._stats_cache_dir,
                export_config(),
                self.chaos,
                self.config.frame_timeout_s,
            ),
            daemon=True,
            name=f"repro-service-{name}",
        )
        process.start()
        self._local[name] = process
        if self.manifest is not None:
            self.manifest.workers.append(
                {
                    "worker_id": name,
                    "pid": process.pid,
                    "replaces": replaces,
                    "stats_cache_dir": self._stats_cache_dir,
                }
            )

    def _close_worker(self, worker: _Worker) -> None:
        worker.conn.close()
        if METRICS.enabled:
            METRICS.set_gauge(
                "service.transport.heartbeat_lag_s",
                0.0,
                worker=worker.name or worker.worker_id,
            )

    # ------------------------------------------------------------------
    # Worker connections: accept loop, per-connection readers, registration
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        """Accept worker connections; one reader thread per connection."""
        while not self._reader_stop.is_set():
            try:
                raw, _addr = self._listener.accept()
            except OSError:
                return  # listener closed (shutdown)
            conn = FramedSocket(raw, frame_timeout_s=self.config.frame_timeout_s)
            token = next(self._conn_seq)
            thread = threading.Thread(
                target=self._read_conn, args=(token, conn), daemon=True
            )
            self._reader_threads.append(thread)
            thread.start()

    def _read_conn(self, token: int, conn: FramedSocket) -> None:
        """Reader thread of one worker connection -> the asyncio inbox.

        Enforces the typed failure envelope at the edge: a
        :class:`FrameError` discards one frame and keeps reading; any
        :class:`TransportError`/``OSError`` ends the connection, which
        the loop converts into lease expiry + requeue.
        """
        registered = False
        try:
            while True:
                try:
                    message = conn.recv()
                except FrameError as error:
                    self._post(
                        (
                            "frame-error",
                            token,
                            str(error.context.get("kind", "unknown")),
                        )
                    )
                    continue
                except (TransportError, OSError):
                    return
                if message is None:
                    # Idle timeout.  Keep listening -- except during
                    # shutdown, where a worker idle this long is not
                    # going to acknowledge anything (live ones answer
                    # the ShutdownMsg with a goodbye + EOF well before
                    # one frame timeout elapses).
                    if self._reader_stop.is_set():
                        return
                    continue
                if not registered:
                    if not isinstance(message, HelloMsg):
                        return  # protocol violation: first frame is Hello
                    registered = True
                    self._post(("hello", token, (conn, message)))
                    continue
                self._post(("message", token, message))
        finally:
            self._post(("disconnected", token, None))
            conn.close()

    def _register_worker(
        self, token: int, conn: FramedSocket, hello: HelloMsg
    ) -> None:
        """Admit one worker connection (scheduler-loop side of the handshake).

        Every *connection* gets a fresh ``worker_id`` -- a reconnecting
        worker is a new lease-table identity, so stale leases of its
        previous life expire normally and can never be confused with
        new grants.
        """
        worker_id = f"n{next(self._session_seq)}"
        self._workers[worker_id] = _Worker(
            worker_id=worker_id, conn=conn, name=hello.name
        )
        self._conn_workers[token] = worker_id
        try:
            conn.send(
                RegisteredMsg(
                    worker_id=worker_id,
                    heartbeat_interval_s=self.config.heartbeat_interval_s,
                )
            )
        except OSError:
            self._worker_lost(worker_id, "connection-lost")
            return
        METRICS.inc("service.transport.connects", role="scheduler")
        log.info(
            "service.worker_connected",
            message=f"[{hello.name} connected from {conn.peername()}"
            f" as {worker_id}"
            + (f" (reconnect #{hello.reconnects})" if hello.reconnects else "")
            + "]",
            worker=worker_id,
            name=hello.name,
            reconnects=hello.reconnects,
        )
        # Our own processes are in the manifest from the moment they spawn.
        own = self._local.get(hello.name)
        if self.manifest is not None and (own is None or own.pid != hello.pid):
            self.manifest.workers.append(
                {
                    "worker_id": worker_id,
                    "name": hello.name,
                    "pid": hello.pid,
                    "peer": conn.peername(),
                    "reconnects": hello.reconnects,
                    "replaces": None,
                }
            )

    def _post(self, item) -> None:
        loop, inbox = self._loop, self._inbox
        if loop is None or inbox is None:
            return
        try:
            loop.call_soon_threadsafe(inbox.put_nowait, item)
        except RuntimeError:
            pass  # loop already closed (shutdown race)

    # ------------------------------------------------------------------
    # Introspection (tests, smoke scripts)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Point-in-time counters describing the service's state."""
        states = [c.status for c in self._cells.values()]
        return {
            "cells": len(states),
            "committed": states.count("committed"),
            "pending": states.count("pending"),
            "leased": states.count("leased"),
            "workers_alive": sum(
                1 for w in self._workers.values() if w.state != "dead"
            ),
            "slow_workers": sum(1 for w in self._workers.values() if w.slow),
            "fallback_engaged": self._fallback_done,
            "worker_restarts": self._restarts,
            "lease_history": len(self._leases.history),
            "submissions": len(self._handles),
        }

    # ------------------------------------------------------------------
    # Live observability endpoint (/status and /healthz payloads)
    # ------------------------------------------------------------------
    def _publish_status(self) -> None:
        """Swap in a fresh /status snapshot (scheduler loop only).

        Builds a brand-new dict and replaces the published reference in
        one assignment; the endpoint's handler threads read whichever
        snapshot was current when their request arrived.  No-op without
        a configured endpoint, so the loop stays endpoint-free by
        default.
        """
        if self._endpoint is None:
            return
        now = self._clock()
        workers = []
        for worker in self._workers.values():
            beat_age = (
                round(now - worker.last_beat_received, 4)
                if worker.last_beat_received
                else None
            )
            workers.append(
                {
                    "worker": worker.worker_id,
                    "name": worker.name,
                    "state": worker.state,
                    "current_lease": worker.current_lease,
                    "heartbeat_lag_s": round(worker.lag_s, 4),
                    "heartbeat_age_s": beat_age,
                    "slow": worker.slow,
                }
            )
        payload = dict(self.stats())
        payload.update(
            {
                "workers": workers,
                "leases_in_flight": len(self._leases),
                "queue_depth": len(self._pending),
                "cache": self._cache_stats(),
                "draining": self._draining,
                "degraded": self._fallback_done,
                "listen_address": self.listen_address,
                "ts": time.time(),
            }
        )
        self._status_snapshot = payload

    @staticmethod
    def _cache_stats() -> dict:
        """Stats-cache hit/miss counters from the live metrics registry."""
        counters = METRICS.snapshot().get("counters", {})
        hits = int(
            counters.get(series_key("cache.requests", {"result": "hit"}), 0)
        ) + int(
            counters.get(series_key("cache.requests", {"result": "disk_hit"}), 0)
        )
        misses = int(
            counters.get(series_key("cache.requests", {"result": "miss"}), 0)
        )
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else None,
        }

    def _health_payload(self) -> dict:
        """The /healthz body; ``status != "ok"`` renders as HTTP 503."""
        snapshot = self._status_snapshot
        degraded = bool(snapshot.get("degraded"))
        return {
            "status": "degraded" if degraded else "ok",
            "workers_alive": snapshot.get("workers_alive", 0),
            "leases_in_flight": snapshot.get("leases_in_flight", 0),
            "draining": bool(snapshot.get("draining")),
        }


# ---------------------------------------------------------------------------
# Synchronous convenience driver
# ---------------------------------------------------------------------------
def run_service(
    campaigns,
    *,
    config: Optional[ServiceConfig] = None,
    journal: Optional[Union[str, Path, CheckpointJournal]] = None,
    chaos: Optional[ChaosSpec] = None,
    manifest: Optional[RunManifest] = None,
    resume: bool = True,
    tenants: Optional[List[str]] = None,
) -> List[List[dict]]:
    """Run a batch of campaigns through one service; returns their records.

    Submissions are made concurrently (so overlapping grids dedupe), the
    service drains gracefully afterwards, and the result list is ordered
    like ``campaigns``.  This is the synchronous entry point the CLI,
    the smoke scripts and ``Campaign.run(workers=N)`` use; called from
    inside a running event loop (a notebook cell, an async caller), it
    runs the service on a helper thread, since event loops cannot nest.
    """
    campaigns = list(campaigns)
    names = tenants or [f"tenant{i}" for i in range(len(campaigns))]
    if len(names) != len(campaigns):
        raise ValueError("tenants must match campaigns 1:1")

    async def _main() -> List[List[dict]]:
        async with CampaignService(
            config, journal=journal, chaos=chaos, manifest=manifest, resume=resume
        ) as service:
            handles = [
                await service.submit(campaign, tenant=name)
                for campaign, name in zip(campaigns, names)
            ]
            return [await handle.result() for handle in handles]

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(_main())
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as helper:
        return helper.submit(asyncio.run, _main()).result()


__all__ = [
    "CampaignService",
    "ServiceConfig",
    "SubmissionHandle",
    "run_service",
]
