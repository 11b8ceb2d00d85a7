"""Service worker: leased cell execution over one framed TCP session.

One worker = one process that dials the scheduler's listen address,
registers with a :class:`HelloMsg`, and then runs leased cells through
:func:`run_cell_task` -- hence :meth:`Campaign.execute_cell` and the
:class:`ResilientExecutor` fault boundary, the code path of a serial
sweep, which is what keeps serial and service records identical.  The
scheduler spawns its own workers as such processes on a loopback
address (this is how ``Campaign.run(workers=N)`` runs);
``repro-run work --connect`` starts them on any host.

While the worker is connected, a daemon heartbeat thread renews the
lease it holds every ``heartbeat_interval_s`` and sends idle pings
(an empty ``lease_id``) between cells, so the scheduler can tell an
idle worker from a half-open connection.  A lazy per-payload
worker-state cache survives reconnects: a worker that loses its session
keeps its rebuilt campaigns and rejoins warm.

Telemetry and cache configuration arrive at spawn time: an
:func:`repro.obs.runtime.export_config` payload applied via
:func:`apply_config`, plus a ``stats_cache_dir`` pointing the worker's
simulators at the shared content-keyed stats cache.  Each cell ships its
metric *delta* back inside its completion, so the scheduler's registry
holds the same semantic totals a serial run would.

Failure discipline mirrors the transport's typed envelope:

* a :class:`~repro.errors.FrameError` on receive discards exactly that
  frame, nacks the scheduler, and keeps the session alive;
* a :class:`~repro.errors.ConnectionLostError` (or any socket error)
  ends the session; the worker reconnects with the *existing*
  deterministic :class:`~repro.resilience.executor.RetryPolicy` backoff
  (exponential + seeded jitter) under a bounded reconnect budget, and
  presents itself as a fresh connection (the scheduler assigns a new
  ``worker_id``; the stable ``name`` ties the sessions together in
  logs);
* a :class:`NackMsg` from the scheduler (it discarded one of our frames)
  triggers a *clean* resend of the last unacknowledged completion --
  fast-path recovery that spares the cell a lease-expiry round trip;
* a cell that raises unexpectedly (a bug, not a simulation error --
  those become tidy error records inside ``execute_cell``) still
  reports a completion carrying an error record, so its lease resolves
  without waiting for expiry.

Both halves of the chaos harness apply on the one completion send path,
against a *real* socket: process faults (:meth:`ChaosEngine.decide` --
kill before or after the send, hang with a stalled heartbeat pump,
duplicate the frame) and wire faults (:meth:`ChaosEngine.decide_wire`
-- a doomed frame is really dropped, a corrupt frame really crosses the
wire and really fails the scheduler's CRC).  Sends and injected kills
share one lock, so a killed worker never tears a frame mid-write.  All
decisions are pure functions of ``(seed, cell key, attempt)`` and fire
only on first attempts, so every chaos schedule converges.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple

from repro.errors import ConnectionLostError, FrameError, TransportError
from repro.experiments.campaign import Campaign
from repro.experiments.common import get_simulator
from repro.obs.metrics import diff_snapshots
from repro.obs.runtime import METRICS, TRACER, apply_config, get_logger, heartbeat
from repro.resilience.executor import ResilientExecutor, RetryPolicy
from repro.service.chaos import ChaosDecision, ChaosEngine, ChaosSpec, WireDecision
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
)
from repro.service.transport import (
    FramedSocket,
    connect,
    corrupt_frame,
    encode_message,
    truncate_frame,
)
from repro.utils.prng import derive_key

log = get_logger("service.worker")

_NO_FAULT = ChaosDecision()
_NO_WIRE = WireDecision()


def build_worker_state(payload: dict, stats_cache_dir: Optional[str] = None) -> dict:
    """Build the execution state one campaign payload needs in this process.

    Returns ``{"campaign", "sim", "executor"}`` -- a rebuilt
    :class:`Campaign`, the process-wide simulator for its geometry
    (pointed at the shared stats cache when one is configured), and a
    fresh :class:`ResilientExecutor` fault boundary.  Workers build one
    lazily per distinct campaign payload and reuse it across cells.
    """
    campaign = Campaign(**payload)
    sim = get_simulator(campaign.config)
    if stats_cache_dir:
        sim.stats_cache.persist_to(stats_cache_dir)
    return {"campaign": campaign, "sim": sim, "executor": ResilientExecutor()}


def run_cell_task(
    state: dict, task: CellTask, worker_id: str
) -> Tuple[dict, float, Optional[dict]]:
    """Run one cell against prebuilt worker state.

    Returns ``(record, duration_s, telemetry)``: the cell's tidy record
    from :meth:`Campaign.execute_cell`, its wall time, and its metric
    delta snapshot (None when telemetry is disabled).  Forked workers
    inherit the parent's registry contents; shipping deltas keeps them
    from double-counting in the scheduler's merge.
    """
    telemetry = METRICS.enabled
    if telemetry:
        heartbeat(worker_id)
    before = METRICS.snapshot() if telemetry else None
    started = time.perf_counter()
    # Adopt the submitter's trace context (a no-op for an empty token):
    # the cell's campaign.cell span and everything under it join the
    # submitting process's trace rather than rooting a local one.
    with TRACER.attach(task.trace):
        record = state["campaign"].execute_cell(
            state["sim"],
            state["executor"],
            task.workload,
            task.spec,
            task.scheme,
            task.t_rh,
        )
    duration = time.perf_counter() - started
    delta = diff_snapshots(METRICS.snapshot(), before) if telemetry else None
    return record, duration, delta


class _HeartbeatPump:
    """Daemon thread renewing the held lease, or pinging while idle.

    ``stall_until`` (monotonic) silences the pump, idle pings included
    -- the chaos harness uses it to simulate a hung worker whose lease
    must expire.

    Each beat carries both clocks: ``sent_at`` (wall, for humans in
    logs) and ``sent_monotonic`` (the sender's monotonic clock, which
    the scheduler -- running on *its own* monotonic clock -- uses to
    compute heartbeat-interval drift without cross-clock skew; see
    :class:`~repro.service.protocol.HeartbeatMsg`).
    """

    def __init__(self, worker_id: str, conn, send_lock, interval_s: float) -> None:
        self.worker_id = worker_id
        self._conn = conn
        self._lock = send_lock
        self.interval_s = max(interval_s, 0.01)
        self.lease_id: Optional[str] = None
        self.stall_until = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            lease_id = self.lease_id
            if time.monotonic() < self.stall_until:
                continue
            beat = HeartbeatMsg(
                worker_id=self.worker_id,
                lease_id=lease_id or "",
                sent_at=time.time(),
                sent_monotonic=time.monotonic(),
            )
            try:
                with self._lock:
                    # Re-check under the lock: the main thread clears the
                    # lease before releasing it, so a completed cell never
                    # gets a post-completion (stale) heartbeat.
                    if self.lease_id == lease_id:
                        self._conn.send(beat)
            except (OSError, ValueError):  # scheduler gone; exit quietly
                return


class _ServiceWorker:
    """State of one service worker across its (re)connection sessions."""

    def __init__(
        self,
        address: str,
        *,
        name: str,
        stats_cache_dir: Optional[str] = None,
        chaos_spec: Optional[ChaosSpec] = None,
        frame_timeout_s: float = 10.0,
        reconnect: Optional[RetryPolicy] = None,
        max_reconnects: int = 8,
    ) -> None:
        self.address = address
        self.name = name
        self.stats_cache_dir = stats_cache_dir
        self.chaos = ChaosEngine(chaos_spec) if chaos_spec is not None else None
        self.frame_timeout_s = frame_timeout_s
        self.reconnect = reconnect or RetryPolicy(backoff_base_s=0.05)
        self.max_reconnects = max_reconnects
        self.reconnects = 0
        self.cells_run = 0
        self._states: Dict[str, dict] = {}  # payload digest -> worker state
        self._last_completion: Optional[CompletionMsg] = None
        self._send_lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until the scheduler says shutdown (or budgets exhaust).

        Returns the number of cells this worker ran across all sessions.
        """
        while True:
            try:
                sock = connect(self.address, frame_timeout_s=self.frame_timeout_s)
            except OSError as error:
                if not self._backoff(f"connect failed: {error}"):
                    return self.cells_run
                continue
            METRICS.inc("service.transport.connects", role="worker")
            if self.reconnects:
                METRICS.inc("service.transport.reconnects")
            try:
                with TRACER.span(
                    "service.worker_session",
                    worker=self.name,
                    reconnects=self.reconnects,
                ):
                    if self._session(sock):
                        return self.cells_run  # clean shutdown
            except (TransportError, OSError) as error:
                log.warning(
                    "worker.session_lost",
                    message=f"[{self.name}: session lost ({error});"
                    " reconnecting]",
                    name=self.name,
                    error=str(error),
                )
            finally:
                sock.close()
            if not self._backoff("session lost"):
                return self.cells_run

    def _backoff(self, why: str) -> bool:
        """Sleep the deterministic reconnect backoff; False = give up."""
        self.reconnects += 1
        if self.reconnects > self.max_reconnects:
            log.error(
                "worker.gave_up",
                message=f"[{self.name}: reconnect budget exhausted"
                f" after {self.max_reconnects} tries ({why})]",
                name=self.name,
                reconnects=self.reconnects - 1,
            )
            return False
        time.sleep(
            self.reconnect.delay_s(f"{self.name}#reconnect", self.reconnects)
        )
        return True

    # ------------------------------------------------------------------
    def _session(self, sock: FramedSocket) -> bool:
        """One registered session; True when shut down cleanly."""
        sock.send(
            HelloMsg(name=self.name, pid=os.getpid(), reconnects=self.reconnects)
        )
        registered = sock.recv()
        if not isinstance(registered, RegisteredMsg):
            raise ConnectionLostError(
                "scheduler did not acknowledge registration",
                kind="handshake",
                got=type(registered).__name__,
            )
        worker_id = registered.worker_id
        pump = _HeartbeatPump(
            worker_id, sock, self._send_lock, registered.heartbeat_interval_s
        )
        pump.start()
        try:
            while True:
                try:
                    msg = sock.recv()
                except FrameError as error:
                    # Framing survived: drop exactly this frame, tell the
                    # scheduler, keep the session.
                    kind = error.context.get("kind", "unknown")
                    METRICS.inc("service.transport.frame_errors", kind=kind)
                    sock.send(NackMsg(reason=str(error)))
                    continue
                if msg is None:
                    continue  # idle timeout; heartbeats keep us registered
                if isinstance(msg, ShutdownMsg):
                    pump.stop()
                    with self._send_lock:
                        sock.send(
                            GoodbyeMsg(worker_id=worker_id, cells_run=self.cells_run)
                        )
                    return True
                if isinstance(msg, NackMsg):
                    self._resend(sock)
                    continue
                if isinstance(msg, CellAssignment):
                    self._run_cell(sock, pump, worker_id, msg)
        finally:
            pump.stop()

    def _resend(self, sock: FramedSocket) -> None:
        """The scheduler discarded a frame of ours: resend it clean."""
        completion = self._last_completion
        if completion is None:
            return
        log.info(
            "worker.resend",
            message=f"[{self.name}: resending nacked completion"
            f" for {completion.key}]",
            name=self.name,
            key=completion.key,
        )
        with self._send_lock:
            sock.send(completion)

    # ------------------------------------------------------------------
    def _compute(self, worker_id: str, assignment: CellAssignment) -> CompletionMsg:
        """Run one cell; an unexpected exception becomes an error record."""
        try:
            state = self._states.get(assignment.payload_key)
            if state is None:
                state = build_worker_state(assignment.payload, self.stats_cache_dir)
                self._states[assignment.payload_key] = state
            record, duration_s, telemetry = run_cell_task(
                state, assignment.task, worker_id
            )
        except Exception as error:  # defense in depth: report, don't die
            record = cell_error_record(assignment.task, error, attempts=1)
            duration_s, telemetry = 0.0, None
        return CompletionMsg(
            worker_id=worker_id,
            lease_id=assignment.lease_id,
            digest=assignment.digest,
            key=assignment.task.key,
            attempt=assignment.attempt,
            epoch=assignment.epoch,
            record=record,
            duration_s=duration_s,
            telemetry=telemetry,
        )

    def _run_cell(
        self,
        sock: FramedSocket,
        pump: _HeartbeatPump,
        worker_id: str,
        assignment: CellAssignment,
    ) -> None:
        key, attempt = assignment.task.key, assignment.attempt
        chaos = self.chaos
        fault = chaos.decide(key, attempt) if chaos is not None else _NO_FAULT
        wire = chaos.decide_wire(key, attempt) if chaos is not None else _NO_WIRE
        pump.lease_id = assignment.lease_id
        if fault.action == "kill-before":
            with self._send_lock:
                chaos.kill_now("kill-before")
        if fault.action == "hang":
            # Stop heartbeating *now*; the lease will expire while (or
            # shortly after) the cell computes.
            pump.stall_until = time.monotonic() + fault.hang_s + pump.interval_s
            METRICS.inc("chaos.injections", action="hang")
        started = time.monotonic()
        completion = self._compute(worker_id, assignment)
        self.cells_run += 1
        self._last_completion = completion
        if fault.action == "hang":
            # Sit on the finished result until the lease is long dead.
            remaining = fault.hang_s - (time.monotonic() - started)
            if remaining > 0:
                time.sleep(remaining)
        if wire.delay_s > 0:
            METRICS.inc("chaos.injections", action="wire-delay")
            time.sleep(wire.delay_s)
        frame = encode_message(completion)
        frame_seed = derive_key(
            chaos.spec.seed if chaos is not None else 0, f"{key}#wire-bytes", 32
        )
        with self._send_lock:
            # Clear the lease under the send lock: no stale heartbeat can
            # follow the completion.
            pump.lease_id = None
            if wire.fate == "drop":
                # The frame vanishes in the network; the worker is healthy
                # and will idle-ping, so the scheduler learns the lease
                # outcome was lost and re-dispatches.
                METRICS.inc("chaos.injections", action="wire-drop")
            elif wire.fate == "corrupt":
                METRICS.inc("chaos.injections", action="wire-corrupt")
                sock.send_bytes(corrupt_frame(frame, frame_seed))
            elif wire.fate == "truncate":
                METRICS.inc("chaos.injections", action="wire-truncate")
                sock.send_bytes(truncate_frame(frame, frame_seed))
            else:
                sock.send_bytes(frame)
                if fault.duplicate:
                    METRICS.inc("chaos.injections", action="duplicate")
                    sock.send_bytes(frame)
            if fault.action == "kill-after":
                chaos.kill_now("kill-after")
        if wire.fate == "truncate":
            raise ConnectionLostError(
                "chaos tore the completion frame mid-write",
                kind="chaos-truncate",
                key=key,
            )
        if wire.conn_drop:
            METRICS.inc("chaos.injections", action="wire-conn-drop")
            raise ConnectionLostError(
                "chaos dropped the connection after a clean send",
                kind="chaos-conn-drop",
                key=key,
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def run_net_worker(
    address: str,
    *,
    name: str,
    stats_cache_dir: Optional[str] = None,
    chaos_spec: Optional[ChaosSpec] = None,
    frame_timeout_s: float = 10.0,
    reconnect: Optional[RetryPolicy] = None,
    max_reconnects: int = 8,
) -> int:
    """Run one service worker in this process until shutdown; returns cells run."""
    worker = _ServiceWorker(
        address,
        name=name,
        stats_cache_dir=stats_cache_dir,
        chaos_spec=chaos_spec,
        frame_timeout_s=frame_timeout_s,
        reconnect=reconnect,
        max_reconnects=max_reconnects,
    )
    return worker.run()


def service_worker_main(
    address: str,
    name: str,
    stats_cache_dir: Optional[str],
    obs_config: Optional[dict],
    chaos_spec: Optional[ChaosSpec],
    frame_timeout_s: float = 10.0,
    max_reconnects: int = 8,
) -> None:
    """Process entry point (picklable target for multiprocessing).

    Returns normally after a clean shutdown, so wrappers around it can
    run their own teardown.
    """
    if obs_config is not None:
        apply_config(obs_config)
    run_net_worker(
        address,
        name=name,
        stats_cache_dir=stats_cache_dir,
        chaos_spec=chaos_spec,
        frame_timeout_s=frame_timeout_s,
        max_reconnects=max_reconnects,
    )


def spawn_net_workers(
    address: str,
    count: int,
    *,
    name_prefix: str = "net",
    stats_cache_dir: Optional[str] = None,
    obs_config: Optional[dict] = None,
    chaos_spec: Optional[ChaosSpec] = None,
    frame_timeout_s: float = 10.0,
    max_reconnects: int = 8,
    mp_context: Optional[str] = None,
):
    """Spawn ``count`` worker processes dialing ``address``.

    Returns the (started) process handles; callers join them.  Used by
    the ``work`` CLI subcommand and the distributed tests/smoke.
    """
    import multiprocessing

    ctx = multiprocessing.get_context(mp_context)
    processes = []
    for index in range(count):
        worker_name = f"{name_prefix}{index}"
        process = ctx.Process(
            target=service_worker_main,
            args=(
                address,
                worker_name,
                stats_cache_dir,
                obs_config,
                chaos_spec,
                frame_timeout_s,
                max_reconnects,
            ),
            daemon=True,
            name=f"repro-net-{worker_name}",
        )
        process.start()
        processes.append(process)
    return processes


__all__ = [
    "build_worker_state",
    "run_cell_task",
    "run_net_worker",
    "service_worker_main",
    "spawn_net_workers",
]
