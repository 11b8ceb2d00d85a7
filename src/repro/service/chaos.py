"""Deterministic chaos harness for the campaign service.

The service's correctness claim -- final results identical to a serial
run, every cell committed exactly once, resume without recompute -- is
only credible if it holds *under failure*.  This module injects the
failures, reproducibly:

* **worker kills** -- a worker ``os._exit``\\ s mid-assignment, before
  or after sending its completion (crash vs. crash-after-send);
* **hangs with heartbeat stalls** -- a worker computes its cell but
  stops heartbeating and sits on the completion longer than the lease
  timeout, so the scheduler expires the lease and re-dispatches while
  the original eventually delivers a *late* (stale-lease) completion;
* **duplicated completions** -- the same completion frame is sent
  twice, exercising idempotent commitment;
* **reordered completions** -- the scheduler-side :class:`CompletionGate`
  holds every k-th completion back one message, exercising
  out-of-order delivery;
* **journal truncation** -- :func:`truncate_journal_tail` tears the
  final JSONL record of a checkpoint journal, simulating a crash
  mid-write on a filesystem without atomic rename;
* **wire faults** -- a completion frame can be *dropped* (lost in the
  network: the worker stays healthy but the scheduler must expire the
  lease), *corrupted* (one payload byte flipped: the CRC fails, the
  frame is discarded, and the peer is nacked into resending),
  *truncated* (a torn write followed by a connection close: a
  half-open socket), or *delayed*; independently the whole connection
  can be *dropped* right after a clean send, forcing the worker through
  its reconnect/backoff path.

Every worker applies both halves -- process faults (:meth:`ChaosEngine.decide`)
and wire faults (:meth:`ChaosEngine.decide_wire`) -- on its one send path.

Every decision is a pure function of ``(seed, cell key, attempt)`` via
the same :func:`~repro.utils.prng.derive_key` construction the retry
backoff uses, so a chaos schedule is exactly reproducible and tests can
*precompute* it (e.g. assert the seed they chose kills at least two
workers).  Chaos only ever fires on a cell's **first** attempt:
re-dispatched attempts run clean, which guarantees every chaos schedule
converges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.obs.runtime import METRICS
from repro.utils.prng import derive_key

#: Exit status of a chaos-killed worker (mirrors SIGKILL's 128+9).
KILLED_EXIT_CODE = 137


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded failure-injection schedule for one service run.

    All ``*_frac`` fields are probabilities in [0, 1] evaluated per
    (cell, attempt=1) with deterministic draws; they partition one unit
    interval in priority order kill-before > kill-after > hang, so at
    most one *process* fault fires per cell.  ``duplicate_frac`` draws
    independently (a completion can be both late and duplicated).

    Attributes:
        seed: Master seed every decision derives from.
        kill_before_frac: P(worker exits before sending the completion).
        kill_after_frac: P(worker exits right after sending it).
        hang_frac: P(worker stalls heartbeats and delays the completion).
        hang_s: How long a hanging worker sits on its completion; must
            exceed the service's lease timeout to actually trigger
            expiry.
        duplicate_frac: P(a clean completion frame is sent twice).
        reorder_every: Scheduler-side -- hold every k-th completion back
            one delivery (0 disables).
        max_hold_s: Longest the completion gate may hold a message (so
            a held *final* completion still drains).
        wire_drop_frac: P(the completion frame vanishes in the
            network).  The fates partition one unit interval in priority
            order drop > corrupt > truncate, so at most one frame fate
            fires per cell.
        wire_corrupt_frac: P(one payload byte of the completion frame is
            flipped -- the receiver's CRC must catch it).
        wire_truncate_frac: P(the completion frame is torn mid-write and
            the connection closed -- a half-open socket).
        wire_conn_drop_frac: P(the connection is dropped right *after* a
            clean completion send); drawn independently of the frame
            fate, exercising worker reconnection without losing data.
        wire_delay_frac: P(the completion send is delayed by
            ``wire_delay_s``); independent draw.
        wire_delay_s: How long a delayed send sleeps.
    """

    seed: int = 2024
    kill_before_frac: float = 0.0
    kill_after_frac: float = 0.0
    hang_frac: float = 0.0
    hang_s: float = 0.0
    duplicate_frac: float = 0.0
    reorder_every: int = 0
    max_hold_s: float = 0.5
    wire_drop_frac: float = 0.0
    wire_corrupt_frac: float = 0.0
    wire_truncate_frac: float = 0.0
    wire_conn_drop_frac: float = 0.0
    wire_delay_frac: float = 0.0
    wire_delay_s: float = 0.0

    def __post_init__(self) -> None:
        total = self.kill_before_frac + self.kill_after_frac + self.hang_frac
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"kill/hang fractions must sum to <= 1, got {total:.3f}"
            )
        wire_total = (
            self.wire_drop_frac + self.wire_corrupt_frac + self.wire_truncate_frac
        )
        if wire_total > 1.0 + 1e-9:
            raise ValueError(
                f"wire frame-fate fractions must sum to <= 1, got {wire_total:.3f}"
            )
        for name in (
            "kill_before_frac",
            "kill_after_frac",
            "hang_frac",
            "duplicate_frac",
            "wire_drop_frac",
            "wire_corrupt_frac",
            "wire_truncate_frac",
            "wire_conn_drop_frac",
            "wire_delay_frac",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.reorder_every < 0:
            raise ValueError(f"reorder_every must be >= 0, got {self.reorder_every}")
        if self.wire_delay_s < 0:
            raise ValueError(f"wire_delay_s must be >= 0, got {self.wire_delay_s}")

    @property
    def has_wire_faults(self) -> bool:
        """Does this schedule ever fault a completion frame or connection?"""
        return any(
            getattr(self, name) > 0
            for name in (
                "wire_drop_frac",
                "wire_corrupt_frac",
                "wire_truncate_frac",
                "wire_conn_drop_frac",
                "wire_delay_frac",
            )
        )


@dataclass(frozen=True)
class ChaosDecision:
    """What the harness does to one (cell, attempt)."""

    action: str = "none"  # "none" | "kill-before" | "kill-after" | "hang"
    hang_s: float = 0.0
    duplicate: bool = False

    @property
    def benign(self) -> bool:
        return self.action == "none" and not self.duplicate


_NO_CHAOS = ChaosDecision()


@dataclass(frozen=True)
class WireDecision:
    """What the wire-fault layer does to one cell's completion frame."""

    fate: str = "none"  # "none" | "drop" | "corrupt" | "truncate"
    conn_drop: bool = False  #: Close the connection after a clean send.
    delay_s: float = 0.0

    @property
    def benign(self) -> bool:
        return self.fate == "none" and not self.conn_drop and self.delay_s == 0.0

    @property
    def drops_connection(self) -> bool:
        """Does this decision sever the TCP connection?

        ``truncate`` tears the frame *and* closes the socket (a torn
        write is only observable as one); ``conn_drop`` closes it after
        a clean send.  Tests count these to assert a seed exercises
        reconnection.
        """
        return self.fate == "truncate" or self.conn_drop


_NO_WIRE_CHAOS = WireDecision()


def _unit(seed: int, label: str) -> float:
    """Deterministic draw in [0, 1) from (seed, label)."""
    return derive_key(seed, label, 53) / float(1 << 53)


class ChaosEngine:
    """Worker-side decision oracle (pure; shared nothing)."""

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec

    def decide(self, key: str, attempt: int) -> ChaosDecision:
        """The (deterministic) fault plan for one dispatch of one cell."""
        if attempt != 1:
            return _NO_CHAOS  # retries always run clean -> convergence
        spec = self.spec
        u = _unit(spec.seed, f"{key}#fault")
        if u < spec.kill_before_frac:
            action = "kill-before"
        elif u < spec.kill_before_frac + spec.kill_after_frac:
            action = "kill-after"
        elif u < spec.kill_before_frac + spec.kill_after_frac + spec.hang_frac:
            action = "hang"
        else:
            action = "none"
        duplicate = _unit(spec.seed, f"{key}#dup") < spec.duplicate_frac
        if action == "none" and not duplicate:
            return _NO_CHAOS
        return ChaosDecision(
            action=action,
            hang_s=spec.hang_s if action == "hang" else 0.0,
            duplicate=duplicate,
        )

    def decide_wire(self, key: str, attempt: int) -> WireDecision:
        """The deterministic wire-fault plan for one completion send.

        Like :meth:`decide`, fires only on a cell's **first** attempt:
        re-dispatched attempts ship clean frames, so every wire-chaos
        schedule converges.  The draws use distinct labels from the
        process-fault draws, so wire and process chaos decorrelate.
        """
        if attempt != 1:
            return _NO_WIRE_CHAOS
        spec = self.spec
        if not spec.has_wire_faults:
            return _NO_WIRE_CHAOS
        u = _unit(spec.seed, f"{key}#wire-fate")
        if u < spec.wire_drop_frac:
            fate = "drop"
        elif u < spec.wire_drop_frac + spec.wire_corrupt_frac:
            fate = "corrupt"
        elif u < spec.wire_drop_frac + spec.wire_corrupt_frac + spec.wire_truncate_frac:
            fate = "truncate"
        else:
            fate = "none"
        conn_drop = (
            fate in ("none", "drop")  # truncate already closes the socket
            and _unit(spec.seed, f"{key}#wire-conn") < spec.wire_conn_drop_frac
        )
        delay = (
            spec.wire_delay_s
            if _unit(spec.seed, f"{key}#wire-delay") < spec.wire_delay_frac
            else 0.0
        )
        if fate == "none" and not conn_drop and delay == 0.0:
            return _NO_WIRE_CHAOS
        return WireDecision(fate=fate, conn_drop=conn_drop, delay_s=delay)

    def kill_now(self, action: str) -> None:  # pragma: no cover - exits
        """Terminate this worker process immediately (no cleanup)."""
        METRICS.inc("chaos.injections", action=action)
        os._exit(KILLED_EXIT_CODE)


def planned_faults(
    spec: ChaosSpec, keys: Iterable[str]
) -> List[Tuple[str, ChaosDecision]]:
    """Precompute the first-attempt fault schedule for a set of cells.

    Tests use this to assert a chosen seed produces the scenario they
    need (e.g. at least two kills) *before* spending simulation time.
    """
    engine = ChaosEngine(spec)
    plan = []
    for key in keys:
        decision = engine.decide(key, 1)
        if not decision.benign:
            plan.append((key, decision))
    return plan


def planned_wire_faults(
    spec: ChaosSpec, keys: Iterable[str]
) -> List[Tuple[str, WireDecision]]:
    """Precompute the first-attempt wire-fault schedule for some cells.

    The distributed smoke uses this to assert its seed produces the
    scenario the acceptance contract names (>= 2 connection drops, at
    least one corrupt frame) before spending simulation time.
    """
    engine = ChaosEngine(spec)
    plan = []
    for key in keys:
        decision = engine.decide_wire(key, 1)
        if not decision.benign:
            plan.append((key, decision))
    return plan


# ---------------------------------------------------------------------------
# Scheduler-side: delivery-order chaos
# ---------------------------------------------------------------------------
class CompletionGate:
    """Holds every k-th completion back one delivery (reordering).

    The scheduler funnels every received completion through
    :meth:`intercept`; with ``reorder_every == k``, completion number
    ``k, 2k, ...`` is held until the *next* completion arrives (then
    delivered after it), or until :meth:`flush_due` sees it exceed
    ``max_hold_s`` -- whichever comes first, so a held final message
    cannot deadlock the run.
    """

    def __init__(self, spec: ChaosSpec, *, clock=None) -> None:
        import time

        self.spec = spec
        self._clock = clock or time.monotonic
        self._count = 0
        self._held: Optional[object] = None
        self._held_at = 0.0

    def intercept(self, message) -> List[object]:
        """Pass one completion through the gate; returns deliveries."""
        if not self.spec.reorder_every:
            return [message]
        self._count += 1
        out: List[object] = []
        if self._held is not None:
            held, self._held = self._held, None
            out.append(message)
            out.append(held)  # delivered late: reordered past its successor
            METRICS.inc("chaos.injections", action="reorder")
            return out
        if self._count % self.spec.reorder_every == 0:
            self._held = message
            self._held_at = self._clock()
            return []
        return [message]

    def flush_due(self) -> List[object]:
        """Release a held message that has waited past ``max_hold_s``."""
        if self._held is None:
            return []
        if self._clock() - self._held_at < self.spec.max_hold_s:
            return []
        held, self._held = self._held, None
        METRICS.inc("chaos.injections", action="reorder")
        return [held]

    def flush(self) -> List[object]:
        """Unconditionally release anything held (drain path)."""
        if self._held is None:
            return []
        held, self._held = self._held, None
        return [held]


# ---------------------------------------------------------------------------
# Journal chaos
# ---------------------------------------------------------------------------
def truncate_journal_tail(path: Union[str, Path], *, seed: int = 0) -> int:
    """Tear the final JSONL record of a journal mid-write.

    Cuts a seeded number of bytes (at least one, never the whole line)
    off the file's last non-empty line, simulating a crash on a
    filesystem where the atomic-rename discipline did not hold.  Returns
    the number of bytes removed.  The journal must still *load* after
    this -- skipping exactly the torn record -- which is what the resume
    tests assert.
    """
    path = Path(path)
    data = path.read_bytes().rstrip(b"\n")
    if not data:
        raise ValueError(f"{path} has no records to truncate")
    last_newline = data.rfind(b"\n")
    last_line_len = len(data) - (last_newline + 1)
    if last_line_len < 2:
        raise ValueError(f"{path}: final record too short to tear")
    cut = 1 + derive_key(seed, f"truncate:{path.name}", 32) % (last_line_len - 1)
    path.write_bytes(data[: len(data) - cut])
    METRICS.inc("chaos.injections", action="journal-truncate")
    return cut


__all__ = [
    "KILLED_EXIT_CODE",
    "ChaosDecision",
    "ChaosEngine",
    "ChaosSpec",
    "CompletionGate",
    "WireDecision",
    "planned_faults",
    "planned_wire_faults",
    "truncate_journal_tail",
]
