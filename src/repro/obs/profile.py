"""Opt-in sampling profiler: collapsed stacks per tracer span.

The tracer's spans are the profiler's phases.  A daemon thread samples
the Python stacks of every thread that has a span open every few
milliseconds via ``sys._current_frames()`` and attributes each sample
to the innermost open span of that thread (read from the tracer's
per-thread stacks, :meth:`~repro.obs.tracing.Tracer.active_spans`).
Samples aggregate into collapsed-stack counts -- the ``frame;frame;frame
count`` format flamegraph tooling consumes directly.  So a campaign's
``sim.translate``, ``sim.analyze`` and ``sim.remap`` spans answer
"*where inside them*" without instrumenting a single kernel line.

Opt-in and zero-overhead when off:

* enable with ``REPRO_PROFILE=1`` in the environment (workers inherit
  it like every other telemetry variable) or programmatically via
  :meth:`SamplingProfiler.enable`.  The environment switch also turns
  telemetry on (in memory, unless a telemetry directory is configured
  too), so there are spans to sample;
* while disabled no thread, lock or allocation exists; the spans cost
  what they always cost.

Output: one ``profile-<span>-<pid>.collapsed`` file per sampled span
name per process, written into the telemetry directory by
:func:`repro.obs.runtime.write_telemetry` (and at interpreter exit for
worker processes, which never call ``write_telemetry`` themselves).

The thread-based sampler is deliberate over a ``signal``/``setitimer``
one: signals can only interrupt the main thread, while campaign cells
run on worker threads (heartbeat pumps, net-worker sessions) -- and a
sampler thread works identically on every platform the test suite runs
on.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import runtime
from repro.obs.tracing import Tracer

#: Truthy values enable the profiler for the whole process tree.
PROFILE_ENV = "REPRO_PROFILE"
#: Override the sampling interval, in milliseconds (default 5).
PROFILE_INTERVAL_ENV = "REPRO_PROFILE_INTERVAL_MS"

_TRUTHY = {"1", "true", "yes", "on"}


def _collapse(frame) -> str:
    """A frame chain -> root-first ``module:function;...`` stack line."""
    parts: List[str] = []
    while frame is not None:
        code = frame.f_code
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Collapsed-stack sampling profiler, one profile per span name.

    Args:
        interval_s: Wall-clock spacing between stack samples.  5 ms
            keeps the sampler under ~1% of a busy core while resolving
            spans tens of milliseconds long.
        tracer: Tracer whose open spans name the samples (the
            process-wide one by default).
    """

    def __init__(self, interval_s: float = 0.005, tracer: Tracer = runtime.TRACER) -> None:
        self.interval_s = interval_s
        self.tracer = tracer
        self.enabled = False
        self._lock = threading.Lock()
        #: span name -> Counter[collapsed stack] -> sample count.
        self._samples: Dict[str, Counter] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def enable(self, interval_s: Optional[float] = None) -> None:
        """Start sampling threads with open spans (idempotent)."""
        if interval_s is not None:
            self.interval_s = interval_s
        if self.enabled:
            return
        self.enabled = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def disable(self) -> None:
        """Stop the sampler thread; collected samples are retained."""
        self.enabled = False
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    # -- sampling ------------------------------------------------------
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frames = sys._current_frames()
            collapsed = [
                (span, _collapse(frames[ident]))
                for ident, span in self.tracer.active_spans().items()
                if ident in frames
            ]
            if not collapsed:
                continue
            with self._lock:
                for span, stack in collapsed:
                    self._samples.setdefault(span, Counter())[stack] += 1

    # -- output --------------------------------------------------------
    def samples(self) -> Dict[str, Counter]:
        """A copy of the collected per-span stack counters."""
        with self._lock:
            return {span: Counter(c) for span, c in self._samples.items()}

    def write(self, directory: Union[str, Path]) -> List[Path]:
        """Write one ``profile-<span>-<pid>.collapsed`` file per span name.

        Returns the written paths (empty when nothing was sampled).
        Counts accumulate across calls within one process; rewriting is
        idempotent because files are keyed by span name and pid.
        """
        snapshot = self.samples()
        if not snapshot:
            return []
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        written: List[Path] = []
        for span, counts in sorted(snapshot.items()):
            safe = span.replace("/", "_").replace(" ", "_")
            path = target / f"profile-{safe}-{pid}.collapsed"
            lines = [f"{stack} {count}" for stack, count in sorted(counts.items())]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
        return written


#: Process-wide profiler instance (mirrors the METRICS/TRACER singletons).
PROFILER = SamplingProfiler()


def _write_at_exit() -> None:
    """Worker processes never call ``write_telemetry``; flush here."""
    if not PROFILER.samples():
        return
    directory = runtime.telemetry_dir()
    if directory is not None:
        try:
            PROFILER.write(directory)
        except OSError:
            pass


def _configure_from_env() -> None:
    flag = os.environ.get(PROFILE_ENV, "").strip().lower()
    if flag not in _TRUTHY:
        return
    interval_ms = os.environ.get(PROFILE_INTERVAL_ENV, "").strip()
    try:
        interval_s = float(interval_ms) / 1000.0 if interval_ms else None
    except ValueError:
        interval_s = None
    if not runtime.enabled():
        runtime.configure(enabled=True)  # in memory: spans to sample
    PROFILER.enable(interval_s)
    atexit.register(_write_at_exit)


_configure_from_env()


__all__ = [
    "PROFILE_ENV",
    "PROFILE_INTERVAL_ENV",
    "PROFILER",
    "SamplingProfiler",
]
