"""In-memory spans around the public functions of each layer.

The traced run installs a wrapper on each layer's public entry points
(named by module: ``workloads``, ``mapping``, ``crypto``, ``core.*``,
``dram.fast_model``, ``perf.*``, ``service``, ``resilience.journal``).
Every call becomes a span with its parent, start, end, the mapping kind
it serves and the trace lines it handles.  Spans stay in memory; the
benchmark reads them when the run ends.  A layer's self time is its
span minus the spans of its children.

Service workers are forked from the benchmark process, so they inherit
the wrappers; each worker writes its spans and stats-cache counters to
``<dump_dir>/worker-<pid>.json`` when it exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    layer: str
    op: str
    kind: str
    lines: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    count: int = 0  #: Layer-specific count (swaps, activations).


def mapping_kind(mapping) -> str:
    """Bounded label of a mapping instance: kind plus gang size/segments."""
    name = type(mapping).__name__
    if name == "RubixSMapping":
        return f"rubix-s-gs{mapping.gang_size}"
    if name == "RubixDMapping":
        seg = f"-seg{mapping.segments}" if mapping.segments > 1 else ""
        return f"rubix-d-gs{mapping.gang_size}{seg}"
    return name.replace("Mapping", "").lower()


def _no_kind(*args, **kwargs) -> str:
    return "-"


def _size(value) -> int:
    return int(getattr(value, "size", 1))


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: Entry points that no longer exist, so their layer reads 0.
        self.missing = set()
        self.dump_dir: Optional[Path] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, op: str, kind: Optional[str], lines: int) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if kind is None:
            kind = self.spans[parent].kind if parent is not None else "-"
        span = Span(layer, op, kind, lines, parent, time.perf_counter())
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        fn: Callable,
        layer: str,
        op: str,
        *,
        kind: Optional[Callable] = None,
        lines: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``kind``/``lines`` map the call's arguments to the mapping kind
        (inherited from the parent span when absent) and the number of
        trace lines handled; ``count`` maps its return value to a count.
        """
        recorder = self

        def describe(args, kwargs):
            return (
                kind(*args, **kwargs) if kind else None,
                lines(*args, **kwargs) if lines else 0,
            )

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span = recorder._open(layer, op, *describe(args, kwargs))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._close(span)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(layer, op, *describe(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = int(count(result))
                return result
            finally:
                recorder._close(span)

        return wrapper

    def patch(self, owner, attribute: str, layer: str, op: str, **describe) -> None:
        """Wrap ``owner.attribute``; a missing one is noted, not fatal."""
        original = owner.__dict__.get(attribute)
        if original is None:
            self.missing.add(f"{owner.__name__}.{attribute}")
            return
        setattr(owner, attribute, self.wrap(original, layer, op, **describe))
        self._patches.append((owner, attribute, original))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced layer entry point; ``uninstall`` restores them."""
        from repro.core import rubix_d, rubix_s
        from repro.core.remap_engine import XorRemapEngine
        from repro.crypto.kcipher import KCipher
        from repro.dram import fast_model
        from repro.mapping.base import FieldDecodeMapping
        from repro.perf import core_model, simulator
        from repro.resilience.journal import CheckpointJournal
        from repro.service import scheduler
        from repro.workloads import spec, trace_io

        def first_lines(*args, **kwargs):
            return _size(args[0])

        def method_lines(_self, lines, *args, **kwargs):
            return _size(lines)

        def trace_lines(_self, trace, *args, **kwargs):
            return _size(trace.lines)

        def of_mapping(_self, trace, mapping, *args, **kwargs):
            return mapping_kind(mapping)

        def own_kind(_self, *args, **kwargs):
            return mapping_kind(_self)

        def activations(stats):
            return stats.n_activations

        self.patch(spec, "spec_trace", "workloads", "spec_trace", kind=_no_kind)
        for name in ("save_trace_raw", "load_trace"):
            self.patch(trace_io, name, "workloads", "trace_io", kind=_no_kind)
        # FieldDecodeMapping.translate_trace is the Intel/MOP translation
        # and, under a Rubix-S span, the decode stage of the cipher output.
        self.patch(
            FieldDecodeMapping,
            "translate_trace",
            "mapping",
            "translate",
            kind=self._decode_kind,
            lines=method_lines,
        )
        self.patch(KCipher, "encrypt", "crypto", "encrypt", lines=method_lines)
        self.patch(
            rubix_s.RubixSMapping, "translate_trace", "core.rubix_s", "translate",
            kind=own_kind, lines=method_lines,
        )
        self.patch(
            rubix_d.RubixDMapping, "translate_trace", "core.rubix_d", "translate",
            kind=own_kind, lines=method_lines,
        )
        self.patch(
            rubix_d.RubixDMapping, "record_activations", "core.rubix_d",
            "record_activations", kind=own_kind, count=int,
        )
        self.patch(rubix_d.RubixDMapping, "__init__", "core.rubix_d", "build")
        self.patch(XorRemapEngine, "remap_steps", "core.remap_engine", "remap_steps")
        # The simulator imported analyze_trace by name; patch both bindings.
        for module in (fast_model, simulator):
            self.patch(module, "analyze_trace", "dram.fast_model", "analyze",
                       lines=first_lines, count=activations)
        self.patch(
            fast_model.ChunkedAnalyzer, "feed", "dram.fast_model", "chunk_feed",
            lines=method_lines,
        )
        self.patch(
            fast_model.ChunkedAnalyzer, "result", "dram.fast_model", "chunk_result",
            count=activations,
        )
        self.patch(
            simulator.Simulator, "window_stats", "perf.simulator", "window",
            kind=of_mapping, lines=trace_lines,
        )
        self.patch(
            simulator.Simulator, "run", "perf.simulator", "run",
            kind=of_mapping, lines=trace_lines,
        )
        self.patch(
            core_model.PerformanceModel, "mitigation_load", "perf.core_model",
            "mitigation_load",
        )
        self.patch(scheduler.CampaignService, "submit", "service", "submit",
                   kind=_no_kind)
        self.patch(CheckpointJournal, "append", "resilience.journal", "append",
                   kind=_no_kind)
        original_worker = scheduler.service_worker_main
        scheduler.service_worker_main = functools.partial(self._worker_main, original_worker)
        self._patches.append((scheduler, "service_worker_main", original_worker))
        if self.missing:
            print("untraced, no longer present: " + ", ".join(sorted(self.missing)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _decode_kind(self, _self, *args, **kwargs) -> str:
        stack = self._stack()
        if stack and self.spans[stack[-1]].layer == "core.rubix_s":
            return self.spans[stack[-1]].kind
        return mapping_kind(_self)

    def _worker_main(self, original, *args, **kwargs):
        """Service worker entry point: run it, then dump spans and counters."""
        self.spans = []
        try:
            return original(*args, **kwargs)
        finally:
            from repro.experiments.common import get_simulator

            cache = get_simulator().stats_cache
            dump = {
                "spans": [span.__dict__ for span in self.spans],
                "cache": {
                    "hits": cache.hits + cache.disk_hits,
                    "misses": cache.misses,
                },
            }
            path = self.dump_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(dump))


def load_worker_dumps(directory: Path) -> tuple:
    """(spans, cache counters) summed over every worker dump in a directory."""
    spans: List[Span] = []
    cache: Dict[str, int] = defaultdict(int)
    for path in sorted(directory.glob("worker-*.json")):
        dump = json.loads(path.read_text())
        offset = len(spans)
        for fields in dump["spans"]:
            span = Span(**fields)
            if span.parent is not None:
                span.parent += offset
            spans.append(span)
        for key, value in dump["cache"].items():
            cache[key] += value
    return spans, dict(cache)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def summarize(spans: List[Span]) -> Dict[tuple, dict]:
    """``{(layer, op, kind): {self_s, total_s, lines, calls, count}}``."""
    own = self_times(spans)
    table: Dict[tuple, dict] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "lines": 0, "calls": 0, "count": 0}
    )
    for span, self_s in zip(spans, own):
        row = table[(span.layer, span.op, span.kind)]
        row["self_s"] += self_s
        row["total_s"] += span.end - span.start
        row["lines"] += span.lines
        row["calls"] += 1
        row["count"] += span.count
    return dict(table)


def root_seconds(spans: List[Span]) -> float:
    """Wall time claimed by some layer: the sum of root-span durations."""
    return sum(span.end - span.start for span in spans if span.parent is None)


def layer_table(spans: List[Span]) -> str:
    """Layer x mapping-kind self time in ns per window line.

    A column's denominator is the lines of that kind's windows, so each
    column sums to the kind's whole window cost.
    """
    own = self_times(spans)
    parents = {span.parent for span in spans}
    window_lines: Dict[str, int] = defaultdict(int)
    cost: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (span, self_s) in enumerate(zip(spans, own)):
        # A window span with children analysed its window; one without
        # was a stats-cache hit and adds no lines.
        if span.layer == "perf.simulator" and span.op == "window" and index in parents:
            window_lines[span.kind] += span.lines
        cost[span.layer][span.kind] += self_s
    kinds = [kind for kind in window_lines if window_lines[kind]]
    if not kinds:
        return ""
    width = max(len(layer) for layer in cost) + 2
    lines = ["layer x mapping kind, self time in ns/line of the kind's windows:"]
    lines.append("".ljust(width) + "".join(kind.rjust(18) for kind in kinds))
    for layer in sorted(cost):
        if any(cost[layer].get(kind) for kind in kinds):
            cells = [
                f"{1e9 * cost[layer].get(kind, 0.0) / window_lines[kind]:18.1f}" for kind in kinds
            ]
            lines.append(layer.ljust(width) + "".join(cells))
    return "\n".join(lines)
