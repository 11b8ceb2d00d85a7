"""Reassemble distributed trace trees from a telemetry directory.

Every process in a run -- the scheduler and its service workers on
this or other hosts -- appends its finished spans to its own
``events-<run>-<pid>.jsonl`` file, each span stamped with the
``(trace_id, span_id, parent_span_id)`` triple minted by
:mod:`repro.obs.tracing` and propagated through cell assignments.  This
module reads all of those files back and reconstructs the causal trees:

* :func:`assemble_traces` -- every trace in the directory, as
  :class:`TraceTree` objects (roots, orphans, span index);
* :func:`render_trace` -- one tree as indented ASCII, ordered by start
  time (per-process monotonic clocks where siblings share a pid, so an
  NTP step mid-run cannot reorder them; wall clock across processes);
* :func:`validate_traces` -- the CI contract: every non-root span's
  parent exists and every trace has exactly one root.

The ``runner trace`` subcommand is a thin CLI over these.  Spans
emitted by pre-trace-context telemetry (no ``trace_id``) are skipped,
never errors -- old telemetry directories stay readable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union


@dataclass
class SpanNode:
    """One span event, linked into its trace's tree."""

    name: str
    trace_id: str
    span_id: str
    parent_span_id: str
    duration_s: float
    status: str
    ts: float  #: Wall-clock end time of the span.
    ts_mono: float  #: Emitting process's monotonic clock at end time.
    pid: int
    run: str = ""
    path: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def start_ts(self) -> float:
        return self.ts - self.duration_s

    @property
    def start_mono(self) -> float:
        return self.ts_mono - self.duration_s


@dataclass
class TraceTree:
    """All spans of one trace id, linked parent -> children."""

    trace_id: str
    spans: Dict[str, SpanNode]
    roots: List[SpanNode]  #: Spans with no parent id (should be exactly 1).
    orphans: List[SpanNode]  #: Spans whose parent id resolves to no span.

    @property
    def root(self) -> Optional[SpanNode]:
        return self.roots[0] if len(self.roots) == 1 else None

    @property
    def pids(self) -> List[int]:
        return sorted({span.pid for span in self.spans.values()})

    def span_count(self) -> int:
        return len(self.spans)


def load_span_events(directory: Union[str, Path]) -> List[dict]:
    """All span events under a telemetry dir (unparseable lines skipped)."""
    events: List[dict] = []
    for path in sorted(Path(directory).glob("events-*.jsonl")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("type") == "span":
                events.append(event)
    return events


def _node(event: dict) -> SpanNode:
    return SpanNode(
        name=str(event.get("name", "")),
        trace_id=str(event.get("trace_id", "")),
        span_id=str(event.get("span_id", "")),
        parent_span_id=str(event.get("parent_span_id", "")),
        duration_s=float(event.get("duration_s", 0.0)),
        status=str(event.get("status", "")),
        ts=float(event.get("ts", 0.0)),
        ts_mono=float(event.get("ts_mono", 0.0)),
        pid=int(event.get("pid", 0)),
        run=str(event.get("run", "")),
        path=str(event.get("path", "")),
        attrs=event.get("attrs") or {},
    )


def _sort_siblings(siblings: List[SpanNode]) -> None:
    """Order siblings by start time, immune to NTP steps within a pid.

    Siblings all emitted by one process are comparable on that process's
    monotonic clock (``ts_mono``); mixed-process siblings fall back to
    wall clock -- the best available cross-host ordering.
    """
    if len({span.pid for span in siblings}) == 1:
        siblings.sort(key=lambda span: (span.start_mono, span.span_id))
    else:
        siblings.sort(key=lambda span: (span.start_ts, span.pid, span.span_id))


def assemble_traces(
    source: Union[str, Path, Iterable[dict]],
) -> List[TraceTree]:
    """Rebuild every trace tree from a telemetry dir (or span events).

    Duplicate span ids (a re-dispatched cell computed twice, or a
    resent completion) keep the first occurrence; spans without a trace
    id are skipped.  Trees come back ordered by their earliest span.
    """
    if isinstance(source, (str, Path)):
        events = load_span_events(source)
    else:
        events = list(source)
    by_trace: Dict[str, Dict[str, SpanNode]] = {}
    for event in events:
        node = _node(event)
        if not node.trace_id or not node.span_id:
            continue
        by_trace.setdefault(node.trace_id, {}).setdefault(node.span_id, node)
    trees: List[TraceTree] = []
    for trace_id, spans in by_trace.items():
        roots: List[SpanNode] = []
        orphans: List[SpanNode] = []
        for span in spans.values():
            if not span.parent_span_id:
                roots.append(span)
            elif span.parent_span_id in spans:
                spans[span.parent_span_id].children.append(span)
            else:
                orphans.append(span)
        for span in spans.values():
            if span.children:
                _sort_siblings(span.children)
        _sort_siblings(roots)
        _sort_siblings(orphans)
        trees.append(TraceTree(trace_id, spans, roots, orphans))
    trees.sort(
        key=lambda tree: min(
            (span.start_ts for span in tree.spans.values()), default=0.0
        )
    )
    return trees


def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def _fmt_span(span: SpanNode) -> str:
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
    flag = "" if span.status == "ok" else f" !{span.status}"
    return (
        f"{span.name} {_fmt_duration(span.duration_s)}"
        f" pid={span.pid}{flag}" + (f" [{attrs}]" if attrs else "")
    )


def render_trace(tree: TraceTree) -> str:
    """One trace tree as indented ASCII (box-drawing connectors)."""
    lines = [
        f"trace {tree.trace_id}: {tree.span_count()} spans across"
        f" {len(tree.pids)} processes"
    ]

    def walk(span: SpanNode, prefix: str, last: bool) -> None:
        connector = "`-- " if last else "|-- "
        lines.append(prefix + connector + _fmt_span(span))
        child_prefix = prefix + ("    " if last else "|   ")
        for index, child in enumerate(span.children):
            walk(child, child_prefix, index == len(span.children) - 1)

    for index, root in enumerate(tree.roots):
        walk(root, "", index == len(tree.roots) - 1)
    for orphan in tree.orphans:
        lines.append(
            f"?-- ORPHAN (parent {orphan.parent_span_id} missing): "
            + _fmt_span(orphan)
        )
    return "\n".join(lines)


def validate_traces(source: Union[str, Path, Iterable[dict]]) -> List[str]:
    """Trace-tree completeness errors for a telemetry dir.

    The contract CI asserts: every non-root span's parent span exists in
    the same trace, and every trace has exactly one root.  Empty when
    the directory carries no trace-context spans at all (pre-context
    telemetry is not an error).
    """
    errors: List[str] = []
    for tree in assemble_traces(source):
        if len(tree.roots) != 1:
            names = ", ".join(sorted(r.name for r in tree.roots)) or "none"
            errors.append(
                f"trace {tree.trace_id} has {len(tree.roots)} roots"
                f" ({names}); expected exactly one"
            )
        for orphan in tree.orphans:
            errors.append(
                f"trace {tree.trace_id}: span '{orphan.name}'"
                f" ({orphan.span_id}, pid {orphan.pid}) references missing"
                f" parent {orphan.parent_span_id}"
            )
    return errors


__all__ = [
    "SpanNode",
    "TraceTree",
    "assemble_traces",
    "load_span_events",
    "render_trace",
    "validate_traces",
]
