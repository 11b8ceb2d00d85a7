"""Near-zero-overhead metrics registry: counters, gauges, histograms.

Design constraints, in priority order:

1. **Disabled means free.**  Every mutation checks one boolean before
   doing anything; with telemetry off, an instrumented hot path pays a
   method call and an attribute load, nothing else.  The fast-tier
   kernels are instrumented at window/chunk granularity, so even that
   cost is amortized over millions of trace lines.
2. **Mergeable.**  A parallel campaign accumulates metrics in worker
   processes; each completion ships a *delta snapshot* back and the
   parent folds it in with :meth:`MetricsRegistry.merge`.  Counter and
   histogram totals therefore come out identical between a serial run
   and a ``workers=N`` run of the same cells (gauges are last-write-wins
   by nature).
3. **Bounded.**  Labelled series are capped per metric name
   (:data:`MAX_SERIES_PER_METRIC`); overflow folds into a single
   ``overflow="true"`` series instead of growing without limit, so a
   bug that labels a metric with, say, raw addresses cannot exhaust
   memory.

Snapshots are plain JSON-safe dicts, exported either as JSONL (one
metric series per line, the format ``scripts/validate_telemetry.py``
checks) or as a Prometheus text snapshot.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Hard cap on distinct label combinations per metric name.
MAX_SERIES_PER_METRIC = 512

#: Default histogram buckets, tuned for span/window durations (seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_LABEL_SEP = "|"
_LABEL_SPLIT = re.compile(r",(?=[A-Za-z_][A-Za-z0-9_]*=)")


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical flat key for one labelled series (stable ordering)."""
    if not labels:
        return name
    parts = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{_LABEL_SEP}{parts}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (label values come back as strings)."""
    if _LABEL_SEP not in key:
        return key, {}
    name, _, packed = key.partition(_LABEL_SEP)
    labels: Dict[str, str] = {}
    # Split only at a comma that starts the next ``key=``: label values
    # such as the mapping name "Rubix-D (GS4, static)" contain commas.
    for part in _LABEL_SPLIT.split(packed):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


@dataclass
class Histogram:
    """Fixed-bucket histogram (cumulative export, Prometheus-style).

    ``counts`` has ``len(buckets) + 1`` slots; the last one is the
    overflow (``+Inf``) bucket.  Only bucket counts, the value sum, and
    the observation count are kept -- exactly the parts that merge and
    diff cleanly across processes.
    """

    buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        if len(self.counts) != len(self.buckets) + 1:
            raise ValueError("histogram counts must have len(buckets) + 1 slots")

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        return cls(
            buckets=tuple(data["buckets"]),
            counts=list(data["counts"]),
            sum=float(data["sum"]),
            count=int(data["count"]),
        )


class MetricsRegistry:
    """Process-local registry of counters, gauges, and histograms.

    Args:
        enabled: Initial state; the runtime singleton starts disabled
            and is flipped by :func:`repro.obs.configure`.

    All mutating calls are no-ops while :attr:`enabled` is False -- that
    single boolean is the telemetry layer's entire disabled-mode cost.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series_per_name: Dict[str, int] = {}
        self._hist_buckets: Dict[str, Tuple[float, ...]] = {}
        self.series_dropped = 0

    # -- mutation ------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to a counter series (created at 0 on first use)."""
        if not self.enabled:
            return
        key = self._admit(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value`` (last write wins)."""
        if not self.enabled:
            return
        key = self._admit(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into a histogram series."""
        if not self.enabled:
            return
        key = self._admit(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                buckets = self._hist_buckets.get(name, DEFAULT_TIME_BUCKETS)
                hist = self._histograms[key] = Histogram(buckets=buckets)
            hist.observe(value)

    def declare_histogram(self, name: str, buckets: Sequence[float]) -> None:
        """Pick non-default buckets for a histogram name (before first use)."""
        self._hist_buckets[name] = tuple(sorted(buckets))

    def _admit(self, name: str, labels: Dict[str, object]) -> str:
        """Series key for (name, labels), enforcing the cardinality cap."""
        if not labels:
            return name
        key = series_key(name, labels)
        with self._lock:
            seen = self._series_per_name.setdefault(name, 0)
            if (
                key not in self._counters
                and key not in self._gauges
                and key not in self._histograms
            ):
                if seen >= MAX_SERIES_PER_METRIC:
                    self.series_dropped += 1
                    return series_key(name, {"overflow": "true"})
                self._series_per_name[name] = seen + 1
        return key

    # -- introspection -------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0 when absent)."""
        return self._counters.get(series_key(name, labels), 0)

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        """Current value of one gauge series (None when absent)."""
        return self._gauges.get(series_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        """One histogram series (None when absent)."""
        return self._histograms.get(series_key(name, labels))

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label series."""
        return sum(
            v for k, v in self._counters.items() if parse_series_key(k)[0] == name
        )

    # -- snapshot / merge / diff ---------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe copy of the full registry state."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.to_dict() for k, h in self._histograms.items()},
            }

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold another process's snapshot (or delta) into this registry.

        Counters and histogram bucket counts add; gauges overwrite.
        Ignores the :attr:`enabled` flag -- merging completions into a
        just-disabled parent must not silently drop them.
        """
        if not snapshot:
            return
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in snapshot.get("gauges", {}).items():
                self._gauges[key] = value
            for key, data in snapshot.get("histograms", {}).items():
                incoming = Histogram.from_dict(data)
                current = self._histograms.get(key)
                if current is None:
                    self._histograms[key] = incoming
                    continue
                if current.buckets != incoming.buckets:
                    raise ValueError(
                        f"histogram bucket mismatch while merging '{key}'"
                    )
                for i, c in enumerate(incoming.counts):
                    current.counts[i] += c
                current.sum += incoming.sum
                current.count += incoming.count

    def clear(self) -> None:
        """Drop all series (the enabled flag is left untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._series_per_name.clear()
            self.series_dropped = 0


def diff_snapshots(after: dict, before: dict) -> dict:
    """The delta snapshot ``after - before`` (what one cell contributed).

    Counters and histogram counts subtract (series absent from
    ``before`` pass through); gauges take their ``after`` values.  Used
    by campaign workers to ship per-cell metric contributions to the parent
    without double-counting state inherited across ``fork``.
    """
    counters = {}
    for key, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(key, 0)
        if delta:
            counters[key] = delta
    histograms = {}
    for key, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key)
        if prior is None:
            histograms[key] = data
            continue
        counts = [a - b for a, b in zip(data["counts"], prior["counts"])]
        if any(counts):
            histograms[key] = {
                "buckets": list(data["buckets"]),
                "counts": counts,
                "sum": data["sum"] - prior["sum"],
                "count": data["count"] - prior["count"],
            }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def snapshot_to_jsonl(snapshot: dict) -> List[str]:
    """One JSON line per metric series, sorted for stable output."""
    lines: List[str] = []
    for key in sorted(snapshot.get("counters", {})):
        name, labels = parse_series_key(key)
        lines.append(
            json.dumps(
                {
                    "kind": "counter",
                    "name": name,
                    "labels": labels,
                    "value": snapshot["counters"][key],
                },
                sort_keys=True,
            )
        )
    for key in sorted(snapshot.get("gauges", {})):
        name, labels = parse_series_key(key)
        lines.append(
            json.dumps(
                {
                    "kind": "gauge",
                    "name": name,
                    "labels": labels,
                    "value": snapshot["gauges"][key],
                },
                sort_keys=True,
            )
        )
    for key in sorted(snapshot.get("histograms", {})):
        name, labels = parse_series_key(key)
        entry = {"kind": "histogram", "name": name, "labels": labels}
        entry.update(snapshot["histograms"][key])
        lines.append(json.dumps(entry, sort_keys=True))
    return lines


def snapshot_from_jsonl(path: Union[str, Path]) -> dict:
    """Rebuild a snapshot dict from a ``metrics.jsonl`` file."""
    snapshot: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        key = series_key(entry["name"], entry.get("labels", {}))
        kind = entry.get("kind")
        if kind == "counter":
            snapshot["counters"][key] = entry["value"]
        elif kind == "gauge":
            snapshot["gauges"][key] = entry["value"]
        elif kind == "histogram":
            snapshot["histograms"][key] = {
                "buckets": entry["buckets"],
                "counts": entry["counts"],
                "sum": entry["sum"],
                "count": entry["count"],
            }
        else:
            raise ValueError(f"unknown metric kind {kind!r} in {path}")
    return snapshot


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text-exposition format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping -- an unescaped one silently truncates or
    corrupts the series on the scraper side.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_prom_escape(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Prometheus text-exposition rendering of a snapshot."""
    out: List[str] = []
    seen_types: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            out.append(f"# TYPE {name} {kind}")
            seen_types.add(name)

    for key in sorted(snapshot.get("counters", {})):
        name, labels = parse_series_key(key)
        prom = _prom_name(name) + "_total"
        type_line(prom, "counter")
        out.append(f"{prom}{_prom_labels(labels)} {snapshot['counters'][key]}")
    for key in sorted(snapshot.get("gauges", {})):
        name, labels = parse_series_key(key)
        prom = _prom_name(name)
        type_line(prom, "gauge")
        out.append(f"{prom}{_prom_labels(labels)} {snapshot['gauges'][key]}")
    for key in sorted(snapshot.get("histograms", {})):
        name, labels = parse_series_key(key)
        prom = _prom_name(name)
        type_line(prom, "histogram")
        data = snapshot["histograms"][key]
        cumulative = 0
        for upper, count in zip(data["buckets"], data["counts"]):
            cumulative += count
            out.append(
                f"{prom}_bucket{_prom_labels(labels, {'le': repr(float(upper))})}"
                f" {cumulative}"
            )
        out.append(
            f"{prom}_bucket{_prom_labels(labels, {'le': '+Inf'})} {data['count']}"
        )
        out.append(f"{prom}_sum{_prom_labels(labels)} {data['sum']}")
        out.append(f"{prom}_count{_prom_labels(labels)} {data['count']}")
    return "\n".join(out) + "\n"


def filter_snapshot(snapshot: dict, prefixes: Iterable[str]) -> dict:
    """Subset of a snapshot whose metric names start with any prefix.

    The serial-vs-parallel equality contract holds for *semantic*
    counter families (``campaign.*``, ``mitigation.*``, ...); this is
    the helper tests use to compare exactly those.
    """
    prefixes = tuple(prefixes)

    def keep(section: Dict[str, object]) -> dict:
        return {
            k: v
            for k, v in section.items()
            if parse_series_key(k)[0].startswith(prefixes)
        }

    return {
        "counters": keep(snapshot.get("counters", {})),
        "gauges": keep(snapshot.get("gauges", {})),
        "histograms": keep(snapshot.get("histograms", {})),
    }


__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "MAX_SERIES_PER_METRIC",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "filter_snapshot",
    "parse_series_key",
    "series_key",
    "snapshot_from_jsonl",
    "snapshot_to_jsonl",
    "snapshot_to_prometheus",
]
