"""Turn a benchmark report into the named metrics and human-readable lines.

``end_to_end`` reads the untraced phase; ``per_layer`` reads the traced
run's spans.  On the simulation grids, per-layer seconds and counts are
per grid pass (every pass does identical work); on the service grid they
are totals over the traced session.  A layer a workload never calls
reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import grids
import spans as spanlib

END_TO_END_UNITS = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "cells_per_s": "cells/s",
    "submission_p50_s": "s",
    "submission_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "workloads.spec_trace_s": "s",
    "workloads.trace_io_s": "s",
    "mapping.translate_ns_per_line.coffeelake": "ns/line",
    "mapping.translate_ns_per_line.skylake": "ns/line",
    "mapping.translate_ns_per_line.mop": "ns/line",
    "mapping.decode_ns_per_line.rubix-s": "ns/line",
    "crypto.encrypt_ns_per_line": "ns/line",
    "core.rubix_s.translate_ns_per_line.gs1": "ns/line",
    "core.rubix_s.translate_ns_per_line.gs2": "ns/line",
    "core.rubix_s.translate_ns_per_line.gs4": "ns/line",
    "core.rubix_d.translate_ns_per_line": "ns/line",
    "core.rubix_d.build_s": "s",
    "core.rubix_d.record_activations_s": "s",
    "core.remap_engine.remap_steps_s": "s",
    "core.rubix_d.swaps": "count",
    "dram.fast_model.analyze_ns_per_line": "ns/line",
    "dram.fast_model.chunk_feed_ns_per_line": "ns/line",
    "dram.fast_model.chunk_result_s": "s",
    "dram.fast_model.activations": "count",
    "perf.simulator.window_self_s": "s",
    "perf.simulator.run_self_s": "s",
    "perf.core_model.mitigation_load_s": "s",
    "perf.core_model.mitigation_load_calls": "count",
    "parallel.cache.hits": "count",
    "parallel.cache.misses": "count",
    "parallel.cache.hit_ratio": "ratio",
    "parallel.cache.disk_entries": "count",
    "service.submit_s": "s",
    "service.submissions": "count",
    "resilience.journal.append_s": "s",
    "resilience.journal.appends": "count",
    "service.worker_cell_s": "s",
    "service.worker_busy_ratio": "ratio",
    "service.redispatches": "count",
    "service.worker_restarts": "count",
    "tracing.overhead_ratio": "ratio",
    "bench.unclaimed_s": "s",
}


def _quantiles(values):
    """(median, p90) of a sample."""
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def _emit(values: dict, units: dict) -> tuple:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    lines = [f"{name}: {values[name]:.6g} {units[name]}" for name in units]
    return metrics, lines


# ---------------------------------------------------------------------------
def end_to_end(workload: str, report: dict) -> tuple:
    values = {"setup_s": report["setup_s"], "peak_rss_mb": report["peak_rss_mb"]}
    if workload == "service-grid":
        session = report["phases"]["untraced"]
        latencies = session["latencies"]
        values["cells_per_s"] = session["correct"] / session["wall"]
        values["lines_per_s"] = session["lines"] / session["wall"]
        note = (
            f"samples: {len(latencies)} submissions from {session['clients']}"
            f" closed-loop clients in {session['wall']:.2f} s"
        )
    else:
        passes = report["phases"]["untraced"]
        latencies = [t for p in passes for t in p["latencies"]]
        values["cells_per_s"] = statistics.median(p["correct"] / p["wall"] for p in passes)
        values["lines_per_s"] = statistics.median(p["lines"] / p["wall"] for p in passes)
        note = (
            f"samples: {len(passes)} passes, {len(latencies)} Simulator.run calls"
            " (a submission is one call); lines/s per pass: "
            + " ".join(f"{p['lines'] / p['wall']:.4g}" for p in passes)
        )
    values["submission_p50_s"], values["submission_p90_s"] = _quantiles(latencies)
    metrics, lines = _emit(values, END_TO_END_UNITS)
    return metrics, lines + [note]


# ---------------------------------------------------------------------------
class _Sums:
    """Span summary lookups: sums over (layer, op, kind-predicate)."""

    def __init__(self, summary: dict):
        self.summary = summary

    def get(self, layer, op, field, kind=lambda kind: True) -> float:
        return sum(
            row[field]
            for (row_layer, row_op, row_kind), row in self.summary.items()
            if row_layer == layer and row_op == op and kind(row_kind)
        )

    def ns_per_line(self, layer, op, kind=lambda kind: True) -> float:
        lines = self.get(layer, op, "lines", kind)
        return 1e9 * self.get(layer, op, "self_s", kind) / lines if lines else 0.0


def _merge(*summaries) -> dict:
    merged = defaultdict(lambda: defaultdict(float))
    for summary in summaries:
        for key, row in summary.items():
            for field, value in row.items():
                merged[key][field] += value
    return merged


def per_layer(workload: str, report: dict, recorder) -> tuple:
    setup = spanlib.summarize(report["setup_spans"])
    traced = recorder.spans
    lines = []
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if workload == "service-grid":
        session = report["phases"]["traced"]
        untraced = report["phases"]["untraced"]
        worker_spans, cache = session["worker_spans"], session["worker_cache"]
        sums = _Sums(_merge(setup, spanlib.summarize(traced), spanlib.summarize(worker_spans)))
        per = 1.0
        stats = session["stats"]
        values.update({
            "parallel.cache.hits": cache.get("hits", 0),
            "parallel.cache.misses": cache.get("misses", 0),
            "parallel.cache.disk_entries": session["disk_entries"],
            "service.submit_s": sums.get("service", "submit", "total_s"),
            "service.submissions": sums.get("service", "submit", "calls"),
            "resilience.journal.append_s": sums.get("resilience.journal", "append", "total_s"),
            "resilience.journal.appends": sums.get("resilience.journal", "append", "calls"),
            "service.worker_cell_s": session["busy_s"],
            "service.worker_busy_ratio": session["busy_s"]
            / (grids.SERVICE_WORKERS * session["wall"]),
            "service.redispatches": max(0, stats["lease_history"] - stats["committed"]),
            "service.worker_restarts": stats["worker_restarts"],
            # Host time per committed cell, traced over untraced.
            "tracing.overhead_ratio": (session["wall"] / max(1, session["correct"]))
            / (untraced["wall"] / max(1, untraced["correct"])),
            "bench.unclaimed_s": session["wall"] - spanlib.root_seconds(traced),
        })
        wall = session["wall"]
        table = spanlib.layer_table(worker_spans)
    else:
        passes = report["phases"]["traced"]
        untraced = report["phases"]["untraced"]
        sums = _Sums(_merge(setup, spanlib.summarize(traced)))
        per = float(len(passes))
        wall = sum(p["wall"] for p in passes)
        hits = sum(p["hits"] for p in passes) / per
        misses = sum(p["misses"] for p in passes) / per
        values.update({
            "parallel.cache.hits": hits,
            "parallel.cache.misses": misses,
            "tracing.overhead_ratio": statistics.median(p["wall"] for p in passes)
            / statistics.median(p["wall"] for p in untraced),
            "bench.unclaimed_s": (wall - spanlib.root_seconds(traced)) / per,
        })
        table = spanlib.layer_table(traced)

    def per_unit(value):
        return value / per

    for kind in ("coffeelake", "skylake", "mop"):
        values[f"mapping.translate_ns_per_line.{kind}"] = sums.ns_per_line(
            "mapping", "translate", lambda k, kind=kind: k == kind
        )
    values["mapping.decode_ns_per_line.rubix-s"] = sums.ns_per_line(
        "mapping", "translate", lambda k: k.startswith("rubix-s")
    )
    values["crypto.encrypt_ns_per_line"] = sums.ns_per_line("crypto", "encrypt")
    for gang in (1, 2, 4):
        values[f"core.rubix_s.translate_ns_per_line.gs{gang}"] = sums.ns_per_line(
            "core.rubix_s", "translate", lambda k, gang=gang: k == f"rubix-s-gs{gang}"
        )
    values["core.rubix_d.translate_ns_per_line"] = sums.ns_per_line("core.rubix_d", "translate")
    values.update({
        "workloads.spec_trace_s": sums.get("workloads", "spec_trace", "total_s"),
        "workloads.trace_io_s": sums.get("workloads", "trace_io", "total_s"),
        "core.rubix_d.build_s": per_unit(sums.get("core.rubix_d", "build", "total_s")),
        "core.rubix_d.record_activations_s": per_unit(
            sums.get("core.rubix_d", "record_activations", "total_s")
        ),
        "core.remap_engine.remap_steps_s": per_unit(
            sums.get("core.remap_engine", "remap_steps", "total_s")
        ),
        "core.rubix_d.swaps": per_unit(sums.get("core.rubix_d", "record_activations", "count")),
        "dram.fast_model.analyze_ns_per_line": sums.ns_per_line("dram.fast_model", "analyze"),
        "dram.fast_model.chunk_feed_ns_per_line": sums.ns_per_line(
            "dram.fast_model", "chunk_feed"
        ),
        "dram.fast_model.chunk_result_s": per_unit(
            sums.get("dram.fast_model", "chunk_result", "total_s")
        ),
        "dram.fast_model.activations": per_unit(
            sums.get("dram.fast_model", "analyze", "count")
            + sums.get("dram.fast_model", "chunk_result", "count")
        ),
        "perf.simulator.window_self_s": per_unit(sums.get("perf.simulator", "window", "self_s")),
        "perf.simulator.run_self_s": per_unit(sums.get("perf.simulator", "run", "self_s")),
        "perf.core_model.mitigation_load_s": per_unit(
            sums.get("perf.core_model", "mitigation_load", "total_s")
        ),
        "perf.core_model.mitigation_load_calls": per_unit(
            sums.get("perf.core_model", "mitigation_load", "calls")
        ),
    })
    lookups = values["parallel.cache.hits"] + values["parallel.cache.misses"]
    values["parallel.cache.hit_ratio"] = values["parallel.cache.hits"] / lookups if lookups else 0.0

    metrics, metric_lines = _emit(values, PER_LAYER_UNITS)
    if table:
        lines.append(table)
    if workload == "service-grid":
        lines.append(_shares(spanlib.summarize(traced), wall, "benchmark-process wall"))
        lines.append(_shares(
            spanlib.summarize(worker_spans), grids.SERVICE_WORKERS * wall, "worker time"
        ))
    else:
        lines.append(_shares(spanlib.summarize(traced), wall, "traced wall"))
    return metrics, metric_lines + lines


def _shares(summary: dict, denominator: float, of: str) -> str:
    """Each layer's self time, and the unclaimed rest, as shares of ``denominator``."""
    by_layer = defaultdict(float)
    for (layer, _op, _kind), row in summary.items():
        by_layer[layer] += row["self_s"]
    parts = [f"{layer} {100 * s / denominator:.1f}%" for layer, s in sorted(by_layer.items())]
    unclaimed = denominator - sum(by_layer.values())
    parts.append(f"unclaimed {100 * unclaimed / denominator:.1f}%")
    return f"self time as a share of {of}: " + ", ".join(parts)
