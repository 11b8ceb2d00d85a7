"""Campaign telemetry layer: metrics, spans, structured logs, manifests.

Quickstart::

    from repro import obs

    obs.configure(enabled=True, telemetry_dir="runs/today")
    manifest = obs.RunManifest.create("my-campaign", config={"scale": 0.2})

    with obs.TRACER.span("campaign.run"):
        records = campaign.run(workers=4)

    obs.write_telemetry(manifest=manifest)   # manifest.json, metrics.jsonl, ...
    print(obs.summarize_dir(obs.telemetry_dir()))

Everything is disabled by default and costs one boolean check per
instrumented call site; see docs/OBSERVABILITY.md for the metric
catalog, span hierarchy, and artifact formats.

Beyond the post-run artifacts, the layer offers a live plane:
:class:`LiveEndpoint` serves ``/metrics``, ``/healthz`` and ``/status``
over HTTP while a run is in flight; :func:`assemble_traces` /
:func:`render_trace` rebuild the distributed span trees every process
of a run contributed to; and :data:`PROFILER` samples collapsed stacks
per open span when ``REPRO_PROFILE`` is set.
"""

from repro.obs.assemble import (
    SpanNode,
    TraceTree,
    assemble_traces,
    load_span_events,
    render_trace,
    validate_traces,
)
from repro.obs.live import PROMETHEUS_CONTENT_TYPE, LiveEndpoint
from repro.obs.logs import NORMAL, QUIET, VERBOSE, StructuredLogger
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest, git_sha
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MAX_SERIES_PER_METRIC,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    filter_snapshot,
    parse_series_key,
    series_key,
    snapshot_from_jsonl,
    snapshot_to_jsonl,
    snapshot_to_prometheus,
)
from repro.obs.profile import PROFILER, SamplingProfiler
from repro.obs.runtime import (
    LOGS,
    METRICS,
    RUN_ID_ENV,
    TELEMETRY_DIR_ENV,
    TELEMETRY_ENV,
    TRACER,
    apply_config,
    configure,
    enabled,
    export_config,
    get_logger,
    heartbeat,
    reset,
    run_id,
    telemetry_dir,
    write_telemetry,
)
from repro.obs.schema import (
    REQUIRED_CAMPAIGN_METRICS,
    SEMANTIC_PREFIXES,
    validate_manifest,
    validate_snapshot,
    validate_telemetry_dir,
)
from repro.obs.summary import summarize_dir, summarize_snapshot
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "LOGS",
    "LiveEndpoint",
    "MANIFEST_SCHEMA_VERSION",
    "MAX_SERIES_PER_METRIC",
    "METRICS",
    "MetricsRegistry",
    "NORMAL",
    "PROFILER",
    "PROMETHEUS_CONTENT_TYPE",
    "QUIET",
    "REQUIRED_CAMPAIGN_METRICS",
    "RUN_ID_ENV",
    "RunManifest",
    "SEMANTIC_PREFIXES",
    "SamplingProfiler",
    "SpanNode",
    "SpanRecord",
    "StructuredLogger",
    "TELEMETRY_DIR_ENV",
    "TELEMETRY_ENV",
    "TRACER",
    "TraceTree",
    "Tracer",
    "VERBOSE",
    "apply_config",
    "assemble_traces",
    "configure",
    "diff_snapshots",
    "enabled",
    "export_config",
    "filter_snapshot",
    "get_logger",
    "git_sha",
    "heartbeat",
    "load_span_events",
    "parse_series_key",
    "render_trace",
    "reset",
    "run_id",
    "series_key",
    "snapshot_from_jsonl",
    "snapshot_to_jsonl",
    "snapshot_to_prometheus",
    "summarize_dir",
    "summarize_snapshot",
    "telemetry_dir",
    "validate_manifest",
    "validate_snapshot",
    "validate_telemetry_dir",
    "validate_traces",
]
