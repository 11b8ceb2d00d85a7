"""The simulator's window phases as nested tracer spans.

A cache-miss window is one ``sim.window`` span whose children are the
translation, analysis and (Rubix-D only) remap-advance phases; each
carries the trace lines it handled and the mapping it served, so the
report can print ns/line per (span, mapping).
"""

import pytest

from repro import obs
from repro.core.rubix_d import RubixDMapping
from repro.dram.config import baseline_config
from repro.mapping.intel import CoffeeLakeMapping
from repro.obs.summary import summarize_snapshot
from repro.perf.hotpath_bench import synth_lines
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace

LINES = 40_000
CHUNK_LINES = 1 << 14


@pytest.fixture(autouse=True)
def telemetry_on():
    obs.reset()
    obs.configure(enabled=True)  # in memory
    yield
    obs.reset()


@pytest.fixture
def trace():
    config = baseline_config()
    return Trace("synth", synth_lines(LINES, config, seed=7), instructions=LINES, seed=7)


def window_children(trace, mapping):
    """(window record, child records) of one uncached window."""
    Simulator(chunk_lines=CHUNK_LINES).window_stats(trace, mapping, use_cache=False)
    records = list(obs.TRACER.finished)
    (window,) = [r for r in records if r.name == "sim.window"]
    children = [r for r in records if r.parent_span_id == window.span_id]
    return window, children


def test_static_window_nests_translate_and_analyze(trace):
    mapping = CoffeeLakeMapping(baseline_config())
    window, children = window_children(trace, mapping)
    assert window.attrs["mode"] == "static"
    assert [c.name for c in children] == ["sim.translate", "sim.analyze"]
    assert all(c.path == f"sim.window/{c.name}" for c in children)
    assert all(c.attrs["mapping"] == mapping.name for c in children)
    assert sum(c.duration_s for c in children) <= window.duration_s


def test_dynamic_window_nests_per_chunk_phases_and_remap(trace):
    mapping = RubixDMapping(baseline_config(), gang_size=4, seed=3)
    window, children = window_children(trace, mapping)
    assert window.attrs["mode"] == "dynamic"
    chunks = -(-LINES // CHUNK_LINES)
    names = [c.name for c in children]
    assert names == ["sim.translate", "sim.analyze", "sim.remap"] * chunks + ["sim.analyze"]
    snap = obs.METRICS.snapshot()["counters"]
    for span in ("sim.translate", "sim.analyze", "sim.remap"):
        assert snap[f"span.lines|mapping={mapping.name},span={span}"] == LINES


@pytest.mark.parametrize("dynamic", [False, True])
def test_window_lines_counted_per_mapping(trace, dynamic):
    config = baseline_config()
    mapping = RubixDMapping(config, seed=3) if dynamic else CoffeeLakeMapping(config)
    Simulator(chunk_lines=CHUNK_LINES).window_stats(trace, mapping, use_cache=False)
    assert (
        obs.METRICS.counter_value("span.lines", span="sim.window", mapping=mapping.name)
        == len(trace)
    )
    assert obs.METRICS.histogram("span.seconds", span="sim.window", mapping=mapping.name)
    assert obs.validate_snapshot(obs.METRICS.snapshot()) == []


def test_fingerprint_pass_is_a_span(trace):
    trace.fingerprint
    (record,) = obs.TRACER.finished
    assert record.name == "trace.fingerprint"
    assert record.attrs["lines"] == LINES
    trace.fingerprint  # memoized: no second pass, no second span
    assert len(obs.TRACER.finished) == 1


def test_report_prints_ns_per_line_per_mapping(trace):
    config = baseline_config()
    mappings = [CoffeeLakeMapping(config), RubixDMapping(config, seed=3)]
    sim = Simulator(chunk_lines=CHUNK_LINES)
    for mapping in mappings:
        sim.window_stats(trace, mapping, use_cache=False)
    report = summarize_snapshot(obs.METRICS.snapshot())
    for mapping in mappings:
        (row,) = [
            line.split()
            for line in report.splitlines()
            if line.split()[:1] == ["sim.translate"] and f" {mapping.name} " in line
        ]
        seconds = obs.METRICS.histogram(
            "span.seconds", span="sim.translate", mapping=mapping.name
        ).sum
        assert float(row[-1]) == pytest.approx(1e9 * seconds / LINES, abs=0.06)
