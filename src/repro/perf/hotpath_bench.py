"""Hot-path kernel benchmark harness (see ``scripts/bench_hotpath.py``).

Every hot kernel has one production implementation, timed here against
its pre-optimization reference, which is kept in-tree only as a test
oracle:

* **static translate** -- Coffee Lake, Skylake and MOP decode vs
  :func:`field_decode_reference`, and Rubix-S GS1/2/4 vs
  :func:`rubix_s_reference` (:func:`feistel_reference` rounds, then
  the per-bit decode),
* **translate** -- :meth:`RubixDMapping.translate_trace` (gather over
  snapshot register arrays) vs :meth:`RubixDMapping._translate_trace_loop`
  (one masked pass per remap engine),
* **analyze** -- :func:`analyze_trace` (counting sort, running-max run
  positions, sorted activated rows) vs
  :func:`~repro.dram.fast_model._analyze_trace_sorted`
  (argsort/np.unique),
* **remap** -- :meth:`XorRemapEngine.remap_steps` (closed-form swap
  counting) vs :meth:`XorRemapEngine._remap_steps_loop` (per-episode walk),

plus an **end-to-end** dynamic window (chunked map + analyze +
activation-driven remap advancement, mirroring
:meth:`~repro.perf.simulator.Simulator._run_dynamic`) run once with every
reference kernel and once with every optimized kernel.

Every benchmark *asserts* that both implementations produce bit-identical
results before reporting timings, so a regression in equivalence fails
loudly rather than producing a fast-but-wrong number.  Timings are
best-of-``reps`` over warmed inputs (first-touch page faults on fresh
10M-element allocations otherwise dominate and distort per-kernel
numbers on this class of machine).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.crypto.feistel import FeistelNetwork
from repro.dram.config import DRAMConfig, baseline_config
from repro.dram.fast_model import (
    ChunkedAnalyzer,
    TraceStats,
    _analyze_trace_sorted,
    analyze_trace,
)
from repro.mapping.base import FieldDecodeMapping, MappedTrace
from repro.mapping.intel import CoffeeLakeMapping, SkylakeMapping
from repro.mapping.mop import MOPMapping
from repro.utils.bitops import mask
from repro.workloads.trace import interleave, iter_line_chunks

#: Default window length -- the ISSUE's benchmark target.
DEFAULT_LINES = 10_000_000

#: Default seed for the synthetic benchmark trace.
DEFAULT_SEED = 0xB16B00


@dataclass(frozen=True)
class KernelResult:
    """Timing of one kernel pair (reference vs optimized)."""

    name: str
    legacy_s: float
    optimized_s: float

    @property
    def speedup(self) -> float:
        if self.optimized_s <= 0.0:
            return float("inf")
        return self.legacy_s / self.optimized_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "legacy_s": self.legacy_s,
            "optimized_s": self.optimized_s,
            "speedup": self.speedup,
        }


def synth_lines(n: int, config: DRAMConfig, seed: int = DEFAULT_SEED) -> np.ndarray:
    """A mixed synthetic line stream: hot gangs, streaming scans, pool.

    One quarter of the accesses hammer a small hot set (row-buffer hits
    and hot rows), one quarter streams sequentially (long same-row runs
    that exercise the open-adaptive budget), and the rest draws
    uniformly from the full line space (cold misses).  The three streams
    interleave deterministically, so the same ``(n, seed)`` always
    yields the same trace.
    """
    rng = np.random.default_rng(seed)
    total = config.total_lines
    n_hot = n // 4
    n_seq = n // 4
    n_rand = n - n_hot - n_seq
    hot_set = rng.integers(0, total, size=64, dtype=np.uint64)
    hot = hot_set[rng.integers(0, hot_set.size, size=n_hot)]
    start = int(rng.integers(0, max(1, total - n_seq)))
    seq = np.arange(start, start + n_seq, dtype=np.uint64)
    rand = rng.integers(0, total, size=n_rand, dtype=np.uint64)
    return interleave([hot, seq, rand])


def _best_of(fn: Callable[[], object], reps: int) -> Tuple[float, object]:
    """Minimum wall-clock over ``reps`` calls, plus the last result."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def assert_stats_equal(a: TraceStats, b: TraceStats) -> None:
    """Require two analysis results to be bit-identical, detail included."""
    assert a.n_accesses == b.n_accesses
    assert a.n_activations == b.n_activations
    assert a.n_hits == b.n_hits
    assert a.unique_rows_touched == b.unique_rows_touched
    assert np.array_equal(a.row_ids, b.row_ids)
    assert np.array_equal(a.acts_per_row, b.acts_per_row)
    assert (a.act_rows is None) == (b.act_rows is None)
    if a.act_rows is not None:
        assert np.array_equal(a.act_rows, b.act_rows)
    assert (a.act_cols is None) == (b.act_cols is None)
    if a.act_cols is not None:
        assert np.array_equal(a.act_cols, b.act_cols)


def assert_mapped_equal(a: MappedTrace, b: MappedTrace) -> None:
    """Require two translations to agree field-for-field."""
    assert np.array_equal(np.asarray(a.flat_bank), np.asarray(b.flat_bank))
    assert np.array_equal(np.asarray(a.row), np.asarray(b.row))
    assert np.array_equal(np.asarray(a.col), np.asarray(b.col))


def field_decode_reference(mapping: FieldDecodeMapping, lines: np.ndarray) -> MappedTrace:
    """Oracle for ``FieldDecodeMapping.translate_trace``: one address bit
    at a time, then the bank hash one row bit at a time."""
    lines = np.asarray(lines, dtype=np.uint64)
    one = np.uint64(1)
    f = {}
    for name, bits in mapping.field_bits.items():
        f[name] = np.zeros(lines.shape, dtype=np.uint64)
        for i, src in enumerate(bits):
            f[name] |= ((lines >> np.uint64(src)) & one) << np.uint64(i)
    for bit, row_bits in enumerate(mapping.bank_hash_row_bits or []):
        for rb in row_bits:
            f["bank"] ^= ((f["row"] >> np.uint64(rb)) & one) << np.uint64(bit)
    c = mapping.config
    flat = (f["channel"] * np.uint64(c.ranks) + f["rank"]) * np.uint64(c.banks) + f["bank"]
    return MappedTrace(flat_bank=flat, row=f["row"], col=f["col"], rows_per_bank=c.rows_per_bank)


def feistel_reference(
    network: FeistelNetwork, values: np.ndarray, *, inverse: bool = False
) -> np.ndarray:
    """Oracle for the table-driven array rounds of ``FeistelNetwork``: every
    round evaluates the arithmetic ``_round_f`` on the whole half."""
    v = np.asarray(values, dtype=np.uint64)
    a, b = network._left_bits, network._right_bits
    left, right = v >> np.uint64(b), v & np.uint64(mask(b))
    for round_key in reversed(network.round_keys) if inverse else network.round_keys:
        if inverse:
            a, b = b, a
            left, right = right ^ network._round_f(left, round_key, a), left
        else:
            left, right = right, left ^ network._round_f(right, round_key, a)
            a, b = b, a
    return (left << np.uint64(b)) | right


def rubix_s_reference(mapping: RubixSMapping, lines: np.ndarray) -> MappedTrace:
    """Rubix-S translation on the oracles: arithmetic cipher, per-bit decode."""
    gang, offset = mapping.splitter.split(np.asarray(lines, dtype=np.uint64))
    encrypted = mapping.splitter.merge(feistel_reference(mapping.cipher._network, gang), offset)
    return field_decode_reference(mapping.decode, encrypted)


def _use_loop_remap(mapping: RubixDMapping) -> None:
    """Route a mapping's remap advancement through the stepwise walk.

    Per-instance rebinding -- the engines' class is untouched, so the
    legacy end-to-end measurement below runs entirely on reference
    kernels without affecting anything else in the process.
    """
    for engine in mapping.engines:
        engine.remap_steps = engine._remap_steps_loop  # type: ignore[method-assign]


@dataclass
class SortedChunkAnalyzer:
    """Oracle for :class:`~repro.dram.fast_model.ChunkedAnalyzer`.

    Each chunk runs through the argsort/np.unique reference kernel; the
    window result is :meth:`TraceStats.merge` over the chunk results --
    the merge the production analyzer falls back to when its dense
    histogram outgrows its budget -- with the touched-row count taken
    independently from ``np.unique`` of every chunk's global row ids,
    so the production shortcut (touched rows are the activated rows) is
    checked rather than assumed.  Same ``feed``/``result`` interface,
    bit-identical results.
    """

    rows_per_bank: int
    max_hits: Optional[int] = 16
    keep_detail: bool = False
    _parts: List[TraceStats] = field(default_factory=list)
    _touched: List[np.ndarray] = field(default_factory=list)

    def feed(
        self,
        flat_bank: np.ndarray,
        row: np.ndarray,
        col: Optional[np.ndarray] = None,
    ) -> TraceStats:
        """Analyze one non-empty chunk; returns the chunk's own stats."""
        flat = np.asarray(flat_bank)
        rows = np.asarray(row)
        stats = _analyze_trace_sorted(
            flat,
            rows,
            rows_per_bank=self.rows_per_bank,
            max_hits=self.max_hits,
            col=col,
            keep_detail=self.keep_detail,
        )
        self._parts.append(stats)
        global_row = flat.astype(np.int64) * self.rows_per_bank + rows.astype(np.int64)
        self._touched.append(np.unique(global_row))
        return stats

    def result(self) -> TraceStats:
        """Merged statistics across all chunks fed so far."""
        merged = TraceStats.merge(self._parts)
        if self._touched:
            merged.unique_rows_touched = int(np.unique(np.concatenate(self._touched)).size)
        return merged


def run_window(
    mapping: RubixDMapping,
    lines: np.ndarray,
    *,
    chunk_lines: int,
    max_hits: Optional[int] = 16,
    optimized: bool = True,
) -> Tuple[TraceStats, int]:
    """One dynamic window, exactly as the simulator runs it.

    ``optimized=False`` replays the pre-optimization pipeline on the
    oracles: masked per-engine translation, argsort/np.unique analysis
    merged by :class:`SortedChunkAnalyzer`, and (when the caller also
    applied :func:`_use_loop_remap`) per-episode remap stepping.  Both
    variants drive the same chunking and activation attribution, so
    their results must match bit-for-bit.
    """
    analyzer_cls = ChunkedAnalyzer if optimized else SortedChunkAnalyzer
    analyzer = analyzer_cls(rows_per_bank=mapping.config.rows_per_bank, max_hits=max_hits)
    swaps = 0
    k = mapping.k_bits
    for chunk in iter_line_chunks(lines, chunk_lines):
        if optimized:
            mapped = mapping.translate_trace(chunk, validate=False)
        else:
            mapped = mapping._translate_trace_loop(chunk)
        chunk_stats = analyzer.feed(mapped.flat_bank, mapped.row, mapped.col)
        vgroup = np.asarray(mapped.col).astype(np.int64) >> np.int64(k)
        shares = np.bincount(vgroup, minlength=mapping.vgroups).astype(np.float64)
        total = shares.sum()
        if total > 0 and chunk_stats.n_activations > 0:
            shares *= chunk_stats.n_activations / total
        swaps += mapping.record_activations(shares)
    return analyzer.result(), swaps


def translate_matrix(rubix_d: RubixDMapping, *, seed: int) -> Dict[str, tuple]:
    """Bench row -> (mapping, its oracle) for every translation kernel."""
    config = rubix_d.config
    matrix = {
        "translate.coffeelake": (CoffeeLakeMapping(config), field_decode_reference),
        "translate.skylake": (SkylakeMapping(config), field_decode_reference),
        "translate.mop": (MOPMapping(config), field_decode_reference),
    }
    for gs in (1, 2, 4):
        mapping = RubixSMapping(config, gang_size=gs, seed=seed)
        matrix[f"translate.rubix-s-gs{gs}"] = (mapping, rubix_s_reference)
    matrix["translate_trace"] = (rubix_d, RubixDMapping._translate_trace_loop)
    return matrix


def bench_translate(
    name: str, mapping, reference: Callable, lines: np.ndarray, *, reps: int
) -> KernelResult:
    """Production ``translate_trace`` vs ``reference(mapping, lines)``."""
    slow, ref = _best_of(lambda: reference(mapping, lines), reps)
    fast, new = _best_of(lambda: mapping.translate_trace(lines, validate=False), reps)
    assert_mapped_equal(ref, new)
    return KernelResult(name, slow, fast)


def bench_analyze(
    mapping: RubixDMapping, lines: np.ndarray, *, reps: int, max_hits: Optional[int] = 16
) -> KernelResult:
    """Counting-kernel analysis vs the argsort/np.unique reference."""
    mapped = mapping.translate_trace(lines, validate=False)
    kwargs = dict(rows_per_bank=mapping.config.rows_per_bank, max_hits=max_hits, col=mapped.col)

    slow, ref = _best_of(
        lambda: _analyze_trace_sorted(mapped.flat_bank, mapped.row, **kwargs),
        reps,
    )
    fast, new = _best_of(lambda: analyze_trace(mapped.flat_bank, mapped.row, **kwargs), reps)
    assert_stats_equal(ref, new)
    return KernelResult("analyze_trace", slow, fast)


def bench_e2e(
    config: DRAMConfig,
    lines: np.ndarray,
    *,
    chunk_lines: int,
    reps: int,
    gang_size: int = 4,
    segments: int = 1,
    seed: int = DEFAULT_SEED,
) -> KernelResult:
    """Full dynamic window: map + analyze + remap, legacy vs optimized.

    Fresh same-seed mappings per repetition (remap state advances during
    a window); the two pipelines' merged :class:`TraceStats` and swap
    totals are asserted bit-identical -- this is the acceptance check
    that the simulator's :class:`~repro.perf.simulator.RunResult`
    inputs are unchanged by the optimization.
    """

    def fresh() -> RubixDMapping:
        return RubixDMapping(config, gang_size=gang_size, seed=seed, segments=segments)

    def legacy() -> Tuple[TraceStats, int]:
        mapping = fresh()
        _use_loop_remap(mapping)
        return run_window(mapping, lines, chunk_lines=chunk_lines, optimized=False)

    def optimized() -> Tuple[TraceStats, int]:
        return run_window(fresh(), lines, chunk_lines=chunk_lines, optimized=True)

    slow, ref = _best_of(legacy, reps)
    fast, new = _best_of(optimized, reps)
    ref_stats, ref_swaps = ref
    new_stats, new_swaps = new
    assert ref_swaps == new_swaps, f"swap totals differ: {ref_swaps} vs {new_swaps}"
    assert_stats_equal(ref_stats, new_stats)
    return KernelResult("e2e_window", slow, fast)


def run_benchmarks(
    *,
    lines: int = DEFAULT_LINES,
    reps: int = 3,
    seed: int = DEFAULT_SEED,
    chunk_lines: int = 1 << 20,
    gang_size: int = 4,
    segments: int = 1,
    config: Optional[DRAMConfig] = None,
) -> Dict[str, object]:
    """Run every kernel benchmark; returns a JSON-ready report.

    Every pair is equivalence-checked before timing is reported, so a
    returned report certifies bit-identical results at its parameters.
    """
    config = config or baseline_config()
    trace = synth_lines(lines, config, seed=seed)
    mapping = RubixDMapping(config, gang_size=gang_size, seed=seed, segments=segments)
    # A remap-kernel call that crosses one epoch boundary (1.33x the
    # engine's space), so the wrap-around path -- key rotation and
    # pointer reset mid-count -- is always part of the equivalence check.
    remap_steps = mapping.engines[0].space + mapping.engines[0].space // 3

    results = [
        bench_translate(name, translator, reference, trace, reps=reps)
        for name, (translator, reference) in translate_matrix(mapping, seed=seed).items()
    ]
    results += [
        bench_analyze(mapping, trace, reps=reps),
        bench_remap_steps_for(mapping, steps=remap_steps, reps=reps, seed=seed),
        bench_e2e(
            config,
            trace,
            chunk_lines=chunk_lines,
            reps=reps,
            gang_size=gang_size,
            segments=segments,
            seed=seed,
        ),
    ]
    return {
        "config": {
            "lines": int(lines),
            "reps": int(reps),
            "seed": int(seed),
            "chunk_lines": int(chunk_lines),
            "gang_size": int(gang_size),
            "segments": int(segments),
            "remap_steps": int(remap_steps),
            "total_lines": int(config.total_lines),
            "numpy": np.__version__,
        },
        "equivalence": "bit-identical (asserted in-run for every kernel pair)",
        "kernels": {r.name: r.as_dict() for r in results},
    }


def bench_remap_steps_for(
    mapping: RubixDMapping, *, steps: int, reps: int, seed: int
) -> KernelResult:
    """Remap-kernel benchmark sized to a mapping's engine space."""
    from repro.core.remap_engine import XorRemapEngine

    nbits = mapping.engines[0].nbits

    def loop() -> Tuple[int, int, int, int, int]:
        e = XorRemapEngine(nbits=nbits, seed=seed)
        swaps = e._remap_steps_loop(steps)
        return (swaps, e.swaps_performed, e.swaps_skipped, e.ptr, e.epochs_completed)

    def closed() -> Tuple[int, int, int, int, int]:
        e = XorRemapEngine(nbits=nbits, seed=seed)
        swaps = e.remap_steps(steps)
        return (swaps, e.swaps_performed, e.swaps_skipped, e.ptr, e.epochs_completed)

    slow, ref = _best_of(loop, reps)
    fast, new = _best_of(closed, reps)
    assert ref == new, f"remap_steps mismatch: loop={ref} closed={new}"
    return KernelResult("remap_steps", slow, fast)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table for one :func:`run_benchmarks` report."""
    cfg = report["config"]
    lines = [
        f"hot-path kernels @ {cfg['lines']:,} lines "
        f"(reps={cfg['reps']}, seed={cfg['seed']:#x}, "
        f"GS{cfg['gang_size']}, segments={cfg['segments']})",
        f"{'kernel':<22} {'legacy (s)':>12} {'optimized (s)':>14} {'speedup':>9}"
        f" {'ns/line':>16}",
    ]
    for name, entry in report["kernels"].items():
        per_line = ""
        if name.startswith("translate") or name.startswith("analyze"):
            ns = [1e9 * entry[k] / cfg["lines"] for k in ("legacy_s", "optimized_s")]
            per_line = f"{ns[0]:>7.1f} -> {ns[1]:<6.1f}"
        lines.append(
            f"{name:<22} {entry['legacy_s']:>12.4f} "
            f"{entry['optimized_s']:>14.4f} {entry['speedup']:>8.2f}x {per_line:>16}"
        )
    lines.append(f"equivalence: {report['equivalence']}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_LINES",
    "DEFAULT_SEED",
    "KernelResult",
    "SortedChunkAnalyzer",
    "assert_mapped_equal",
    "assert_stats_equal",
    "bench_analyze",
    "bench_e2e",
    "bench_remap_steps_for",
    "bench_translate",
    "feistel_reference",
    "field_decode_reference",
    "format_report",
    "run_benchmarks",
    "run_window",
    "rubix_s_reference",
    "synth_lines",
    "translate_matrix",
]
