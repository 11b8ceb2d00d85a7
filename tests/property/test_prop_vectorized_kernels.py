"""Equivalence properties for the vectorized hot-path kernels.

Each production kernel keeps its pre-optimization reference in-tree as
a test oracle; these tests pin the contract the optimization relies on:
*bit-identical* results, not just statistically similar ones.

* ``analyze_trace`` vs the ``_analyze_trace_sorted`` oracle -- every
  :class:`TraceStats` field including detail-array order,
* ``ChunkedAnalyzer`` vs :class:`~repro.perf.hotpath_bench.SortedChunkAnalyzer`
  (per-chunk oracle results merged by ``TraceStats.merge``),
* ``RubixDMapping.translate_trace`` (gather) vs per-element
  ``translate`` and the masked ``_translate_trace_loop``, including
  mid-sweep engine states (nonzero Ptr),
* Rubix-S batch translation vs per-element translation under the
  one-shot-validation fast path,
* ``XorRemapEngine.remap_steps`` (closed form) vs the stepwise walk,
  across epoch wrap-arounds,
* a full dynamic window on the production kernels vs the oracles,
* ``FieldDecodeMapping.translate_trace`` (bit runs, popcount bank hash)
  vs :func:`~repro.perf.hotpath_bench.field_decode_reference` and the
  scalar ``translate`` on random interleaved layouts and hash sets,
* the table-driven Feistel rounds vs
  :func:`~repro.perf.hotpath_bench.feistel_reference` and the scalar
  cipher, for widths on both sides of the 16-bit-half cutoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.remap_engine import XorRemapEngine
from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.crypto.feistel import FeistelNetwork
from repro.dram.config import DRAMConfig
from repro.dram.fast_model import ChunkedAnalyzer, _analyze_trace_sorted, analyze_trace
from repro.mapping.base import FIELD_ORDER, FieldDecodeMapping, fields_from_segments
from repro.perf.hotpath_bench import (
    SortedChunkAnalyzer,
    _use_loop_remap,
    assert_mapped_equal,
    assert_stats_equal,
    feistel_reference,
    field_decode_reference,
    rubix_s_reference,
    run_window,
    synth_lines,
)

SMALL = DRAMConfig(banks=4, rows_per_bank=256, row_bytes=1024)

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=63)),
    min_size=1,
    max_size=400,
)


def _assert_stats_identical(a, b):
    assert a.n_accesses == b.n_accesses
    assert a.n_activations == b.n_activations
    assert a.n_hits == b.n_hits
    assert a.unique_rows_touched == b.unique_rows_touched
    assert np.array_equal(a.row_ids, b.row_ids)
    assert a.row_ids.dtype == b.row_ids.dtype
    assert np.array_equal(a.acts_per_row, b.acts_per_row)
    assert a.acts_per_row.dtype == b.acts_per_row.dtype
    assert (a.act_rows is None) == (b.act_rows is None)
    if a.act_rows is not None:
        assert np.array_equal(a.act_rows, b.act_rows)
    assert (a.act_cols is None) == (b.act_cols is None)
    if a.act_cols is not None:
        assert np.array_equal(a.act_cols, b.act_cols)


@given(
    trace=traces,
    max_hits=st.sampled_from([None, 1, 3, 16]),
    keep_detail=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_count_kernel_matches_sort_kernel(trace, max_hits, keep_detail):
    """The counting kernels reproduce the argsort path bit-for-bit.

    Detail arrays included: activation (row, col) pairs must come out in
    the same order, since Table-3-style analyses consume them
    positionally.
    """
    banks = np.array([b for b, _ in trace], dtype=np.uint64)
    rows = np.array([r for _, r in trace], dtype=np.uint64)
    cols = np.arange(banks.size, dtype=np.uint64) % 128
    kwargs = dict(
        rows_per_bank=1024, max_hits=max_hits, col=cols, keep_detail=keep_detail
    )
    _assert_stats_identical(
        _analyze_trace_sorted(banks, rows, **kwargs),
        analyze_trace(banks, rows, **kwargs),
    )


@given(
    rows=st.integers(min_value=0, max_value=10_000),
    rows_per_bank=st.sampled_from([1 << 24, 1 << 30]),
)
@settings(max_examples=30, deadline=None)
def test_count_kernel_beyond_histogram_domain(rows, rows_per_bank):
    """Row ids far beyond the window length still match the reference,
    in the int32 work dtype (2^24 rows per bank) and past it (2^30 rows
    per bank puts bank 3's ids above 2^31)."""
    rng = np.random.default_rng(rows)
    banks = rng.integers(0, 4, size=200, dtype=np.uint64)
    row = rng.integers(0, rows_per_bank, size=200, dtype=np.uint64)
    a = _analyze_trace_sorted(banks, row, rows_per_bank=rows_per_bank, max_hits=16)
    b = analyze_trace(banks, row, rows_per_bank=rows_per_bank, max_hits=16)
    _assert_stats_identical(a, b)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rows_per_bank=st.sampled_from([64, 1 << 24]),
    n_chunks=st.integers(min_value=1, max_value=4),
    keep_detail=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_chunked_analyzer_count_matches_sort(seed, rows_per_bank, n_chunks, keep_detail):
    """Chunk-merged windows agree between the analyzer's dense
    accumulators and ``TraceStats.merge`` over per-chunk oracle results
    (the 2^24 rows-per-bank case forces the non-dense fallback)."""
    rng = np.random.default_rng(seed)
    count = ChunkedAnalyzer(rows_per_bank=rows_per_bank, max_hits=16, keep_detail=keep_detail)
    sort = SortedChunkAnalyzer(
        rows_per_bank=rows_per_bank, max_hits=16, keep_detail=keep_detail
    )
    for _ in range(n_chunks):
        n = int(rng.integers(1, 300))
        banks = rng.integers(0, 4, size=n, dtype=np.uint64)
        rows = rng.integers(0, rows_per_bank, size=n, dtype=np.uint64)
        cols = rng.integers(0, 128, size=n, dtype=np.uint64)
        _assert_stats_identical(
            sort.feed(banks, rows, cols), count.feed(banks, rows, cols)
        )
    _assert_stats_identical(sort.result(), count.result())


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    dense_before=st.integers(min_value=0, max_value=3),
    dense_after=st.integers(min_value=0, max_value=2),
    keep_detail=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_chunked_analyzer_dense_to_fallback_midstream(
    seed, dense_before, dense_after, keep_detail
):
    """A chunk whose row domain outgrows the dense-histogram budget
    mid-window -- after any number of dense chunks, before more --
    moves the analyzer to the fallback merge without losing any
    chunk's contribution; the touched-row count matches the oracle's
    independent one."""
    rng = np.random.default_rng(seed)
    count = ChunkedAnalyzer(rows_per_bank=64, max_hits=16, keep_detail=keep_detail)
    sort = SortedChunkAnalyzer(rows_per_bank=64, max_hits=16, keep_detail=keep_detail)
    # Out-of-spec row indices blow up the observed domain (the analyzer
    # derives it from the data, not the config).
    row_limits = [64] * dense_before + [1 << 30] + [64] * dense_after
    for row_limit in row_limits:
        n = int(rng.integers(1, 300))
        banks = rng.integers(0, 4, size=n, dtype=np.uint64)
        rows = rng.integers(0, row_limit, size=n, dtype=np.uint64)
        cols = rng.integers(0, 128, size=n, dtype=np.uint64)
        _assert_stats_identical(sort.feed(banks, rows, cols), count.feed(banks, rows, cols))
    assert count._row_parts
    _assert_stats_identical(sort.result(), count.result())


@st.composite
def decode_layouts(draw):
    """A random geometry, an interleaved field layout and a bank hash."""
    config = DRAMConfig(
        channels=draw(st.sampled_from([1, 2, 4])),
        ranks=draw(st.sampled_from([1, 2])),
        banks=draw(st.sampled_from([1, 2, 4, 16])),
        rows_per_bank=draw(st.sampled_from([64, 1024])),
        row_bytes=draw(st.sampled_from([512, 8192])),
    )
    pieces = []
    for name in FIELD_ORDER:
        left = getattr(config, f"{name}_bits")
        while left:
            width = draw(st.integers(min_value=1, max_value=left))
            pieces.append((name, width))
            left -= width
    segments = draw(st.permutations(pieces))
    row_bit = st.integers(min_value=0, max_value=config.row_bits - 1)
    bank_hash = draw(
        st.none()
        | st.lists(
            st.lists(row_bit, max_size=config.row_bits + 2),
            min_size=config.bank_bits,
            max_size=config.bank_bits,
        )
    )
    mapping = FieldDecodeMapping(
        config, fields_from_segments(config, segments), bank_hash_row_bits=bank_hash
    )
    return mapping


@given(mapping=decode_layouts(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=120, deadline=None)
def test_field_decode_matches_oracle_and_scalar(mapping, seed):
    """Run-based decode == per-bit oracle == scalar translate, for
    interleaved layouts and hash row-bit sets (duplicates included)."""
    config = mapping.config
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, config.total_lines, size=512, dtype=np.uint64)
    mapped = mapping.translate_trace(lines)
    assert mapped.flat_bank.dtype == mapped.row.dtype == mapped.col.dtype == np.uint64
    assert_mapped_equal(field_decode_reference(mapping, lines), mapped)
    for i in range(0, lines.size, 37):
        coord = mapping.translate(int(lines[i]))
        assert int(mapped.flat_bank[i]) == config.flat_bank(coord)
        assert int(mapped.row[i]) == coord.row
        assert int(mapped.col[i]) == coord.col
        assert mapping.inverse(coord) == int(lines[i])


@given(
    width=st.integers(min_value=2, max_value=40),
    key=st.integers(min_value=0, max_value=2**64 - 1),
    rounds=st.sampled_from([2, 4, 6]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=120, deadline=None)
def test_feistel_tables_match_round_function(width, key, rounds, seed):
    """Table rounds (halves <= 16 bits) and arithmetic rounds (wider)
    both match the arithmetic oracle, round-trip, and agree with the
    scalar cipher."""
    network = FeistelNetwork(width, key, rounds=rounds)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << width, size=256, dtype=np.uint64)
    encrypted = network.encrypt(values)
    decrypted = network.decrypt(values)
    assert encrypted.dtype == decrypted.dtype == np.uint64
    assert np.array_equal(encrypted, feistel_reference(network, values))
    assert np.array_equal(decrypted, feistel_reference(network, values, inverse=True))
    assert np.array_equal(network.decrypt(encrypted), values)
    assert np.array_equal(network.encrypt(decrypted), values)
    for i in range(0, values.size, 51):
        assert network.encrypt(int(values[i])) == int(encrypted[i])
        assert network.decrypt(int(values[i])) == int(decrypted[i])
    assert (network._tables is not None) == (width <= 32)


@pytest.mark.parametrize("gang_size", [1, 2, 4])
def test_rubix_s_matches_oracle(gang_size):
    """Rubix-S on the production kernels == arithmetic cipher + per-bit decode."""
    mapping = RubixSMapping(SMALL, gang_size=gang_size, seed=0x5A)
    lines = synth_lines(8192, SMALL, seed=gang_size)
    assert_mapped_equal(rubix_s_reference(mapping, lines), mapping.translate_trace(lines))


@pytest.mark.parametrize("gang_size", [1, 2, 4])
@pytest.mark.parametrize("segments", [1, 2])
def test_rubix_d_gather_matches_scalar_and_loop(gang_size, segments):
    """Gather-based translate_trace == per-element translate == masked loop,
    including mid-sweep (nonzero Ptr, partially advanced engines)."""
    mapping = RubixDMapping(
        SMALL, gang_size=gang_size, seed=0xFEED, segments=segments, remap_rate=0.01
    )
    rng = np.random.default_rng(7)
    lines = rng.integers(0, SMALL.total_lines, size=4096, dtype=np.uint64)

    for round_no in range(3):
        mapped = mapping.translate_trace(lines)
        looped = mapping._translate_trace_loop(lines)
        assert np.array_equal(np.asarray(mapped.flat_bank), np.asarray(looped.flat_bank))
        assert np.array_equal(np.asarray(mapped.row), np.asarray(looped.row))
        assert np.array_equal(np.asarray(mapped.col), np.asarray(looped.col))
        for i in [0, 1, 17, 4095]:
            coord = mapping.translate(int(lines[i]))
            assert int(mapped.row[i]) == coord.row
            assert int(mapped.col[i]) == coord.col
            flat = (coord.channel * SMALL.ranks + coord.rank) * SMALL.banks + coord.bank
            assert int(mapped.flat_bank[i]) == flat
        # Advance the sweeps unevenly so later rounds hit nonzero,
        # engine-specific Ptr values (and eventually epoch rotations).
        counts = np.arange(mapping.vgroups, dtype=np.float64) * 400.0 * (round_no + 1)
        mapping.record_activations(counts)
    assert any(e.ptr > 0 or e.epochs_completed > 0 for e in mapping.engines)


def test_rubix_s_batch_matches_scalar():
    """Rubix-S one-shot-validated batch path == per-element translation."""
    mapping = RubixSMapping(SMALL, gang_size=4, seed=0xABC)
    rng = np.random.default_rng(11)
    lines = rng.integers(0, SMALL.total_lines, size=2048, dtype=np.uint64)
    mapped = mapping.translate_trace(lines)
    for i in [0, 5, 512, 2047]:
        coord = mapping.translate(int(lines[i]))
        assert int(mapped.row[i]) == coord.row
        assert int(mapped.col[i]) == coord.col


def test_out_of_domain_still_rejected_by_default():
    """validate=True (the default) keeps rejecting bad addresses."""
    for mapping in (
        RubixDMapping(SMALL, gang_size=4, seed=1),
        RubixSMapping(SMALL, gang_size=4, seed=1),
    ):
        with pytest.raises(ValueError):
            mapping.translate_trace(np.array([SMALL.total_lines], dtype=np.uint64))


@given(
    nbits=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    counts=st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_closed_form_remap_matches_stepwise_walk(nbits, seed, counts):
    """remap_steps (closed form) == per-episode walk: same swap totals,
    counters, pointer, and key schedule, across arbitrary call splits
    and epoch wrap-arounds."""
    closed = XorRemapEngine(nbits=nbits, seed=seed)
    stepwise = XorRemapEngine(nbits=nbits, seed=seed)
    for count in counts:
        assert closed.remap_steps(count) == stepwise._remap_steps_loop(count)
        assert closed.swaps_performed == stepwise.swaps_performed
        assert closed.swaps_skipped == stepwise.swaps_skipped
        assert closed.ptr == stepwise.ptr
        assert closed.epochs_completed == stepwise.epochs_completed
        assert closed.curr_key == stepwise.curr_key
        assert closed.next_key == stepwise.next_key
        # Identical register state implies identical translation.
        probe = np.arange(closed.space, dtype=np.uint64)
        assert np.array_equal(closed.translate(probe), stepwise.translate(probe))


def test_dynamic_window_pipeline_bit_identical():
    """The full dynamic window -- chunked translate + analyze + remap
    advancement -- produces identical TraceStats and swap totals whether
    it runs on the optimized kernels or the reference ones.  This is the
    invariant that keeps simulator RunResults (and the content-keyed
    stats cache) unchanged by the optimization."""
    lines = synth_lines(20_000, SMALL, seed=0x5EED)
    legacy_map = RubixDMapping(SMALL, gang_size=4, seed=0x5EED, remap_rate=0.01)
    _use_loop_remap(legacy_map)
    new_map = RubixDMapping(SMALL, gang_size=4, seed=0x5EED, remap_rate=0.01)
    legacy_stats, legacy_swaps = run_window(
        legacy_map, lines, chunk_lines=4096, optimized=False
    )
    new_stats, new_swaps = run_window(new_map, lines, chunk_lines=4096, optimized=True)
    assert legacy_swaps == new_swaps and new_swaps > 0
    assert_stats_equal(legacy_stats, new_stats)


def test_remap_steps_epoch_wrap_exact():
    """A single call spanning multiple epochs lands exactly where the
    stepwise walk does (counters conserved: performed + skipped = count)."""
    closed = XorRemapEngine(nbits=6, seed=99)
    stepwise = XorRemapEngine(nbits=6, seed=99)
    count = 3 * closed.space + 17
    assert closed.remap_steps(count) == stepwise._remap_steps_loop(count)
    assert closed.epochs_completed == stepwise.epochs_completed == 3
    assert closed.ptr == stepwise.ptr == 17
    assert closed.swaps_performed + closed.swaps_skipped == count
