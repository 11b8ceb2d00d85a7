"""Vectorized single-pass DRAM trace analyzer.

Given a mapped trace -- per-access flat bank ids and row indices in
program order -- this module computes, without per-access Python loops:

* the number of activations (ACT commands) and row-buffer hits under the
  open-adaptive page policy,
* the per-physical-row activation histogram (the input to hot-row and
  mitigation-invocation analysis), and
* optionally the (row, column) pairs of every activation, for the
  line-contribution analysis of Table 3.

The model corresponds to an in-order, per-bank stream: each bank serves
its requests in program order, a request hits iff it targets the row left
open by the previous request to that bank and the open-adaptive budget
(16 accesses by default) is not exhausted.  FR-FCFS reordering in the
detailed model only strengthens row locality; the cross-validation test
in ``tests/integration/test_tier_agreement.py`` bounds the difference.

:func:`analyze_trace`, the hot path for 10M-100M-line windows, groups
accesses by bank with an O(n) counting sort, finds run positions with a
running maximum and counts activations per row by sorting the narrow
activated-row ids.  The rows touched are exactly the rows activated, as
every run of same-row accesses opens with an activation.
:func:`_analyze_trace_sorted` is the original ``np.argsort``/``np.unique``
implementation, kept only as the oracle the equivalence tests and
``scripts/bench_hotpath.py`` compare against; both produce bit-identical
:class:`TraceStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class TraceStats:
    """Aggregate statistics of one analyzed trace window.

    Attributes:
        n_accesses: Total memory requests analyzed.
        n_activations: ACT commands issued.
        n_hits: Row-buffer hits.
        row_ids: Global physical-row ids with at least one activation
            (sorted, unique).
        acts_per_row: Activation count aligned with ``row_ids``.
        unique_rows_touched: Number of distinct physical rows accessed.
        act_rows: If detail was kept, the global row id of every ACT.
        act_cols: If detail was kept, the column of every ACT.
    """

    n_accesses: int
    n_activations: int
    n_hits: int
    row_ids: np.ndarray
    acts_per_row: np.ndarray
    unique_rows_touched: int
    act_rows: Optional[np.ndarray] = None
    act_cols: Optional[np.ndarray] = None

    @property
    def hit_rate(self) -> float:
        """Row-buffer hit rate in [0, 1]."""
        if self.n_accesses == 0:
            return 0.0
        return self.n_hits / self.n_accesses

    def hot_rows(self, threshold: int) -> int:
        """Number of rows with at least ``threshold`` activations."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        return int(np.count_nonzero(self.acts_per_row >= threshold))

    def max_row_activations(self) -> int:
        """Highest activation count of any single row (security metric)."""
        if self.acts_per_row.size == 0:
            return 0
        return int(self.acts_per_row.max())

    def threshold_crossings(self, threshold: int) -> int:
        """Total times any row's count crosses a multiple of ``threshold``.

        This is the number of mitigations an ideal tracker with reset-on-
        mitigation triggers: a row with A activations crosses floor(A/t)
        times.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        return int((self.acts_per_row // threshold).sum())

    def excess_activations(self, threshold: int) -> int:
        """Total activations beyond ``threshold`` summed over rows.

        Blockhammer throttles exactly these activations.
        """
        excess = self.acts_per_row.astype(np.int64) - threshold
        return int(excess[excess > 0].sum())

    @classmethod
    def merge(cls, parts: Sequence["TraceStats"]) -> "TraceStats":
        """Merge chunk-wise statistics into one window-level result.

        Per-row histograms are summed by row id.  The detail arrays are
        kept *atomically*: ``act_rows`` (and ``act_cols``) appear in the
        merged result only when every part agrees on what detail it
        kept.  Parts that disagree on column detail drop both arrays --
        a merged ``act_rows`` spanning all activations next to an
        ``act_cols`` covering only some chunks would silently misalign
        downstream (row, col) analyses.
        """
        if not parts:
            return cls(0, 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0)
        all_rows = np.concatenate([p.row_ids for p in parts])
        all_acts = np.concatenate([p.acts_per_row for p in parts])
        row_ids, inverse = np.unique(all_rows, return_inverse=True)
        acts = np.zeros(row_ids.size, dtype=np.int64)
        np.add.at(acts, inverse, all_acts)
        rows_kept = [p.act_rows is not None for p in parts]
        cols_kept = [p.act_cols is not None for p in parts]
        keep_detail = all(rows_kept) and (all(cols_kept) or not any(cols_kept))
        act_rows = np.concatenate([p.act_rows for p in parts]) if keep_detail else None
        act_cols = (
            np.concatenate([p.act_cols for p in parts])
            if keep_detail and all(cols_kept)
            else None
        )
        # Rows touched are rows activated, so for parts from
        # analyze_trace this max() is the exact touched count.
        unique_touched = max(int(row_ids.size), max(p.unique_rows_touched for p in parts))
        return cls(
            n_accesses=sum(p.n_accesses for p in parts),
            n_activations=sum(p.n_activations for p in parts),
            n_hits=sum(p.n_hits for p in parts),
            row_ids=row_ids,
            acts_per_row=acts,
            unique_rows_touched=unique_touched,
            act_rows=act_rows,
            act_cols=act_cols,
        )


def _grouping_order(flat_bank: np.ndarray, n_bank_ids: int) -> np.ndarray:
    """Stable permutation that groups accesses by bank in O(n).

    This is a counting sort over the flat-bank-id domain: bucket sizes
    come from a bincount of the ids, bucket offsets from their cumsum,
    and indices scatter into their buckets in program order.  Numpy's
    stable sort on 8/16-bit unsigned keys is exactly that counting pass
    (one histogram + prefix sum + stable scatter per key byte, all in C),
    so the ids are narrowed to the smallest width that holds them; bank
    counts beyond 2^16 -- no modeled geometry comes close -- fall back to
    the generic stable sort.
    """
    if n_bank_ids <= 1 << 8:
        key = flat_bank.astype(np.uint8)
    elif n_bank_ids <= 1 << 16:
        key = flat_bank.astype(np.uint16)
    else:
        key = flat_bank
    return np.argsort(key, kind="stable")


#: Shared empty placeholder for slimmed per-chunk stats (never mutated).
_EMPTY_ROW_IDS = np.empty(0, dtype=np.int64)


def analyze_trace(
    flat_bank: np.ndarray,
    row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int] = 16,
    col: Optional[np.ndarray] = None,
    keep_detail: bool = False,
) -> TraceStats:
    """Analyze one trace window under the open-adaptive page policy.

    Args:
        flat_bank: Flat bank id per access, program order.
        row: Row index within the bank per access.
        rows_per_bank: Rows per bank (to form global row ids).
        max_hits: Open-adaptive budget; ``None`` models pure open-page.
        col: Optional column (line-in-row) per access; required when
            ``keep_detail`` is set and Table-3-style analysis is wanted.
        keep_detail: Keep per-activation (row, col) arrays.

    Returns:
        A :class:`TraceStats` for the window.
    """
    flat_bank = np.asarray(flat_bank)
    row = np.asarray(row)
    if flat_bank.shape != row.shape or flat_bank.ndim != 1:
        raise ValueError("flat_bank and row must be 1-D arrays of equal length")
    n = flat_bank.size
    if n == 0:
        return TraceStats(0, 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0)
    if max_hits is not None and max_hits < 1:
        raise ValueError(f"max_hits must be >= 1 or None, got {max_hits}")

    n_bank_ids = int(flat_bank.max()) + 1
    # Exclusive upper bound on the global row ids; when it fits in 32
    # bits the whole kernel runs on half the memory bandwidth (the ids
    # themselves stay exact either way).  Derived from the observed row
    # maximum so even out-of-spec row indices stay in domain.
    domain = (n_bank_ids - 1) * rows_per_bank + int(row.max()) + 1
    work_dtype = np.int32 if domain <= np.iinfo(np.int32).max else np.int64
    global_row = flat_bank.astype(work_dtype) * work_dtype(rows_per_bank) + row.astype(
        work_dtype
    )

    # Group accesses by bank while preserving program order inside each bank.
    order = _grouping_order(flat_bank, n_bank_ids)
    g = global_row[order]

    # An access continues the current run iff it targets the same global
    # row as its predecessor within the same bank.  Because global row ids
    # embed the bank id, comparing them also compares banks -- except that
    # the first access of each bank group must start a new run even if the
    # previous bank's last row id coincides; embedding makes collision
    # impossible (row ids of different banks never match).
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(g[1:], g[:-1], out=new_run[1:])

    if max_hits is None:
        act_mask = new_run
    else:
        # An access's position in its run is its index minus the index
        # of the run's first access, which is the running maximum of the
        # run-start indices.
        pos_in_run = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
        run_start = pos_in_run * new_run
        np.maximum.accumulate(run_start, out=run_start)
        pos_in_run -= run_start
        if max_hits & (max_hits - 1) == 0:
            pos_in_run &= max_hits - 1
        else:
            pos_in_run %= max_hits
        act_mask = pos_in_run == 0

    act_rows = g[act_mask]
    n_act = int(act_rows.size)
    # Per-row counts: sort the activated ids and cut at value changes.
    # On narrow ids this beats a dense bincount, whose allocation and
    # scan of the whole row domain dominate short windows.
    ordered = np.sort(act_rows)
    first = np.empty(n_act, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    row_ids = ordered[starts].astype(np.int64, copy=False)
    acts_per_row = np.diff(starts, append=n_act)

    detail_rows = act_rows.astype(np.int64, copy=False) if keep_detail else None
    keep_cols = keep_detail and col is not None
    detail_cols = np.asarray(col)[order][act_mask] if keep_cols else None

    return TraceStats(
        n_accesses=n,
        n_activations=n_act,
        n_hits=n - n_act,
        row_ids=row_ids,
        acts_per_row=acts_per_row.astype(np.int64, copy=False),
        # Every run of same-row accesses opens with an activation, so the
        # rows touched are exactly the rows activated.
        unique_rows_touched=int(row_ids.size),
        act_rows=detail_rows,
        act_cols=detail_cols,
    )


def _analyze_trace_sorted(
    flat_bank: np.ndarray,
    row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int] = 16,
    col: Optional[np.ndarray] = None,
    keep_detail: bool = False,
) -> TraceStats:
    """The original argsort/np.unique kernel (test oracle).

    Never called in production: kept verbatim as the baseline the
    property tests and the hot-path benchmark compare
    :func:`analyze_trace` against.  Inputs must be validated, non-empty
    1-D arrays of equal length.
    """
    n = flat_bank.size
    global_row = flat_bank.astype(np.int64) * np.int64(rows_per_bank) + row.astype(np.int64)

    order = np.argsort(flat_bank, kind="stable")
    g = global_row[order]

    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = g[1:] == g[:-1]

    run_starts = np.flatnonzero(~same)
    run_id = np.cumsum(~same) - 1
    pos_in_run = np.arange(n, dtype=np.int64) - run_starts[run_id]

    if max_hits is None:
        act_mask = ~same
    else:
        act_mask = (pos_in_run % max_hits) == 0

    n_act = int(np.count_nonzero(act_mask))
    act_rows = g[act_mask]
    row_ids, acts_per_row = np.unique(act_rows, return_counts=True)
    unique_rows = int(np.unique(g).size)

    detail_rows = act_rows if keep_detail else None
    detail_cols = None
    if keep_detail and col is not None:
        detail_cols = np.asarray(col)[order][act_mask]

    return TraceStats(
        n_accesses=n,
        n_activations=n_act,
        n_hits=n - n_act,
        row_ids=row_ids,
        acts_per_row=acts_per_row.astype(np.int64),
        unique_rows_touched=unique_rows,
        act_rows=detail_rows,
        act_cols=detail_cols,
    )


@dataclass
class ChunkedAnalyzer:
    """Incremental analyzer for traces mapped chunk-by-chunk.

    Rubix-D changes the mapping *during* a window, so the simulator maps
    and analyzes the trace in chunks, feeding each chunk's activation
    count back into the remap engine.  This class accumulates the chunk
    statistics and produces a merged window result; the row buffer is
    conservatively assumed cold at each chunk boundary (a <0.1% activation
    overcount at the default chunk size).

    Chunk parts keep only tallies and detail; per-row counts go to one
    dense histogram over the global-row domain (an O(n) scatter, and no
    per-chunk histograms held across a 100M-line window).  A chunk that
    pushes the domain past the dense budget turns the histogram into
    the first of a list of row parts for :meth:`TraceStats.merge`.
    Touched rows are the activated rows, so they need no state.
    """

    rows_per_bank: int
    max_hits: Optional[int] = 16
    keep_detail: bool = False
    _parts: List[TraceStats] = field(default_factory=list)
    _hist: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    _row_parts: Optional[List[TraceStats]] = None
    _fed: int = 0

    def feed(
        self,
        flat_bank: np.ndarray,
        row: np.ndarray,
        col: Optional[np.ndarray] = None,
    ) -> TraceStats:
        """Analyze one chunk; returns the chunk's own stats."""
        stats = analyze_trace(
            flat_bank,
            row,
            rows_per_bank=self.rows_per_bank,
            max_hits=self.max_hits,
            col=col,
            keep_detail=self.keep_detail,
        )
        self._parts.append(replace(stats, row_ids=_EMPTY_ROW_IDS, acts_per_row=_EMPTY_ROW_IDS))
        if stats.n_accesses == 0:
            return stats
        self._fed += stats.n_accesses
        # row_ids are sorted, and the highest activated row is the
        # highest touched one.
        domain = int(stats.row_ids[-1]) + 1
        # The histogram is 8*domain bytes; past a few multiples of the
        # lines fed so far it would dwarf the sort-merge it replaces.
        if self._row_parts is None and domain <= max(1 << 22, 2 * self._fed):
            if self._hist.size < domain:
                growth = np.zeros(domain - self._hist.size, dtype=np.int64)
                self._hist = np.concatenate([self._hist, growth])
            # row_ids are unique within a chunk: no np.add.at needed.
            self._hist[stats.row_ids] += stats.acts_per_row
            return stats
        if self._row_parts is None:
            self._row_parts = [_histogram_part(self._hist)]
            self._hist = _EMPTY_ROW_IDS  # released: the dense path is off for good
        self._row_parts.append(TraceStats(0, 0, 0, stats.row_ids, stats.acts_per_row, 0))
        return stats

    def result(self) -> TraceStats:
        """Merged statistics across all chunks fed so far."""
        merged = TraceStats.merge(self._parts)
        if self._row_parts is None:
            rows = _histogram_part(self._hist)
        else:
            rows = TraceStats.merge(self._row_parts)
        merged.row_ids, merged.acts_per_row = rows.row_ids, rows.acts_per_row
        merged.unique_rows_touched = rows.unique_rows_touched
        return merged


def _histogram_part(hist: np.ndarray) -> TraceStats:
    """A tally-free part carrying a dense histogram's per-row counts."""
    ids = np.flatnonzero(hist)
    return TraceStats(0, 0, 0, ids, hist[ids], int(ids.size))


__all__ = ["TraceStats", "analyze_trace", "ChunkedAnalyzer"]
