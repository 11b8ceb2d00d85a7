"""Rubix-D: dynamic randomized line-to-row mapping (Section 5).

Rubix-D splits the line address into three fields::

    [ row-address (r bits) | gang-in-row (p bits) | line-in-gang (k bits) ]

The k+p low bits pass through unchanged; only the global row address is
randomized.  The p bits select one of 2^p *vertical groups* (same gang
position across all rows), and each v-group owns an independent xor
remap circuit (currKey, nextKey, Ptr).  Because every gang position in a
row uses a different key, the gangs that co-reside in a baseline row are
scattered to unrelated rows -- this is the vertical remapping that fixes
the xor-linearity pitfall of Section 5.2.

Remapping advances with ~1% probability per activation (modeled
deterministically via fractional accumulation so runs are reproducible);
each episode that actually swaps costs 3 ACTs plus 2x gang-size reads
and writes (Section 5.4), which the performance and power models charge.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.gangs import GangSplitter
from repro.core.remap_engine import XorRemapEngine, gather_translate, snapshot_engines
from repro.dram.config import Coordinate, DRAMConfig
from repro.mapping.base import AddressMapping, MappedTrace
from repro.utils.bitops import bit_length_for, is_power_of_two, mask
from repro.utils.prng import derive_key


class RubixDMapping(AddressMapping):
    """Rubix-D with per-vertical-group xor remap circuits.

    Args:
        config: DRAM geometry.
        gang_size: Lines per gang (k = log2(gang_size) bits pass through).
        seed: Boot-time seed; per-v-group keys derive from it.
        remap_rate: Probability of a remap episode per activation
            (paper default 1%). Zero disables dynamic remapping, which
            is exactly the static keyed-xor design of Section 6.2.
        segments: Number of v-segments per v-group (Section 5.4); each
            segment gets its own remap circuit, shortening the remap
            period at proportional SRAM cost.  Must divide the row space.
    """

    def __init__(
        self,
        config: DRAMConfig,
        *,
        gang_size: int = 4,
        seed: int = 0xD1CE,
        remap_rate: float = 0.01,
        segments: int = 1,
    ) -> None:
        super().__init__(config)
        if not 0.0 <= remap_rate <= 1.0:
            raise ValueError(f"remap_rate must be in [0, 1], got {remap_rate}")
        if not is_power_of_two(segments):
            raise ValueError(f"segments must be a power of two, got {segments}")
        self.gang_size = gang_size
        self.remap_rate = remap_rate
        self.segments = segments
        self._seed = seed
        self.splitter = GangSplitter(config.line_addr_bits, gang_size)
        self.k_bits = self.splitter.k_bits
        self.p_bits = config.col_bits - self.k_bits
        if self.p_bits < 0:
            raise ValueError("gang size exceeds the row size")
        self.row_addr_bits = config.line_addr_bits - config.col_bits
        self.segment_bits = bit_length_for(segments)
        if self.segment_bits >= self.row_addr_bits:
            raise ValueError(
                f"{segments} segments need more row bits than the {self.row_addr_bits}"
                " available"
            )
        self.vgroups = 1 << self.p_bits
        self.engines: List[XorRemapEngine] = [
            XorRemapEngine(
                nbits=self.row_addr_bits - self.segment_bits,
                seed=derive_key(seed, f"rubix-d/vg{vg}/seg{seg}", 64),
            )
            for vg in range(self.vgroups)
            for seg in range(segments)
        ]
        self._pending_steps: np.ndarray = np.zeros(len(self.engines), dtype=np.float64)
        self.total_swaps = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "" if self.remap_rate > 0 else ", static"
        return f"Rubix-D (GS{self.gang_size}{suffix})"

    @property
    def cache_key(self) -> str:
        return (
            f"{self.name}/seed={self._seed:x}/rate={self.remap_rate}"
            f"/segments={self.segments}"
        )

    @property
    def storage_bytes(self) -> int:
        """Total SRAM across all remap circuits (512 B at GS4, §5.3)."""
        # The paper budgets 16 B per circuit (two keys + pointer with
        # alignment); engines report their raw register bytes.
        return sum(max(16, engine.storage_bytes) for engine in self.engines)

    def _engine_index(self, vgroup: int, segment: int) -> int:
        return vgroup * self.segments + segment

    # --- address translation ----------------------------------------------
    def _split_fields(self, line_addr):
        """Return (row_addr, vgroup, line_in_gang) fields."""
        k, p = self.k_bits, self.p_bits
        if isinstance(line_addr, np.ndarray):
            v = line_addr.astype(np.uint64)
            row_addr = v >> np.uint64(k + p)
            vgroup = (v >> np.uint64(k)) & np.uint64(mask(p))
            line_in_gang = v & np.uint64(mask(k))
            return row_addr, vgroup, line_in_gang
        row_addr = line_addr >> (k + p)
        vgroup = (line_addr >> k) & mask(p)
        line_in_gang = line_addr & mask(k)
        return row_addr, vgroup, line_in_gang

    def _decode(self, remapped_row: int, vgroup: int, line_in_gang: int) -> Coordinate:
        """Decode the remapped global row address into a coordinate.

        The remapped row bits are consumed LSB-first as bank, rank,
        channel, then row -- xor remapping randomizes all bits, so this
        order only fixes which physical resources a given id means.
        """
        c = self.config
        bank = remapped_row & mask(c.bank_bits)
        rank = (remapped_row >> c.bank_bits) & mask(c.rank_bits)
        channel = (remapped_row >> (c.bank_bits + c.rank_bits)) & mask(c.channel_bits)
        row = remapped_row >> (c.bank_bits + c.rank_bits + c.channel_bits)
        col = (vgroup << self.k_bits) | line_in_gang
        return Coordinate(channel=channel, rank=rank, bank=bank, row=row, col=col)

    def remap_row_addr(self, row_addr: int, vgroup: int) -> int:
        """Translate one global row address within its v-group."""
        segment = row_addr & mask(self.segment_bits)
        upper = row_addr >> self.segment_bits
        engine = self.engines[self._engine_index(vgroup, segment)]
        return (engine.translate(upper) << self.segment_bits) | segment

    def translate(self, line_addr: int) -> Coordinate:
        self._check_line(line_addr)
        row_addr, vgroup, line_in_gang = self._split_fields(line_addr)
        remapped = self.remap_row_addr(row_addr, vgroup)
        return self._decode(remapped, vgroup, line_in_gang)

    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        """Translate a whole chunk in one vectorized gather pass.

        Per-access engine ids (``vgroup * segments + segment``) index
        snapshot arrays of every circuit's registers, so the chunk
        translates in a handful of elementwise passes instead of a
        ``vgroups x segments`` Python loop of masked sub-translations.
        Domain validation is one max-scan per chunk (skippable via
        ``validate=False`` when the caller already checked the window);
        the intermediate math runs in uint32 whenever the line address
        fits, halving memory traffic.  Output is bit-identical to
        per-element :meth:`translate` and to the
        :meth:`_translate_trace_loop` oracle.
        """
        lines = self._line_array(lines, validate)
        dtype = np.uint32 if self.config.line_addr_bits <= 32 else np.uint64
        dt = dtype  # numpy scalar-type constructor
        v = lines.astype(dtype, copy=False)
        k, p, sb = self.k_bits, self.p_bits, self.segment_bits
        row_addr = v >> dt(k + p)
        vgroup = (v >> dt(k)) & dt(mask(p))
        line_in_gang = v & dt(mask(k))
        if sb:
            segment = row_addr & dt(mask(sb))
            upper = row_addr >> dt(sb)
            engine_idx = (vgroup << dt(sb)) | segment
        else:
            segment = None
            upper = row_addr
            engine_idx = vgroup
        curr, nxt, ptr = snapshot_engines(self.engines, dtype=dtype)
        remapped = gather_translate(upper, engine_idx, curr, nxt, ptr)
        if sb:
            remapped = (remapped << dt(sb)) | segment
        return self._decode_trace(remapped, vgroup, line_in_gang)

    def _translate_trace_loop(
        self, lines: np.ndarray, *, validate: bool = True
    ) -> MappedTrace:
        """Pre-vectorization reference: one masked pass per remap engine.

        Never called in production: kept as the oracle of the
        equivalence property tests and as the baseline
        ``scripts/bench_hotpath.py`` measures :meth:`translate_trace`
        against.  Computes in uint64 whatever the geometry.
        """
        lines = np.asarray(lines, dtype=np.uint64)
        row_addr, vgroup, line_in_gang = self._split_fields(lines)
        remapped = np.empty_like(row_addr)
        seg_mask = np.uint64(mask(self.segment_bits))
        seg_shift = np.uint64(self.segment_bits)
        segment = row_addr & seg_mask
        upper = row_addr >> seg_shift
        for vg in range(self.vgroups):
            vg_sel = vgroup == np.uint64(vg)
            if not vg_sel.any():
                continue
            for seg in range(self.segments):
                sel = vg_sel & (segment == np.uint64(seg)) if self.segments > 1 else vg_sel
                if not sel.any():
                    continue
                engine = self.engines[self._engine_index(vg, seg)]
                remapped[sel] = (
                    engine.translate(upper[sel], validate=validate) << seg_shift
                ) | np.uint64(seg)
        return self._decode_trace(remapped, vgroup, line_in_gang)

    def _decode_trace(
        self, remapped_row: np.ndarray, vgroup: np.ndarray, line_in_gang: np.ndarray
    ) -> MappedTrace:
        c = self.config
        dt = remapped_row.dtype.type
        bank = remapped_row & dt(mask(c.bank_bits))
        row = remapped_row >> dt(c.bank_bits + c.rank_bits + c.channel_bits)
        col = (vgroup << dt(self.k_bits)) | line_in_gang
        if c.ranks == 1 and c.channels == 1:
            # Single-rank, single-channel geometries (the Table 1
            # baseline): the flat bank id IS the bank field.
            flat = bank
        else:
            rank = (remapped_row >> dt(c.bank_bits)) & dt(mask(c.rank_bits))
            channel = (remapped_row >> dt(c.bank_bits + c.rank_bits)) & dt(
                mask(c.channel_bits)
            )
            flat = (channel * dt(c.ranks) + rank) * dt(c.banks) + bank
        return MappedTrace(flat_bank=flat, row=row, col=col, rows_per_bank=c.rows_per_bank)

    # --- dynamic remapping --------------------------------------------------
    def record_activations(self, counts_per_vgroup: np.ndarray) -> int:
        """Advance remap circuits for observed activations.

        Args:
            counts_per_vgroup: Activation count attributed to each
                v-group (length ``self.vgroups``); with segments, counts
                are split evenly across a v-group's segments (the
                probabilistic trigger has no per-segment preference).

        Returns:
            Number of swap operations performed (for cost accounting).
        """
        counts = np.asarray(counts_per_vgroup, dtype=np.float64)
        if counts.shape != (self.vgroups,):
            raise ValueError(
                f"expected {self.vgroups} v-group counts, got shape {counts.shape}"
            )
        if self.remap_rate == 0.0:
            return 0
        swaps = 0
        per_engine = np.repeat(counts / self.segments, self.segments)
        self._pending_steps += per_engine * self.remap_rate
        whole = np.floor(self._pending_steps).astype(np.int64)
        self._pending_steps -= whole
        for index, steps in enumerate(whole):
            if steps > 0:
                swaps += self.engines[index].remap_steps(int(steps))
        self.total_swaps += swaps
        return swaps

    def swap_cost_commands(self) -> "dict[str, int]":
        """DRAM commands per swap at this gang size (§5.4)."""
        return {
            "activations": 3,
            "reads": 2 * self.gang_size,
            "writes": 2 * self.gang_size,
        }

    @property
    def remap_period_activations(self) -> float:
        """Activations to sweep one full v-segment (Section 5.4)."""
        space = 1 << (self.row_addr_bits - self.segment_bits)
        if self.remap_rate == 0.0:
            return float("inf")
        # A v-group sees ~1/vgroups of all activations; each episode
        # advances its pointer by one of `space` positions.
        return space / self.remap_rate


__all__ = ["RubixDMapping"]
