"""Address-mapping interface and the bit-field decode engine.

A mapping translates a line address (e.g. 28 bits for the 16 GB baseline)
into a DRAM coordinate ``(channel, rank, bank, row, col)``.  Most real
controller mappings -- including every baseline in the paper -- are pure
bit-selection plus an xor hash on the bank bits, so the common machinery
here is :class:`FieldDecodeMapping`: each coordinate field names the
source address bits it is assembled from, and the bank field may be
xor-hashed with row bits.  Translation is vectorized over numpy arrays
for the fast analysis tier.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dram.config import Coordinate, DRAMConfig
from repro.utils.bitops import mask, parity

FIELD_ORDER = ("channel", "rank", "bank", "row", "col")


def _bit_runs(bits: Sequence[int]) -> List[List[int]]:
    """``[src, dst, width]`` runs: field bits ``dst..`` are address bits ``src..``.

    Wherever consecutive field bits take consecutive address bits, one
    shift and mask moves the whole stretch, as litex's
    ``DRAMAddressConverter`` does for its contiguous fields.

    >>> _bit_runs([0, 1, 9, 2, 3, 4])
    [[0, 0, 2], [9, 2, 1], [2, 3, 3]]
    """
    runs: List[List[int]] = []
    for dst, src in enumerate(bits):
        if runs and runs[-1][0] + runs[-1][2] == src:
            runs[-1][2] += 1
        else:
            runs.append([src, dst, 1])
    return runs


@dataclass
class MappedTrace:
    """A trace translated to physical coordinates (vectorized form)."""

    flat_bank: np.ndarray
    row: np.ndarray
    col: np.ndarray
    rows_per_bank: int

    @property
    def global_row(self) -> np.ndarray:
        """Global physical row id per access."""
        return self.flat_bank.astype(np.int64) * np.int64(self.rows_per_bank) + self.row.astype(
            np.int64
        )

    def __len__(self) -> int:
        return int(self.flat_bank.size)

    def split_flat_bank(
        self, config: DRAMConfig
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Decompose flat bank ids into (channel, rank, bank) arrays.

        Inverts ``flat = (channel * ranks + rank) * banks + bank`` for
        the given geometry.
        """
        flat = self.flat_bank.astype(np.int64)
        bank = flat % config.banks
        rest = flat // config.banks
        rank = rest % config.ranks
        channel = rest // config.ranks
        return channel, rank, bank

    def iter_coordinates(self, config: DRAMConfig):
        """Yield one :class:`Coordinate` per access, in program order.

        Lets per-request consumers (the command-level protocol engine)
        ride a single vectorized ``translate_trace`` pass instead of
        calling ``mapping.translate`` once per line.
        """
        channel, rank, bank = self.split_flat_bank(config)
        rows = self.row.astype(np.int64)
        cols = self.col.astype(np.int64)
        for coord in zip(
            channel.tolist(), rank.tolist(), bank.tolist(), rows.tolist(), cols.tolist()
        ):
            yield Coordinate(*coord)


class AddressMapping(abc.ABC):
    """Translates line addresses to DRAM coordinates."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config

    @property
    def name(self) -> str:
        """Human-readable mapping name (used in experiment output)."""
        return type(self).__name__.replace("Mapping", "")

    @property
    def cache_key(self) -> str:
        """Key identifying this mapping's *behaviour* for result caches.

        Mappings whose translation depends on more than the class (keys,
        rates, seeds) must extend this so differently-configured
        instances never share cached statistics.
        """
        return self.name

    @abc.abstractmethod
    def translate(self, line_addr: int) -> Coordinate:
        """Translate one line address."""

    @abc.abstractmethod
    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        """Translate a whole trace (vectorized).

        ``validate`` bounds-checks the chunk once (a single max scan);
        callers that already validated the window -- e.g. the simulator,
        which checks once and then feeds chunks -- pass ``False`` so the
        hot path does no per-chunk scans at all.
        """

    def inverse(self, coord: Coordinate) -> int:
        """Translate a coordinate back to its line address.

        Optional; mappings that support it override.  Used by tests to
        verify bijectivity and by migration bookkeeping.
        """
        raise NotImplementedError(f"{self.name} does not implement inverse()")

    def _line_array(self, lines: np.ndarray, validate: bool) -> np.ndarray:
        """``lines`` as uint64, range-checked by one max scan if ``validate``."""
        lines = np.asarray(lines, dtype=np.uint64)
        if validate and lines.size and int(lines.max()) >= self.config.total_lines:
            raise ValueError(
                f"line addresses exceed the {self.config.capacity_bytes} byte memory"
            )
        return lines

    def _check_line(self, line_addr: int) -> None:
        if not 0 <= line_addr < self.config.total_lines:
            raise ValueError(
                f"line address {line_addr:#x} out of range for "
                f"{self.config.capacity_bytes} byte memory"
            )


class FieldDecodeMapping(AddressMapping):
    """Mapping defined by per-field source-bit lists plus a bank xor-hash.

    Args:
        config: DRAM geometry.
        field_bits: For each coordinate field, the address bit positions
            (LSB first) that assemble the field.  Every address bit must
            be used exactly once across all fields.
        bank_hash_row_bits: Row-relative bit positions xored into the bank
            field (per bank bit, a list of row bits folded by parity), or
            None for no hashing.
    """

    def __init__(
        self,
        config: DRAMConfig,
        field_bits: Dict[str, Sequence[int]],
        *,
        bank_hash_row_bits: Optional[List[List[int]]] = None,
    ) -> None:
        super().__init__(config)
        self._validate_spec(field_bits)
        self.field_bits = {k: list(v) for k, v in field_bits.items()}
        if bank_hash_row_bits is not None and len(bank_hash_row_bits) != config.bank_bits:
            raise ValueError(
                f"bank_hash_row_bits must have {config.bank_bits} entries, "
                f"got {len(bank_hash_row_bits)}"
            )
        self.bank_hash_row_bits = bank_hash_row_bits
        # Geometry counts are powers of two, so the flat bank id is the
        # bank, rank and channel bits concatenated: one gathered field.
        fb = self.field_bits
        self._flat_runs = _bit_runs(fb["bank"] + fb["rank"] + fb["channel"])
        self._row_runs = _bit_runs(fb["row"])
        self._col_runs = _bit_runs(fb["col"])
        # Bank hash bit i is the parity of the row bits under mask i (a
        # row bit listed twice cancels, as in the xor fold).
        self._hash_masks = [
            reduce(xor, (1 << rb for rb in row_bits), 0) & mask(config.row_bits)
            for row_bits in bank_hash_row_bits or []
        ]

    # ------------------------------------------------------------------
    def _validate_spec(self, field_bits: Dict[str, Sequence[int]]) -> None:
        widths = {field: getattr(self.config, f"{field}_bits") for field in FIELD_ORDER}
        used: List[int] = []
        for field in FIELD_ORDER:
            bits = list(field_bits.get(field, []))
            if len(bits) != widths[field]:
                raise ValueError(
                    f"field '{field}' needs {widths[field]} source bits, got {len(bits)}"
                )
            used.extend(bits)
        total = self.config.line_addr_bits
        if sorted(used) != list(range(total)):
            raise ValueError(
                f"field spec must use each of the {total} address bits exactly once"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _gather_field(lines: np.ndarray, runs: List[List[int]]) -> np.ndarray:
        """Assemble one field with one shift and one mask per bit run."""
        out = None
        for src, dst, width in runs:
            part = lines >> np.uint64(src)
            part &= np.uint64(mask(width))
            if dst:
                part <<= np.uint64(dst)
            if out is None:
                out = part
            else:
                out |= part
        return np.zeros(lines.shape, dtype=np.uint64) if out is None else out

    def _bank_hash(self, row: np.ndarray) -> np.ndarray:
        """Per-access bank hash: bit ``i`` is the parity of ``row & mask_i``."""
        hashed = np.zeros(row.shape, dtype=np.min_scalar_type(self.config.banks - 1))
        masked = np.empty_like(row)
        for bit, row_mask in enumerate(self._hash_masks):
            np.bitwise_and(row, np.uint64(row_mask), out=masked)
            hashed |= parity(masked).astype(hashed.dtype, copy=False) << bit
        return hashed

    def _hash_bank(self, bank: int, row: int) -> int:
        for bit_index, row_bits in enumerate(self.bank_hash_row_bits or []):
            for rb in row_bits:
                bank ^= ((row >> rb) & 1) << bit_index
        return bank

    # ------------------------------------------------------------------
    def translate(self, line_addr: int) -> Coordinate:
        self._check_line(line_addr)
        values = {}
        for field in FIELD_ORDER:
            bits = self.field_bits[field]
            value = 0
            for i, src in enumerate(bits):
                value |= ((line_addr >> src) & 1) << i
            values[field] = value
        values["bank"] = self._hash_bank(values["bank"], values["row"])
        return Coordinate(**values)

    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        lines = self._line_array(lines, validate)
        flat = self._gather_field(lines, self._flat_runs)
        row = self._gather_field(lines, self._row_runs)
        col = self._gather_field(lines, self._col_runs)
        if self._hash_masks:
            flat ^= self._bank_hash(row)
        return MappedTrace(flat_bank=flat, row=row, col=col, rows_per_bank=self.config.rows_per_bank)

    def inverse(self, coord: Coordinate) -> int:
        self.config.validate_coordinate(coord)
        # Undo the bank hash first (xor is self-inverse given the row).
        bank_field = self._hash_bank(coord.bank, coord.row)
        values = {
            "channel": coord.channel,
            "rank": coord.rank,
            "bank": bank_field,
            "row": coord.row,
            "col": coord.col,
        }
        line = 0
        for field in FIELD_ORDER:
            value = values[field]
            for i, src in enumerate(self.field_bits[field]):
                line |= ((value >> i) & 1) << src
        return line


def fields_from_segments(
    config: DRAMConfig, segments: Sequence["tuple[str, int]"]
) -> Dict[str, List[int]]:
    """Build a field-bit spec from LSB-to-MSB (field, width) segments.

    Real mappings interleave fields (e.g. Skylake's bank bit sits between
    column bits); describing the layout as consecutive segments keeps each
    mapping definition readable.  Zero-width segments are allowed so one
    description covers single- and multi-channel geometries.

    >>> cfg = DRAMConfig()
    >>> spec = fields_from_segments(cfg, [("col", 7), ("bank", 4),
    ...                                   ("rank", 0), ("channel", 0), ("row", 17)])
    >>> spec["col"]
    [0, 1, 2, 3, 4, 5, 6]
    """
    fields: Dict[str, List[int]] = {name: [] for name in FIELD_ORDER}
    cursor = 0
    for name, width in segments:
        if name not in fields:
            raise ValueError(f"unknown field '{name}'")
        if width < 0:
            raise ValueError(f"segment width must be non-negative, got {width}")
        fields[name].extend(range(cursor, cursor + width))
        cursor += width
    if cursor != config.line_addr_bits:
        raise ValueError(
            f"segments cover {cursor} bits, address has {config.line_addr_bits}"
        )
    return fields


def default_bank_hash(config: DRAMConfig) -> List[List[int]]:
    """The xor-based bank hash used by the Intel-style mappings.

    Each bank bit is xored with the parity of a strided subset of row
    bits, decorrelating bank conflicts from row strides (the 'xor-based
    hashed mapping for bank selection' of Section 2.3).
    """
    return [
        [rb for rb in range(bit, config.row_bits, config.bank_bits)]
        for bit in range(config.bank_bits)
    ]


__all__ = [
    "AddressMapping",
    "FieldDecodeMapping",
    "MappedTrace",
    "FIELD_ORDER",
    "fields_from_segments",
    "default_bank_hash",
]
