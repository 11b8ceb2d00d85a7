"""Arbitrary-bit-width Feistel network (a keyed bijection on [0, 2^n)).

Any even number of rounds of a (possibly unbalanced) Feistel network is a
bijection regardless of the round function, which is exactly the property
an address-space randomizer needs; the ARX round function provides the
diffusion.  Both scalar integers and numpy arrays are supported; arrays
with narrow halves look the round function up in per-round tables.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.utils.bitops import mask
from repro.utils.prng import SplitMix64

IntOrArray = Union[int, np.ndarray]

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_M64 = mask(64)

#: Widest half whose round function is tabulated: 2^16 entries per round.
_TABLE_HALF_BITS = 16


def _mix64_scalar(value: int) -> int:
    value &= _M64
    value = ((value ^ (value >> 30)) * _MIX1) & _M64
    value = ((value ^ (value >> 27)) * _MIX2) & _M64
    return value ^ (value >> 31)


def _mix64_array(value: np.ndarray) -> np.ndarray:
    value = value.astype(np.uint64)
    with np.errstate(over="ignore"):
        value = (value ^ (value >> np.uint64(30))) * np.uint64(_MIX1)
        value = (value ^ (value >> np.uint64(27))) * np.uint64(_MIX2)
    return value ^ (value >> np.uint64(31))


class FeistelNetwork:
    """A Feistel PRP over ``width``-bit values.

    Round ``r`` maps ``(L, R)`` to ``(R, L ^ F_r(R))``.  If both halves
    are at most 16 bits, the first array call tabulates each ``F_r``
    (8-16K entries at the paper's 26-28-bit widths) and array rounds
    become one gather and one xor; scalars and wider halves compute
    ``F_r`` with :meth:`_round_f`.

    Args:
        width: Bit width of the domain, 1 <= width <= 63.  Width-1 domains
            degenerate to a keyed bit-flip (still a bijection).
        key: Master key; round keys are derived deterministically from it.
        rounds: Number of Feistel rounds (must be even so the half widths
            realign; default 6).
    """

    def __init__(self, width: int, key: int, rounds: int = 6) -> None:
        if not 1 <= width <= 63:
            raise ValueError(f"width must be in [1, 63], got {width}")
        if rounds < 2 or rounds % 2 != 0:
            raise ValueError(f"rounds must be even and >= 2, got {rounds}")
        self.width = width
        self.rounds = rounds
        self._left_bits = width // 2
        self._right_bits = width - self._left_bits
        rng = SplitMix64(key)
        self.round_keys: List[int] = [rng.next() for _ in range(rounds)]
        self._key_bit = key & mask(width)  # width-1 fallback
        self._tables: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    def _round_f(self, value: IntOrArray, round_key: int, out_bits: int) -> IntOrArray:
        if isinstance(value, np.ndarray):
            mixed = _mix64_array(value ^ np.uint64(round_key))
            return mixed & np.uint64(mask(out_bits))
        return _mix64_scalar(value ^ round_key) & mask(out_bits)

    def _round_tables(self) -> Optional[List[np.ndarray]]:
        """``F_r`` over each round's input half; None if a half is too wide."""
        if self._tables is None and self._right_bits <= _TABLE_HALF_BITS:
            in_bits, out_bits = self._right_bits, self._left_bits
            tables = []
            for round_key in self.round_keys:
                domain = np.arange(1 << in_bits, dtype=np.uint64)
                tables.append(self._round_f(domain, round_key, out_bits))
                in_bits, out_bits = out_bits, in_bits
            self._tables = tables
        return self._tables

    def encrypt(self, value: IntOrArray, *, validate: bool = True) -> IntOrArray:
        """Encrypt a value (or array of values) in [0, 2^width).

        ``validate=False`` skips the array path's O(n) domain scan for
        callers that already checked the chunk once (scalars are always
        validated -- the check is O(1) there).
        """
        return self._permute(value, validate, inverse=False)

    def decrypt(self, value: IntOrArray, *, validate: bool = True) -> IntOrArray:
        """Inverse of :meth:`encrypt` (``validate`` as in :meth:`encrypt`)."""
        return self._permute(value, validate, inverse=True)

    def _permute(self, value: IntOrArray, validate: bool, inverse: bool) -> IntOrArray:
        """Encryption folds ``F_r(R)`` into ``L`` and swaps the halves.

        Decryption is the same loop over the reversed rounds with the
        halves' roles exchanged; an even round count leaves the half
        widths where they started.
        """
        self._check_domain(value, validate)
        if self.width == 1:  # a keyed bit-flip
            if isinstance(value, np.ndarray):
                return value.astype(np.uint64) ^ np.uint64(self._key_bit)
            return value ^ self._key_bit
        a, b = self._left_bits, self._right_bits
        left, right = self._split(value, a, b)
        tables = self._round_tables() if isinstance(value, np.ndarray) else None
        x, y = (right, left) if inverse else (left, right)
        for r in reversed(range(self.rounds)) if inverse else range(self.rounds):
            if tables is None:
                # F's output takes L's width: a on even rounds, b on odd.
                x = x ^ self._round_f(y, self.round_keys[r], b if r % 2 else a)
            else:
                x ^= tables[r][y.view(np.int64)]
            x, y = y, x
        left, right = (y, x) if inverse else (x, y)
        return self._join(left, right, a, b)

    # ------------------------------------------------------------------
    def _check_domain(self, value: IntOrArray, validate: bool = True) -> None:
        limit = 1 << self.width
        if isinstance(value, np.ndarray):
            # The min/max scans are O(n) per call -- hot batch callers
            # validate once per chunk and pass validate=False.
            if validate and value.size and (
                int(value.max()) >= limit or int(value.min()) < 0
            ):
                raise ValueError(f"values out of [0, 2^{self.width}) domain")
        elif not 0 <= value < limit:
            raise ValueError(f"value {value} out of [0, 2^{self.width}) domain")

    @staticmethod
    def _split(value: IntOrArray, a: int, b: int) -> "tuple[IntOrArray, IntOrArray]":
        if isinstance(value, np.ndarray):
            v = value.astype(np.uint64)
            left = v >> np.uint64(b)
            left &= np.uint64(mask(a))
            return left, np.bitwise_and(v, np.uint64(mask(b)), out=v)
        return (value >> b) & mask(a), value & mask(b)

    @staticmethod
    def _join(left: IntOrArray, right: IntOrArray, a: int, b: int) -> IntOrArray:
        if isinstance(left, np.ndarray):
            # Both halves are arrays the rounds created; reuse ``left``.
            left <<= np.uint64(b)
            left |= right
            return left
        return (left << b) | right


__all__ = ["FeistelNetwork"]
