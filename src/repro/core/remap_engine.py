"""Xor-based dynamic remap engine (Section 5.1, Figure 10).

One engine remaps an n-bit address space with three registers:

* ``currKey`` -- the key fully-remapped addresses use,
* ``nextKey`` -- the incremental xor the current sweep is applying,
* ``Ptr``    -- sweep position: physical locations below Ptr have already
  been remapped to the next key.

Translation of logical address L (two checks, one cycle in hardware):

1. ``L' = L xor currKey``
2. if ``L' < Ptr`` or ``(L' xor nextKey) < Ptr``: ``L' = L' xor nextKey``

A remap episode swaps the contents of physical location ``Ptr`` with
``Ptr xor nextKey`` (skipped when that partner was already visited, i.e.
``Ptr xor nextKey < Ptr``), then increments Ptr.  When Ptr wraps, the
epoch ends: ``currKey <- currKey xor nextKey`` and a fresh nextKey is
drawn -- exactly the walk shown in Figure 10.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.crypto.keys import KeySchedule

IntOrArray = Union[int, np.ndarray]


class RemapSnapshot(NamedTuple):
    """The three architectural registers of one remap circuit."""

    curr_key: int
    next_key: int
    ptr: int


def snapshot_engines(
    engines: Sequence["XorRemapEngine"], dtype=np.uint64
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Stack the registers of many engines into gatherable arrays.

    Returns ``(curr_keys, next_keys, ptrs)``, each of length
    ``len(engines)`` in the given dtype -- the lookup tables
    :func:`gather_translate` indexes with a per-access engine id.
    """
    curr = np.fromiter((e.keys.curr_key for e in engines), dtype, count=len(engines))
    nxt = np.fromiter((e.keys.next_key for e in engines), dtype, count=len(engines))
    ptr = np.fromiter((e.ptr for e in engines), dtype, count=len(engines))
    return curr, nxt, ptr


def gather_translate(
    addr: np.ndarray,
    engine_idx: np.ndarray,
    curr_keys: np.ndarray,
    next_keys: np.ndarray,
    ptrs: np.ndarray,
) -> np.ndarray:
    """Translate a whole chunk through many engines in one pass.

    ``engine_idx`` selects each access's remap circuit; the circuit
    registers are gathered from the snapshot arrays and the two-check
    translation of :meth:`XorRemapEngine.translate` is applied to every
    element at once.  Domain validation is the caller's job (one check
    per chunk, not per engine -- see ``RubixDMapping.translate_trace``).
    """
    curr = curr_keys[engine_idx]
    nxt = next_keys[engine_idx]
    ptr = ptrs[engine_idx]
    translated = addr ^ curr
    partner = translated ^ nxt
    remapped = (translated < ptr) | (partner < ptr)
    return np.where(remapped, partner, translated)


class XorRemapEngine:
    """Remap circuit for one vertical group (or segment) of Rubix-D."""

    def __init__(self, nbits: int, seed: int) -> None:
        if nbits < 1:
            raise ValueError(f"nbits must be >= 1, got {nbits}")
        self.nbits = nbits
        self.space = 1 << nbits
        self.keys = KeySchedule(nbits=nbits, seed=seed)
        self.ptr = 0
        self.swaps_performed = 0
        self.swaps_skipped = 0
        self.epochs_completed = 0

    # ------------------------------------------------------------------
    @property
    def curr_key(self) -> int:
        return self.keys.curr_key

    @property
    def next_key(self) -> int:
        return self.keys.next_key

    @property
    def storage_bytes(self) -> int:
        """SRAM for currKey + nextKey + Ptr (<= 8 B per circuit, §5.3)."""
        return 3 * ((self.nbits + 7) // 8)

    def snapshot(self) -> RemapSnapshot:
        """The circuit's architectural state (currKey, nextKey, Ptr)."""
        return RemapSnapshot(self.keys.curr_key, self.keys.next_key, self.ptr)

    # ------------------------------------------------------------------
    def translate(self, addr: IntOrArray, *, validate: bool = True) -> IntOrArray:
        """Logical -> physical translation under the in-progress sweep.

        Args:
            addr: Address or array of addresses in ``[0, 2^nbits)``.
            validate: Check the array path's domain (an O(n) max scan).
                Batch callers that already validated the chunk once pass
                ``False`` so hot loops stop paying per-engine scans; the
                scalar path always validates (it is O(1)).
        """
        if isinstance(addr, np.ndarray):
            v = addr.astype(np.uint64)
            if validate and v.size and int(v.max()) >= self.space:
                raise ValueError(f"address out of [0, 2^{self.nbits}) domain")
            curr = np.uint64(self.keys.curr_key)
            nxt = np.uint64(self.keys.next_key)
            ptr = np.uint64(self.ptr)
            translated = v ^ curr
            remapped = (translated < ptr) | ((translated ^ nxt) < ptr)
            return np.where(remapped, translated ^ nxt, translated)
        if not 0 <= addr < self.space:
            raise ValueError(f"address {addr} out of [0, 2^{self.nbits}) domain")
        translated = addr ^ self.keys.curr_key
        if translated < self.ptr or (translated ^ self.keys.next_key) < self.ptr:
            translated ^= self.keys.next_key
        return translated

    def remap_step(self) -> bool:
        """Perform one remap episode; returns True if a swap occurred.

        A swap moves the gang at physical location Ptr to Ptr xor nextKey
        (and vice versa); the caller charges the data-movement cost
        (3 ACTs + 2x gang-size CAS reads and writes at GS4, §5.4).
        """
        partner = self.ptr ^ self.keys.next_key
        swapped = partner > self.ptr
        if swapped:
            self.swaps_performed += 1
        else:
            self.swaps_skipped += 1
        self.ptr += 1
        if self.ptr == self.space:
            self.keys.advance_epoch()
            self.ptr = 0
            self.epochs_completed += 1
        return swapped

    def remap_steps(self, count: int) -> int:
        """Perform ``count`` episodes; returns the number of actual swaps.

        Closed form instead of walking episodes one by one: within an
        epoch the key is fixed, and position ``p`` swaps iff its partner
        ``p ^ nextKey`` is above it -- i.e. iff bit ``msb(nextKey)`` of
        ``p`` is clear, since xor-ing flips exactly nextKey's bits and
        the highest flipped bit decides the comparison.  The number of
        such positions in ``[Ptr, Ptr+take)`` is a two-term bit-count
        formula, so a call costs O(epochs crossed) regardless of count
        (the 1%-of-activations sweep used to pay a Python loop per
        episode on large windows).  Epoch wrap-around is exact: keys
        rotate and the pointer resets mid-count just as the stepwise
        walk would; :meth:`_remap_steps_loop` is the stepwise oracle.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        total = 0
        remaining = count
        while remaining > 0:
            take = min(remaining, self.space - self.ptr)
            swapped = _swaps_in_range(self.ptr, self.ptr + take, self.keys.next_key)
            self.swaps_performed += swapped
            self.swaps_skipped += take - swapped
            self.ptr += take
            total += swapped
            remaining -= take
            if self.ptr == self.space:
                self.keys.advance_epoch()
                self.ptr = 0
                self.epochs_completed += 1
        return total

    def _remap_steps_loop(self, count: int) -> int:
        """Stepwise oracle for :meth:`remap_steps` (tests/benchmarks).

        Walks ``count`` episodes through :meth:`remap_step` exactly as
        the pre-closed-form implementation did; counters, pointer, and
        the key schedule end in the same state as :meth:`remap_steps`.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return sum(1 for _ in range(count) if self.remap_step())

    # ------------------------------------------------------------------
    def physical_layout(self) -> np.ndarray:
        """Full logical->physical table (tests/small spaces only)."""
        if self.nbits > 20:
            raise ValueError("layout dump limited to 20-bit spaces")
        return np.asarray(
            self.translate(np.arange(self.space, dtype=np.uint64)), dtype=np.uint64
        )

    def __repr__(self) -> str:
        return (
            f"XorRemapEngine(nbits={self.nbits}, curr={self.curr_key:#x}, "
            f"next={self.next_key:#x}, ptr={self.ptr})"
        )


def _swaps_in_range(lo: int, hi: int, next_key: int) -> int:
    """Count positions ``p`` in ``[lo, hi)`` with ``p ^ next_key > p``.

    That holds iff bit ``h = msb(next_key)`` of ``p`` is clear.  Counting
    integers below ``m`` with bit ``h`` clear is ``2^h`` per full
    ``2^(h+1)`` period plus a clamped remainder; the range count is the
    difference of two such prefix counts.  ``next_key`` is nonzero by
    construction (:class:`~repro.crypto.keys.KeySchedule` redraws zero).
    """
    h = next_key.bit_length() - 1
    half = 1 << h
    period = half << 1

    def below(m: int) -> int:
        return (m >> (h + 1)) * half + min(m & (period - 1), half)

    return below(hi) - below(lo)


__all__ = [
    "XorRemapEngine",
    "RemapSnapshot",
    "snapshot_engines",
    "gather_translate",
]
