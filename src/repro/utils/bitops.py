"""Bit-manipulation helpers shared by mappings, ciphers, and remap engines.

All functions accept either plain Python integers or numpy integer arrays;
the array versions are what the fast trace analyzer relies on, so each
helper is careful to stay within ``uint64`` arithmetic (no Python-object
fallback) when given an ``ndarray``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

IntOrArray = Union[int, np.ndarray]


def mask(nbits: int) -> int:
    """Return an integer with the low ``nbits`` bits set.

    >>> mask(3)
    7
    >>> mask(0)
    0
    """
    if nbits < 0:
        raise ValueError(f"nbits must be non-negative, got {nbits}")
    return (1 << nbits) - 1


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def bit_length_for(count: int) -> int:
    """Number of bits needed to index ``count`` items (count must be a power of two).

    >>> bit_length_for(128)
    7
    """
    if not is_power_of_two(count):
        raise ValueError(f"count must be a power of two, got {count}")
    return count.bit_length() - 1


def extract_bits(value: IntOrArray, low: int, width: int) -> IntOrArray:
    """Extract ``width`` bits starting at bit position ``low``.

    >>> extract_bits(0b101100, 2, 3)
    3
    """
    if width < 0 or low < 0:
        raise ValueError("low and width must be non-negative")
    if isinstance(value, np.ndarray):
        return (value >> np.uint64(low)) & np.uint64(mask(width))
    return (value >> low) & mask(width)


def insert_bits(value: IntOrArray, low: int, width: int, field: IntOrArray) -> IntOrArray:
    """Return ``value`` with bits [low, low+width) replaced by ``field``.

    >>> bin(insert_bits(0b100001, 1, 3, 0b111))
    '0b101111'
    """
    if isinstance(value, np.ndarray) or isinstance(field, np.ndarray):
        hole = np.uint64(~(mask(width) << low) & mask(64))
        return (value & hole) | ((field & np.uint64(mask(width))) << np.uint64(low))
    hole = ~(mask(width) << low)
    return (value & hole) | ((field & mask(width)) << low)


def rotate_left(value: IntOrArray, shift: int, width: int) -> IntOrArray:
    """Rotate the low ``width`` bits of ``value`` left by ``shift``."""
    shift %= width
    m = mask(width)
    if isinstance(value, np.ndarray):
        value = value & np.uint64(m)
        return ((value << np.uint64(shift)) | (value >> np.uint64(width - shift))) & np.uint64(m)
    value &= m
    return ((value << shift) | (value >> (width - shift))) & m


def rotate_right(value: IntOrArray, shift: int, width: int) -> IntOrArray:
    """Rotate the low ``width`` bits of ``value`` right by ``shift``."""
    return rotate_left(value, width - (shift % width), width)


def reverse_bits(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of a Python integer.

    >>> reverse_bits(0b1101, 4)
    11
    """
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def parity(value: IntOrArray) -> IntOrArray:
    """Bit parity (xor-reduction of all bits) of ``value``; uint8 for arrays.

    Used by xor-hash bank-index functions, which compute the parity of a
    masked subset of address bits.
    """
    if isinstance(value, np.ndarray):
        return np.bitwise_count(value) & np.uint8(1)
    return bin(int(value)).count("1") & 1


__all__ = [
    "mask",
    "is_power_of_two",
    "bit_length_for",
    "extract_bits",
    "insert_bits",
    "rotate_left",
    "rotate_right",
    "reverse_bits",
    "parity",
]
