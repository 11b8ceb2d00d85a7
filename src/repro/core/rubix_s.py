"""Rubix-S: static randomized line-to-row mapping (Section 4).

On every memory access the controller encrypts the gang address with a
programmable-width cipher and accesses memory with the encrypted line
address.  The k line-in-gang bits pass through so each gang co-resides
in a row; everything above is scattered uniformly, breaking the spatial
correlation that creates hot rows.

The decode of the *encrypted* address into (channel, rank, bank, row,
col) uses a plain linear layout by default: because the encrypted bits
are uniformly random, the decode choice has no statistical effect, and
linear keeps the gang's lines adjacent in the row buffer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.crypto.kcipher import KCipher
from repro.dram.config import Coordinate, DRAMConfig
from repro.mapping.base import AddressMapping, MappedTrace
from repro.mapping.linear import LinearMapping
from repro.utils.prng import derive_key


class RubixSMapping(AddressMapping):
    """Rubix-S with a gang size of 1-4 lines (GS1/GS2/GS4 in the paper).

    Args:
        config: DRAM geometry (16 GB baseline -> 28-bit line address).
        gang_size: Lines per encrypted gang (1, 2, or 4 in the paper;
            any power of two up to the row size is accepted).
        seed: Boot-time PRNG seed the 96-bit cipher key derives from.
        rounds: Cipher rounds (even; default 6).
        base_decode: Decode applied to the encrypted address (defaults
            to :class:`~repro.mapping.linear.LinearMapping`).
    """

    def __init__(
        self,
        config: DRAMConfig,
        *,
        gang_size: int = 4,
        seed: int = 0xC0FFEE,
        rounds: int = 6,
        base_decode: Optional[AddressMapping] = None,
    ) -> None:
        super().__init__(config)
        from repro.core.gangs import GangSplitter  # local to avoid cycle in docs

        self.gang_size = gang_size
        self.splitter = GangSplitter(config.line_addr_bits, gang_size)
        key = derive_key(seed, f"rubix-s/gs{gang_size}", 96)
        self._rounds = rounds
        self.cipher = KCipher(width=self.splitter.gang_bits, key=key, rounds=rounds)
        self.decode = base_decode or LinearMapping(config)

    @property
    def name(self) -> str:
        return f"Rubix-S (GS{self.gang_size})"

    @property
    def cache_key(self) -> str:
        return f"{self.name}/key={self.cipher.key:x}/rounds={self._rounds}"

    @property
    def storage_bytes(self) -> int:
        """Controller SRAM: just the cipher key/configuration (~16 B)."""
        return self.cipher.storage_bytes

    # ------------------------------------------------------------------
    def encrypt_line(self, line_addr: int) -> int:
        """The encrypted line address actually sent to DRAM."""
        self._check_line(line_addr)
        gang, offset = self.splitter.split(line_addr)
        return self.splitter.merge(self.cipher.encrypt(gang), offset)

    def decrypt_line(self, encrypted_addr: int) -> int:
        """Invert :meth:`encrypt_line` (controller-side reverse lookup)."""
        self._check_line(encrypted_addr)
        gang, offset = self.splitter.split(encrypted_addr)
        return self.splitter.merge(self.cipher.decrypt(gang), offset)

    def translate(self, line_addr: int) -> Coordinate:
        return self.decode.translate(self.encrypt_line(line_addr))

    def translate_trace(self, lines: np.ndarray, *, validate: bool = True) -> MappedTrace:
        # One domain scan for the whole chunk; the cipher and the decode
        # stage then skip their own per-call validation (the encrypted
        # address is in range by bijectivity).
        lines = self._line_array(lines, validate)
        gang, offset = self.splitter.split(lines)
        encrypted = self.splitter.merge(self.cipher.encrypt(gang, validate=False), offset)
        return self.decode.translate_trace(encrypted, validate=False)

    def inverse(self, coord: Coordinate) -> int:
        return self.decrypt_line(self.decode.inverse(coord))


__all__ = ["RubixSMapping"]
