"""Per-user bit/symbol mapping for the multi-user MIMO uplink.

A :class:`SymbolMapper` handles the bookkeeping of splitting a multi-user bit
block into per-user groups and modulating each user's bits onto one
constellation point per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModulationError
from repro.modulation.constellation import Constellation
from repro.utils.validation import ensure_bit_array


@dataclass(frozen=True)
class SymbolMapper:
    """Maps a block of bits from ``num_users`` users onto a symbol vector.

    For a single channel use, user *i* contributes ``bits_per_symbol``
    consecutive bits of the block (users ordered first), exactly mirroring the
    QUBO variable layout of the QuAMax reduction so that decoded QUBO
    variables line up with transmitted bits.
    """

    constellation: Constellation
    num_users: int

    def __post_init__(self) -> None:
        if self.num_users <= 0:
            raise ModulationError(f"num_users must be positive, got {self.num_users}")
        # A user's bits, big-endian, dotted with these are its point's label.
        width = self.constellation.bits_per_symbol
        object.__setattr__(self, "_place_values",
                           1 << np.arange(width - 1, -1, -1))

    @property
    def bits_per_channel_use(self) -> int:
        """Total number of bits carried by one channel use across all users."""
        return self.num_users * self.constellation.bits_per_symbol

    def map_bits(self, bits) -> np.ndarray:
        """Map one channel use worth of bits to the transmitted symbol vector."""
        return self.symbols_of(
            ensure_bit_array(bits, length=self.bits_per_channel_use))

    def symbols_of(self, bits: np.ndarray) -> np.ndarray:
        """:meth:`map_bits` for bits already validated (1-D ``uint8`` 0/1,
        :attr:`bits_per_channel_use` of them): one table lookup."""
        return self.constellation.points[
            bits.reshape(self.num_users, -1) @ self._place_values]

    def random_bits(self, rng: np.random.Generator, num_channel_uses: int = 1) -> np.ndarray:
        """Draw uniformly random payload bits for *num_channel_uses* channel uses."""
        if num_channel_uses <= 0:
            raise ModulationError(
                f"num_channel_uses must be positive, got {num_channel_uses}"
            )
        return rng.integers(
            0, 2, size=num_channel_uses * self.bits_per_channel_use
        ).astype(np.uint8)
