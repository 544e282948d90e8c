"""Constellation definitions used by transmitters and classical detectors.

All constellations use the Gray-coded bit-to-symbol mapping a real
transmitter would use (Fig. 2(d) of the paper).  Symbol amplitudes are the
paper's unnormalised lattice values (BPSK: +/-1, QPSK: +/-1 +/- 1j,
16-QAM: odd-integer lattice), with :attr:`Constellation.average_energy`
available for SNR normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.exceptions import ModulationError
from repro.modulation.gray import bits_from_int, bits_to_int, pam_gray_levels
from repro.utils.validation import ensure_bit_array


@dataclass(frozen=True)
class Constellation:
    """A Gray-labelled complex constellation.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"QPSK"``.
    bits_per_symbol:
        Number of bits carried by one constellation point (``Q`` in the paper).
    points:
        Complex symbol values indexed by the integer value of their
        (big-endian) bit label.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray
    _index: Dict[complex, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.complex128)
        expected = 1 << self.bits_per_symbol
        if points.size != expected:
            raise ModulationError(
                f"{self.name}: expected {expected} points for "
                f"{self.bits_per_symbol} bits/symbol, got {points.size}"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(
            self, "_index", {complex(p): i for i, p in enumerate(points)}
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of constellation points, ``|O|``."""
        return int(self.points.size)

    @property
    def average_energy(self) -> float:
        """Mean squared magnitude of the constellation points."""
        return float(np.mean(np.abs(self.points) ** 2))

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #
    def bits_to_symbol(self, bits) -> complex:
        """Map a length-``bits_per_symbol`` bit vector to a symbol."""
        bits = ensure_bit_array(bits, length=self.bits_per_symbol)
        return complex(self.points[bits_to_int(bits)])

    def symbol_to_bits(self, symbol: complex) -> np.ndarray:
        """Map a constellation point back to its bit label (exact match)."""
        key = complex(symbol)
        if key not in self._index:
            raise ModulationError(f"{symbol!r} is not a point of {self.name}")
        return bits_from_int(self._index[key], self.bits_per_symbol)

    def hard_decision(self, received: complex) -> complex:
        """Return the constellation point nearest to *received*."""
        distances = np.abs(self.points - complex(received))
        return complex(self.points[int(np.argmin(distances))])

    def demodulate(self, symbols) -> np.ndarray:
        """Hard-demap a symbol vector back into a flat bit stream."""
        symbols = np.asarray(symbols, dtype=np.complex128).ravel()
        bits = [self.symbol_to_bits(self.hard_decision(s)) for s in symbols]
        if not bits:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(bits)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return self.size


def _square_qam(name: str, bits_per_axis: int) -> Constellation:
    """Build a Gray-coded square QAM constellation.

    The bit label of a point is the concatenation of the Gray label of its
    in-phase (I) amplitude followed by the Gray label of its quadrature (Q)
    amplitude, matching the paper's Fig. 2(d) layout for 16-QAM.
    """
    levels = pam_gray_levels(bits_per_axis)
    n_levels = levels.size
    bits_per_symbol = 2 * bits_per_axis
    points = np.empty(1 << bits_per_symbol, dtype=np.complex128)
    for i_label in range(n_levels):
        for q_label in range(n_levels):
            label = (i_label << bits_per_axis) | q_label
            points[label] = levels[i_label] + 1j * levels[q_label]
    return Constellation(name=name, bits_per_symbol=bits_per_symbol, points=points)


#: Binary phase shift keying: one bit per symbol, symbols {-1, +1}.
BPSK = Constellation(name="BPSK", bits_per_symbol=1,
                     points=np.array([-1.0 + 0j, 1.0 + 0j]))

#: Quadrature phase shift keying: two bits per symbol, symbols {+/-1 +/- 1j}.
#: The first bit maps to the I component, the second to the Q component
#: (0 -> -1, 1 -> +1), which is trivially Gray because each axis is binary.
QPSK = Constellation(
    name="QPSK",
    bits_per_symbol=2,
    points=np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j], dtype=np.complex128),
)

#: Gray-coded 16-QAM on the odd-integer lattice {+/-1, +/-3}^2.
QAM16 = _square_qam("16-QAM", bits_per_axis=2)

#: Gray-coded 64-QAM on the odd-integer lattice {+/-1, ..., +/-7}^2.
QAM64 = _square_qam("64-QAM", bits_per_axis=3)

_REGISTRY: Dict[str, Constellation] = {
    "bpsk": BPSK,
    "qpsk": QPSK,
    "16qam": QAM16,
    "16-qam": QAM16,
    "qam16": QAM16,
    "64qam": QAM64,
    "64-qam": QAM64,
    "qam64": QAM64,
}


def get_constellation(name: str) -> Constellation:
    """Look up a constellation by (case-insensitive) name.

    Accepts ``"BPSK"``, ``"QPSK"``, ``"16-QAM"``/``"16QAM"``/``"QAM16"`` and
    the 64-QAM equivalents.
    """
    key = name.strip().lower().replace(" ", "")
    if key not in _REGISTRY:
        valid = sorted({c.name for c in _REGISTRY.values()})
        raise ModulationError(f"unknown constellation {name!r}; valid names: {valid}")
    return _REGISTRY[key]
