"""QuAMax variable-to-symbol transforms ``T(q)``.

Section 3.2.1 of the paper: each user's candidate symbol is represented by
``log2(|O|)`` binary QUBO variables through a *linear* transform, so that the
expansion of ``||y - H T(q)||^2`` stays quadratic:

* BPSK:   ``T(q) = 2 q_1 - 1``
* QPSK:   ``T(q) = (2 q_1 - 1) + j (2 q_2 - 1)``
* 16-QAM: ``T(q) = (4 q_1 + 2 q_2 - 3) + j (4 q_3 + 2 q_4 - 3)``
* 64-QAM: ``T(q) = (8 q_1 + 4 q_2 + 2 q_3 - 7) + j (8 q_4 + 4 q_5 + 2 q_6 - 7)``
  (the natural extension used for the qubit-count projections of Table 2).

Each transform is stored in affine form ``T(q) = offset + weights . q`` with
complex weights, which is what both the generic QUBO builder and the
closed-form Ising coefficient formulas consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ReductionError
from repro.modulation.constellation import Constellation, get_constellation
from repro.utils.validation import ensure_bit_array


@dataclass(frozen=True)
class QuamaxTransform:
    """Affine map from a user's QUBO variable group to a complex symbol.

    Attributes
    ----------
    name:
        Modulation name this transform belongs to.
    weights:
        Complex weight of each QUBO variable of the group.
    offset:
        Complex constant term.
    """

    name: str
    weights: Tuple[complex, ...]
    offset: complex
    #: The exact ``T(q)`` symbol and the Gray bits of each user code
    #: ``sum_k q_k 2^k`` (``q @ weights + offset``; ``b ^ (b >> 1)`` per
    #: axis group): a decode is one lookup per user in each.
    symbol_of_code: np.ndarray = field(init=False, repr=False, compare=False)
    gray_of_code: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = len(self.weights)
        codes = np.arange(1 << width)
        bits = ((codes[:, None] >> np.arange(width)) & 1).astype(np.uint8)
        axes = bits.reshape(codes.size, -1, max(width // 2, 1))
        gray = axes.copy()
        gray[..., 1:] ^= axes[..., :-1]
        object.__setattr__(self, "symbol_of_code",
                           bits @ np.asarray(self.weights) + self.offset)
        object.__setattr__(self, "gray_of_code", gray.reshape(bits.shape))

    @property
    def bits_per_symbol(self) -> int:
        """Number of QUBO variables (bits) per symbol."""
        return len(self.weights)

    def to_symbol(self, bits) -> complex:
        """Apply ``T`` to one group of QUBO variable values."""
        bits = ensure_bit_array(bits, length=self.bits_per_symbol)
        return complex(self.offset + np.dot(np.asarray(self.weights), bits))

    def to_symbols(self, bits) -> np.ndarray:
        """Apply ``T`` group-wise to a flat QUBO bit vector (users first)."""
        bits = ensure_bit_array(bits)
        if bits.size % self.bits_per_symbol:
            raise ReductionError(
                f"bit vector of length {bits.size} is not a multiple of "
                f"{self.bits_per_symbol}"
            )
        groups = bits.reshape(-1, self.bits_per_symbol)
        # One matvec instead of a Python loop of per-group dots; the PAM
        # weights and bits are small integers, so the arithmetic is exact
        # and the symbols are identical to the per-group path.
        return groups @ np.asarray(self.weights) + self.offset

    def mixing_matrix(self, num_users: int) -> Tuple[np.ndarray, np.ndarray]:
        """Block-diagonal affine map for *num_users* users.

        Returns ``(A, b)`` such that the stacked symbol vector is
        ``v = A q + b`` for the flat QUBO variable vector ``q`` (users
        ordered first), the form consumed by the generic QUBO builder.
        """
        if num_users <= 0:
            raise ReductionError(f"num_users must be positive, got {num_users}")
        bits = self.bits_per_symbol
        mixing = np.zeros((num_users, num_users * bits), dtype=np.complex128)
        for user in range(num_users):
            mixing[user, user * bits:(user + 1) * bits] = self.weights
        offsets = np.full(num_users, self.offset, dtype=np.complex128)
        return mixing, offsets


def _pam_weights(bits_per_axis: int) -> Tuple[float, ...]:
    """Natural-binary PAM weights, e.g. (4, 2) for a 4-level axis."""
    return tuple(float(1 << (bits_per_axis - k)) for k in range(bits_per_axis))


def _square_qam_transform(name: str, bits_per_axis: int) -> QuamaxTransform:
    axis_weights = _pam_weights(bits_per_axis)
    axis_offset = -float((1 << bits_per_axis) - 1)
    weights = tuple(w + 0j for w in axis_weights) + tuple(1j * w for w in axis_weights)
    return QuamaxTransform(name=name, weights=weights,
                           offset=axis_offset + 1j * axis_offset)


#: BPSK: one variable, symbols {-1, +1}.
BPSK_TRANSFORM = QuamaxTransform(name="BPSK", weights=(2.0 + 0j,), offset=-1.0 + 0j)

#: QPSK: two variables, symbols {+/-1 +/- 1j}.
QPSK_TRANSFORM = QuamaxTransform(name="QPSK", weights=(2.0 + 0j, 2.0j),
                                 offset=-1.0 - 1.0j)

#: 16-QAM: four variables (two per axis), natural-binary level labelling.
QAM16_TRANSFORM = _square_qam_transform("16-QAM", bits_per_axis=2)

#: 64-QAM: six variables (three per axis).
QAM64_TRANSFORM = _square_qam_transform("64-QAM", bits_per_axis=3)

_REGISTRY: Dict[str, QuamaxTransform] = {
    "BPSK": BPSK_TRANSFORM,
    "QPSK": QPSK_TRANSFORM,
    "16-QAM": QAM16_TRANSFORM,
    "64-QAM": QAM64_TRANSFORM,
}


def get_transform(constellation) -> QuamaxTransform:
    """QuAMax transform for a constellation (instance or name)."""
    if isinstance(constellation, Constellation):
        name = constellation.name
    else:
        name = get_constellation(str(constellation)).name
    if name not in _REGISTRY:
        raise ReductionError(f"no QuAMax transform registered for {name}")
    return _REGISTRY[name]
