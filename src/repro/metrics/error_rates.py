"""Bit error counting."""

from __future__ import annotations

import numpy as np

from repro.exceptions import MetricsError
from repro.utils.validation import ensure_bit_array


def bit_errors(reference_bits, decoded_bits) -> int:
    """Number of positions at which the decoded bits differ from the reference."""
    reference = ensure_bit_array(reference_bits)
    decoded = ensure_bit_array(decoded_bits)
    if reference.size != decoded.size:
        raise MetricsError(
            f"bit vectors must have equal length, got {reference.size} and "
            f"{decoded.size}"
        )
    return int(np.count_nonzero(reference != decoded))


def bit_error_rate(reference_bits, decoded_bits) -> float:
    """Fraction of erroneous bits."""
    reference = ensure_bit_array(reference_bits)
    if reference.size == 0:
        return 0.0
    return bit_errors(reference_bits, decoded_bits) / reference.size
