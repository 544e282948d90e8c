"""Generic ML-to-QUBO reduction by direct norm expansion.

Given the affine symbol transform ``v = A q + b`` (block diagonal across
users) the ML objective becomes::

    ||y - H v||^2 = ||r - G q||^2          with r = y - H b,  G = H A
                  = q^T Re(G^H G) q - 2 Re(r^H G) q + ||r||^2

and because ``q_i^2 = q_i`` for binary variables the diagonal of the
quadratic term folds into the linear term, yielding an exact QUBO whose
minimiser is the ML solution (Eq. 5 of the paper).  This path is the
reference implementation: the closed-form coefficient formulas of
:mod:`repro.transform.ising_coeffs` are validated against it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ReductionError
from repro.ising.model import QUBOModel
from repro.transform.symbols import QuamaxTransform, get_transform
from repro.utils.validation import ensure_complex_matrix, ensure_complex_vector


def build_ml_qubo(channel, received, constellation) -> QUBOModel:
    """Build the exact QUBO of the ML detection problem.

    Parameters
    ----------
    channel:
        Complex channel matrix ``H`` (``N_r x N_t``).
    received:
        Complex received vector ``y`` (length ``N_r``).
    constellation:
        Constellation instance or name; selects the QuAMax transform.

    Returns
    -------
    QUBOModel
        QUBO over ``N_t * log2(|O|)`` binary variables, users ordered first,
        whose offset, the constant ``||y - H b||^2`` term, makes its
        energies equal ML Euclidean metrics exactly.
    """
    channel = ensure_complex_matrix("channel", channel)
    received = ensure_complex_vector("received", received, length=channel.shape[0])
    transform = get_transform(constellation)
    num_users = channel.shape[1]

    mixing, offsets = transform.mixing_matrix(num_users)
    effective = channel @ mixing                      # G = H A
    residual = received - channel @ offsets           # r = y - H b

    gram = effective.conj().T @ effective             # G^H G (Hermitian)
    linear_full = -2.0 * np.real(residual.conj() @ effective)
    constant = float(np.real(np.vdot(residual, residual)))

    num_variables = mixing.shape[1]
    terms: Dict[Tuple[int, int], float] = {}
    for i in range(num_variables):
        diagonal = float(np.real(gram[i, i]))
        value = linear_full[i] + diagonal
        if value != 0.0:
            terms[(i, i)] = value
        for j in range(i + 1, num_variables):
            coupling = 2.0 * float(np.real(gram[i, j]))
            if coupling != 0.0:
                terms[(i, j)] = coupling

    return QUBOModel(num_variables=num_variables, terms=terms, offset=constant)


def ml_metric_of_symbols(channel: np.ndarray, received: np.ndarray,
                         symbols: np.ndarray) -> float:
    """Euclidean ML metric ``||y - H v||^2`` of a symbol vector."""
    residual = received - channel @ symbols
    return float(np.real(np.vdot(residual, residual)))


def ml_metric_from_bits(channel, received, constellation, bits) -> float:
    """Euclidean ML metric ``||y - H T(q)||^2`` of a QUBO bit assignment.

    This is the bridge used by tests to confirm that QUBO energies (with the
    constant offset included) equal ML metrics exactly.
    """
    channel = ensure_complex_matrix("channel", channel)
    received = ensure_complex_vector("received", received, length=channel.shape[0])
    transform = get_transform(constellation)
    symbols = transform.to_symbols(bits)
    if symbols.size != channel.shape[1]:
        raise ReductionError(
            f"bit vector describes {symbols.size} users, channel has "
            f"{channel.shape[1]} columns"
        )
    return ml_metric_of_symbols(channel, received, symbols)
