"""Closed-form Ising coefficients of the ML detection problem.

Section 3.2.2 of the paper derives, for each modulation, direct expressions
for the Ising fields ``f_i(H, y)`` and couplings ``g_ij(H)`` (Eqs. 6-8 for
BPSK/QPSK and Appendix C for 16-QAM), so that a receiver can program the
annealer straight from the channel estimate and the received vector without
expanding the ML norm symbolically.

The implementation below evaluates those formulas in their generalised form.
Writing the QuAMax transform of variable *i* (belonging to user ``u(i)``) in
spin coordinates as ``m_i = w_i / 2`` (half the QUBO weight, possibly
imaginary for Q-axis variables), the paper's per-modulation case analyses all
collapse to::

    f_i  = -2 Re[ m_i * conj( (H^H y)_{u(i)} ) ]
    g_ij =  2 Re[ conj(m_i) * (H^H H)_{u(i) u(j)} * m_j ]        (i < j)

which reproduces Eq. 6 for BPSK (``m = 1``), Eq. 7/8 for QPSK
(``m in {1, j}``) and Eq. 13/14 for 16-QAM (``m in {2, 1, 2j, 1j}``)
term by term.  The only deliberate deviation is the Appendix C entry for the
pair ``(i = 4n, j = 4n' - 2)``, where the published coefficient pair (2, -4)
breaks the symmetry of every other case and is inconsistent with the norm
expansion; the symmetric value (2, -2) is used, and the equivalence with the
brute-force reduction is enforced by the test suite.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ising.model import IsingModel
from repro.transform.symbols import get_transform
from repro.utils.validation import ensure_complex_matrix, ensure_complex_vector


def spin_weights(constellation, num_users: int) -> np.ndarray:
    """Per-variable complex spin weights ``m_i = w_i / 2`` (users first)."""
    transform = get_transform(constellation)
    per_user = np.asarray(transform.weights, dtype=np.complex128) / 2.0
    return np.tile(per_user, num_users)


#: Per-structure constants of :func:`build_ml_ising`, rebuilt identically on
#: every call before: ``(transform name, users) -> (weights, conj(weights),
#: |weights|^2, user_of, gram gather index, upper-triangle pairs)``.
_STRUCTURE_CACHE: Dict[Tuple[str, int], tuple] = {}
#: ``(variables, nonzero mask bytes) -> key tuple``: problems of one
#: sparsity pattern share one key tuple object.
_KEYS_CACHE: Dict[Tuple[int, bytes], Tuple[Tuple[int, int], ...]] = {}


def _structure(transform, num_users: int) -> tuple:
    key = (transform.name, num_users)
    structure = _STRUCTURE_CACHE.get(key)
    if structure is None:
        weights = spin_weights(transform.name, num_users)
        user_of = np.repeat(np.arange(num_users), transform.bits_per_symbol)
        structure = (weights, np.conj(weights), np.abs(weights) ** 2,
                     user_of, np.ix_(user_of, user_of),
                     np.triu_indices(weights.size, k=1))
        _STRUCTURE_CACHE[key] = structure
    return structure


def _pair_keys(upper_i: np.ndarray, upper_j: np.ndarray,
               nonzero: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    cache_key = (upper_i.size, nonzero.tobytes())
    keys = _KEYS_CACHE.get(cache_key)
    if keys is None:
        keys = tuple(zip(upper_i[nonzero].tolist(), upper_j[nonzero].tolist()))
        if len(_KEYS_CACHE) > 512:
            _KEYS_CACHE.clear()
        _KEYS_CACHE[cache_key] = keys
    return keys


def build_ml_ising(channel, received, constellation,
                   include_offset: bool = True) -> IsingModel:
    """Build the ML detection Ising problem directly from ``H`` and ``y``.

    Parameters
    ----------
    channel:
        Complex channel matrix ``H`` (``N_r x N_t``).
    received:
        Complex received vector ``y``.
    constellation:
        Constellation instance or name.
    include_offset:
        Include the constant term so that Ising energies equal ML Euclidean
        metrics exactly.

    Returns
    -------
    IsingModel
        Ising problem over ``N_t * log2(|O|)`` spin variables whose ground
        state is the ML solution.
    """
    channel = ensure_complex_matrix("channel", channel)
    received = ensure_complex_vector("received", received, length=channel.shape[0])
    transform = get_transform(constellation)
    (weights, conj_weights, weight_power, user_of, gram_index,
     (upper_i, upper_j)) = _structure(transform, channel.shape[1])

    matched_filter = channel.conj().T @ received      # H^H y, length N_t
    gram = channel.conj().T @ channel                 # H^H H, N_t x N_t

    # Elementwise-vectorised evaluation of the closed forms: every entry
    # performs the identical scalar complex products (in the same
    # association order) as the historical per-pair loops, so coefficients —
    # and the seeded streams of everything downstream — are bit-for-bit
    # unchanged; only the Python-loop overhead is gone.
    linear = -2.0 * (weights * np.conj(matched_filter[user_of])).real

    pair_matrix = 2.0 * ((conj_weights[:, None] * gram[gram_index])
                         * weights[None, :]).real
    pair_values = pair_matrix[upper_i, upper_j]
    nonzero = pair_values != 0.0

    offset = 0.0
    if include_offset:
        offset = float(np.real(np.vdot(received, received)))
        # Sequential accumulation keeps the historical summation order.
        for term in (weight_power * gram.real[user_of, user_of]).tolist():
            offset += term

    # Handed over as arrays: no per-job dict, and problems of one sparsity
    # pattern share one key tuple (structure identity for the layers below).
    return IsingModel.from_arrays(weights.size, linear,
                                  _pair_keys(upper_i, upper_j, nonzero),
                                  pair_values[nonzero], offset)


def bpsk_coefficients(channel, received) -> Tuple[np.ndarray, np.ndarray]:
    """Literal transcription of the paper's Eq. 6 (BPSK), for validation.

    Returns ``(f, g)`` with ``f`` the length-``N_t`` field vector and ``g``
    the upper-triangular coupling matrix.
    """
    channel = ensure_complex_matrix("channel", channel)
    received = ensure_complex_vector("received", received, length=channel.shape[0])
    h_real, h_imag = channel.real, channel.imag
    y_real, y_imag = received.real, received.imag
    num_users = channel.shape[1]
    fields = np.empty(num_users)
    couplings = np.zeros((num_users, num_users))
    for i in range(num_users):
        fields[i] = (-2.0 * float(h_real[:, i] @ y_real)
                     - 2.0 * float(h_imag[:, i] @ y_imag))
        for j in range(i + 1, num_users):
            couplings[i, j] = (2.0 * float(h_real[:, i] @ h_real[:, j])
                               + 2.0 * float(h_imag[:, i] @ h_imag[:, j]))
    return fields, couplings


def qpsk_coefficients(channel, received) -> Tuple[np.ndarray, np.ndarray]:
    """Literal transcription of the paper's Eqs. 7-8 (QPSK), for validation.

    Variable ``i`` (1-indexed in the paper) represents the I component of
    user ``ceil(i/2)`` when odd and the Q component when even.
    """
    channel = ensure_complex_matrix("channel", channel)
    received = ensure_complex_vector("received", received, length=channel.shape[0])
    h_real, h_imag = channel.real, channel.imag
    y_real, y_imag = received.real, received.imag
    num_users = channel.shape[1]
    num_variables = 2 * num_users
    fields = np.empty(num_variables)
    couplings = np.zeros((num_variables, num_variables))
    for index in range(1, num_variables + 1):
        user = (index + 1) // 2 - 1
        if index % 2 == 0:
            fields[index - 1] = (-2.0 * float(h_real[:, user] @ y_imag)
                                 + 2.0 * float(h_imag[:, user] @ y_real))
        else:
            fields[index - 1] = (-2.0 * float(h_real[:, user] @ y_real)
                                 - 2.0 * float(h_imag[:, user] @ y_imag))
    for i in range(1, num_variables + 1):
        user_i = (i + 1) // 2 - 1
        for j in range(i + 1, num_variables + 1):
            user_j = (j + 1) // 2 - 1
            if user_i == user_j:
                # Same user's I and Q: independent, coupling is zero.
                continue
            if (i + j) % 2 == 0:
                value = (2.0 * float(h_real[:, user_i] @ h_real[:, user_j])
                         + 2.0 * float(h_imag[:, user_i] @ h_imag[:, user_j]))
            else:
                sign = 1.0 if i % 2 == 0 else -1.0
                value = sign * (2.0 * float(h_real[:, user_i] @ h_imag[:, user_j])
                                - 2.0 * float(h_real[:, user_j] @ h_imag[:, user_i]))
            couplings[i - 1, j - 1] = value
    return fields, couplings
