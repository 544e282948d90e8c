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

from typing import Dict, List, Tuple

import numpy as np

from repro.ising.model import IsingModel, IsingPack
from repro.transform.symbols import get_transform
from repro.utils.validation import ensure_complex_matrix, ensure_complex_vector


def spin_weights(constellation, num_users: int) -> np.ndarray:
    """Per-variable complex spin weights ``m_i = w_i / 2`` (users first)."""
    transform = get_transform(constellation)
    per_user = np.asarray(transform.weights, dtype=np.complex128) / 2.0
    return np.tile(per_user, num_users)


#: Per-structure constants of :func:`build_ml_ising_pack`, rebuilt
#: identically on every call before: ``(transform name, users) -> (conj of
#: the weights, user_of, |weights|^2, diagonal gather, per pair conj(m_i),
#: m_j and gram gather, upper-triangle pairs, their all-pairs key tuple)``
#: — the gathers index the flattened ``N_t * N_t`` gram matrix.
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
        upper_i, upper_j = np.triu_indices(weights.size, k=1)
        structure = (np.conj(weights), user_of, np.abs(weights) ** 2,
                     user_of * (num_users + 1), np.conj(weights)[upper_i],
                     weights[upper_j],
                     user_of[upper_i] * num_users + user_of[upper_j],
                     (upper_i, upper_j),
                     _pair_keys(upper_i, upper_j, np.ones(upper_i.size, bool)))
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


def build_ml_ising_pack(channels: np.ndarray, received: np.ndarray,
                        constellation) -> List[Tuple[np.ndarray, IsingPack]]:
    """The ML detection Ising problems of many channel uses in one pass.

    *channels* is the ``(jobs, N_r, N_t)`` complex stack of channel matrices
    and *received* the ``(jobs, N_r)`` stack of received vectors, all of one
    *constellation*.  Returns ``(rows, pack)`` pairs: *pack* holds the
    problems of the jobs *rows* (ascending), which share one pattern of
    exact-zero couplings and hence one key tuple — a single pair in all but
    degenerate cases.

    Every coefficient is the identical chain of scalar complex products (in
    the same association order) as the historical per-pair loops, and a
    stacked ``matmul`` runs the 2-D call's inner loop once per job, so the
    coefficients — and the seeded streams of everything downstream — are
    bit for bit those of a job-by-job evaluation.  (``conj(m) * x`` and
    ``m * conj(x)`` have the same real part to the bit: the same two
    products, negated alike.)
    """
    transform = get_transform(constellation)
    jobs, _, num_users = channels.shape
    (conj_weights, user_of, weight_power, diagonal, pair_left, pair_right,
     pair_gram, (upper_i, upper_j), all_keys) = _structure(transform,
                                                           num_users)
    hermitian = channels.conj().transpose(0, 2, 1)
    matched_filter = (hermitian @ received[:, :, None])[:, :, 0]  # H^H y
    gram = (hermitian @ channels).reshape(jobs, -1)               # H^H H

    linear = -2.0 * (conj_weights
                     * matched_filter.take(user_of, axis=1)).real
    pair_values = 2.0 * ((pair_left * gram.take(pair_gram, axis=1))
                         * pair_right).real

    # ||y||^2 per job (a BLAS dot: its order is its value), then the
    # diagonal terms added left to right — the historical summation order,
    # in Python floats (the same IEEE additions as ``np.add.accumulate``,
    # without its array set-up for a pack of a few jobs).
    offsets = []
    for vector, terms in zip(received, (
            weight_power * gram.real.take(diagonal, axis=1)).tolist()):
        total = float(np.vdot(vector, vector).real)
        for term in terms:
            total += term
        offsets.append(total)
    offsets = np.array(offsets)

    # Handed over as arrays: no per-job dict, and problems of one sparsity
    # pattern share one key tuple (structure identity for the layers below).
    if np.count_nonzero(pair_values) == pair_values.size:
        return [(np.arange(jobs), IsingPack(
            user_of.size, all_keys, linear, pair_values, offsets))]
    nonzero = pair_values != 0.0
    packs = []
    remaining = np.arange(jobs)
    while remaining.size:
        kept = nonzero[remaining[0]]
        same = (nonzero[remaining] == kept).all(axis=1)
        rows = remaining[same]
        packs.append((rows, IsingPack(
            user_of.size, _pair_keys(upper_i, upper_j, kept), linear[rows],
            np.compress(kept, pair_values[rows], axis=1), offsets[rows])))
        remaining = remaining[~same]
    return packs


def build_ml_ising(channel, received, constellation) -> IsingModel:
    """Build the ML detection Ising problem directly from ``H`` and ``y``.

    Parameters
    ----------
    channel:
        Complex channel matrix ``H`` (``N_r x N_t``).
    received:
        Complex received vector ``y``.
    constellation:
        Constellation instance or name.

    Returns
    -------
    IsingModel
        Ising problem over ``N_t * log2(|O|)`` spin variables whose ground
        state is the ML solution and whose energies, constant term included,
        equal ML Euclidean metrics exactly — the one row of
        :func:`build_ml_ising_pack` over this single channel use.
    """
    channel = ensure_complex_matrix("channel", channel)
    received = ensure_complex_vector("received", received, length=channel.shape[0])
    (_, pack), = build_ml_ising_pack(channel[None], received[None],
                                     constellation)
    return pack[0]


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
