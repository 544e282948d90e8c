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

import numpy as np

from repro.ising.model import IsingModel, IsingPack
from repro.transform.symbols import get_transform
from repro.utils.validation import ensure_complex_matrix, ensure_complex_vector


def spin_weights(constellation, num_users: int) -> np.ndarray:
    """Per-variable complex spin weights ``m_i = w_i / 2`` (users first)."""
    transform = get_transform(constellation)
    per_user = np.asarray(transform.weights, dtype=np.complex128) / 2.0
    return np.tile(per_user, num_users)


class MLIsingStructure:
    """What the closed form of one modulation and user count reads besides
    ``H`` and ``y``: the conj of the weights, ``user_of``, ``|weights|^2``,
    the diagonal gather, per upper-triangle pair ``conj(m_i)``, ``m_j`` and
    its gram gather — the gathers index the flattened ``N_t * N_t`` gram
    matrix — the pairs and their all-pairs key tuple.  A reducer keeps one
    per structure (:class:`~repro.transform.reduction.MLToIsingReducer`)
    and hands it to :func:`build_ml_ising_pack`.
    """

    def __init__(self, constellation, num_users: int):
        transform = get_transform(constellation)
        weights = spin_weights(transform.name, num_users)
        user_of = np.repeat(np.arange(num_users), transform.bits_per_symbol)
        upper_i, upper_j = np.triu_indices(weights.size, k=1)
        self.conj_weights = np.conj(weights)
        self.user_of = user_of
        self.weight_power = np.abs(weights) ** 2
        #: The flattened gram matrix's diagonal, per user and per variable.
        self.gram_diagonal = np.arange(num_users) * (num_users + 1)
        self.diagonal = self.gram_diagonal[user_of]
        self.pair_left = self.conj_weights[upper_i]
        self.pair_right = weights[upper_j]
        self.pair_gram = user_of[upper_i] * num_users + user_of[upper_j]
        self.keys = tuple(zip(upper_i.tolist(), upper_j.tolist()))


def build_ml_ising_pack(channels: np.ndarray, received: np.ndarray,
                        constellation) -> IsingPack:
    """The ML detection Ising problems of many channel uses in one pass.

    *channels* is the ``(jobs, N_r, N_t)`` complex stack of channel matrices
    and *received* the ``(jobs, N_r)`` stack of received vectors, all of one
    *constellation* (an instance, a name, or the kept
    :class:`MLIsingStructure` of it and ``N_t`` users).  Returns the pack of
    their problems, row *b* job *b*, over the all-pairs key tuple
    (``MLIsingStructure.keys``) whatever the values: a coupling that comes
    out exactly zero is a programmed value, not a missing coupler.

    Every coefficient is the identical chain of scalar complex products (in
    the same association order) as the historical per-pair loops, and a
    stacked ``matmul`` runs the 2-D call's inner loop once per job, so the
    coefficients — and the seeded streams of everything downstream — are
    bit for bit those of a job-by-job evaluation.  (``conj(m) * x`` and
    ``m * conj(x)`` have the same real part to the bit: the same two
    products, negated alike.)  The Gram diagonal ``G_uu = sum_r |h_ru|^2``
    is real: its imaginary part is set to ``0.0`` rather than left to the
    BLAS kernel's rounding, so every coupler between a real and an
    imaginary spin weight of one user is exactly zero on every CPU.
    """
    jobs, _, num_users = channels.shape
    structure = (constellation if isinstance(constellation, MLIsingStructure)
                 else MLIsingStructure(constellation, num_users))
    user_of = structure.user_of
    hermitian = channels.conj().transpose(0, 2, 1)
    matched_filter = (hermitian @ received[:, :, None])[:, :, 0]  # H^H y
    gram = (hermitian @ channels).reshape(jobs, -1)               # H^H H
    gram.imag[:, structure.gram_diagonal] = 0.0

    linear = -2.0 * (structure.conj_weights
                     * matched_filter.take(user_of, axis=1)).real
    pair_values = 2.0 * ((structure.pair_left
                          * gram.take(structure.pair_gram, axis=1))
                         * structure.pair_right).real

    # ||y||^2 per job (a BLAS dot: its order is its value), then the
    # diagonal terms added left to right — the historical summation order,
    # in Python floats (the same IEEE additions as ``np.add.accumulate``,
    # without its array set-up for a pack of a few jobs).
    offsets = []
    for vector, terms in zip(received, (
            structure.weight_power
            * gram.real.take(structure.diagonal, axis=1)).tolist()):
        total = float(np.vdot(vector, vector).real)
        for term in terms:
            total += term
        offsets.append(total)
    # Handed over as arrays: no per-job dict, and every problem of the
    # structure shares its one key tuple (structure identity for the
    # layers below).
    return IsingPack(user_of.size, structure.keys, linear, pair_values,
                     np.array(offsets))


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
    return build_ml_ising_pack(channel[None], received[None],
                               constellation)[0]
