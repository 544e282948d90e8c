"""Tests for the closed-form Ising coefficients (Eqs. 6-8, Appendix C)."""

import numpy as np
import pytest

from repro.ising.model import bits_to_spins
from repro.ising.solver import BruteForceIsingSolver
from repro.mimo.system import MimoUplink
from repro.transform.ising_coeffs import build_ml_ising, spin_weights
from repro.transform.qubo_builder import build_ml_qubo
from repro.utils.validation import ensure_complex_matrix, ensure_complex_vector


def bpsk_coefficients(channel, received):
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


def qpsk_coefficients(channel, received):
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


def make_channel_use(constellation, num_users, snr_db, seed):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    return link.transmit(snr_db=snr_db, random_state=seed)


def all_bit_vectors(n):
    for value in range(1 << n):
        yield np.array([(value >> (n - 1 - k)) & 1 for k in range(n)],
                       dtype=np.uint8)


class TestSpinWeights:
    def test_bpsk(self):
        np.testing.assert_array_equal(spin_weights("BPSK", 3), [1, 1, 1])

    def test_qpsk(self):
        np.testing.assert_array_equal(spin_weights("QPSK", 2), [1, 1j, 1, 1j])

    def test_qam16(self):
        np.testing.assert_array_equal(spin_weights("16-QAM", 1), [2, 1, 2j, 1j])


class TestClosedFormEqualsNormExpansion:
    """The central correctness property of the paper's Section 3.2.2."""

    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 4), ("BPSK", 8), ("QPSK", 3), ("QPSK", 6),
        ("16-QAM", 2), ("16-QAM", 3), ("64-QAM", 2),
    ])
    def test_coefficients_match(self, constellation, num_users):
        channel_use = make_channel_use(constellation, num_users, 18.0, 11)
        closed_form = build_ml_ising(channel_use.channel, channel_use.received,
                                     constellation)
        from_qubo = build_ml_qubo(channel_use.channel, channel_use.received,
                                  constellation).to_ising()
        np.testing.assert_allclose(closed_form.linear, from_qubo.linear,
                                   atol=1e-9)
        np.testing.assert_allclose(closed_form.to_dense()[1],
                                   from_qubo.to_dense()[1], atol=1e-9)
        assert closed_form.offset == pytest.approx(from_qubo.offset, abs=1e-9)

    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 3), ("QPSK", 2), ("16-QAM", 1),
    ])
    def test_energies_equal_ml_metrics(self, constellation, num_users):
        channel_use = make_channel_use(constellation, num_users, 10.0, 12)
        ising = build_ml_ising(channel_use.channel, channel_use.received,
                               constellation)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received,
                             constellation)
        for bits in all_bit_vectors(ising.num_variables):
            assert ising.energy(bits_to_spins(bits)) == pytest.approx(
                qubo.energy(bits), rel=1e-9, abs=1e-9)


class TestLiteralPaperFormulas:
    """Literal transcriptions of Eq. 6 (BPSK) and Eqs. 7-8 (QPSK)."""

    def test_bpsk_eq6_matches_structured_form(self):
        channel_use = make_channel_use("BPSK", 5, 14.0, 13)
        fields, couplings = bpsk_coefficients(channel_use.channel,
                                              channel_use.received)
        ising = build_ml_ising(channel_use.channel, channel_use.received, "BPSK")
        np.testing.assert_allclose(fields, ising.linear, atol=1e-9)
        np.testing.assert_allclose(couplings, ising.to_dense()[1], atol=1e-9)

    def test_qpsk_eq7_eq8_match_structured_form(self):
        channel_use = make_channel_use("QPSK", 4, 14.0, 14)
        fields, couplings = qpsk_coefficients(channel_use.channel,
                                              channel_use.received)
        ising = build_ml_ising(channel_use.channel, channel_use.received, "QPSK")
        np.testing.assert_allclose(fields, ising.linear, atol=1e-9)
        np.testing.assert_allclose(couplings, ising.to_dense()[1], atol=1e-9)

    def test_qpsk_same_user_coupling_zero(self):
        channel_use = make_channel_use("QPSK", 3, 14.0, 15)
        _, couplings = qpsk_coefficients(channel_use.channel, channel_use.received)
        for user in range(3):
            assert couplings[2 * user, 2 * user + 1] == 0.0


class TestGroundStateIsMlSolution:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 6), ("QPSK", 3), ("16-QAM", 2),
    ])
    def test_noiseless_ground_state_energy_is_zero(self, constellation, num_users):
        channel_use = make_channel_use(constellation, num_users, None, 16)
        ising = build_ml_ising(channel_use.channel, channel_use.received,
                               constellation)
        ground = BruteForceIsingSolver(max_variables=12).solve(ising)
        assert ground.best_energy == pytest.approx(0.0, abs=1e-9)
