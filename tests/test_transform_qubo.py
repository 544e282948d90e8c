"""Tests for the generic ML-to-QUBO reduction (norm expansion)."""

import numpy as np
import pytest

from repro.detectors.ml import ExhaustiveMLDetector
from repro.exceptions import ReductionError
from repro.ising.model import QUBOModel
from repro.mimo.system import MimoUplink
from repro.modulation import get_constellation
from repro.transform.posttranslate import quamax_to_gray_bits
from repro.transform.qubo_builder import build_ml_qubo, ml_metric_from_bits
from repro.transform.symbols import get_transform


def all_bit_vectors(n):
    for value in range(1 << n):
        yield np.array([(value >> (n - 1 - k)) & 1 for k in range(n)],
                       dtype=np.uint8)


def make_channel_use(constellation, num_users, snr_db, seed):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    return link.transmit(snr_db=snr_db, random_state=seed)


class TestQuboStructure:
    @pytest.mark.parametrize("constellation,num_users,variables", [
        ("BPSK", 4, 4), ("QPSK", 3, 6), ("16-QAM", 2, 8), ("64-QAM", 2, 12),
    ])
    def test_variable_count(self, constellation, num_users, variables):
        channel_use = make_channel_use(constellation, num_users, 20.0, 0)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received,
                             constellation)
        assert isinstance(qubo, QUBOModel)
        assert qubo.num_variables == variables

    def test_qpsk_same_user_iq_coupling_is_zero(self):
        # The paper notes the I and Q variables of one user never couple.
        channel_use = make_channel_use("QPSK", 3, 20.0, 1)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received, "QPSK")
        for user in range(3):
            i_var, q_var = 2 * user, 2 * user + 1
            assert qubo.terms.get((i_var, q_var), 0.0) == pytest.approx(0.0)

    def test_qam16_same_user_iq_couplings_are_zero(self):
        channel_use = make_channel_use("16-QAM", 2, 20.0, 2)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received, "16-QAM")
        for user in range(2):
            base = 4 * user
            for i_var in (base, base + 1):
                for q_var in (base + 2, base + 3):
                    assert qubo.terms.get((i_var, q_var), 0.0) == pytest.approx(0.0)


class TestQuboEnergiesEqualMlMetrics:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 3), ("QPSK", 2), ("16-QAM", 1), ("64-QAM", 1),
    ])
    def test_energy_equals_metric_for_every_assignment(self, constellation,
                                                       num_users):
        channel_use = make_channel_use(constellation, num_users, 15.0, 3)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received,
                             constellation)
        for bits in all_bit_vectors(qubo.num_variables):
            metric = ml_metric_from_bits(channel_use.channel,
                                         channel_use.received,
                                         constellation, bits)
            assert qubo.energy(bits) == pytest.approx(metric, rel=1e-9, abs=1e-9)


class TestQuboArgminIsMlSolution:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 4), ("QPSK", 3), ("16-QAM", 2),
    ])
    def test_argmin_matches_exhaustive_ml(self, constellation, num_users):
        channel_use = make_channel_use(constellation, num_users, 12.0, 5)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received,
                             constellation)
        best_bits = min(all_bit_vectors(qubo.num_variables), key=qubo.energy)
        decoded = quamax_to_gray_bits(best_bits, constellation)
        ml = ExhaustiveMLDetector().detect(channel_use)
        np.testing.assert_array_equal(decoded, ml.bits)

    def test_noiseless_argmin_is_transmitted_bits(self):
        channel_use = make_channel_use("16-QAM", 2, None, 6)
        qubo = build_ml_qubo(channel_use.channel, channel_use.received, "16-QAM")
        best_bits = min(all_bit_vectors(qubo.num_variables), key=qubo.energy)
        decoded = quamax_to_gray_bits(best_bits, "16-QAM")
        np.testing.assert_array_equal(decoded, channel_use.transmitted_bits)
        assert qubo.energy(best_bits) == pytest.approx(0.0, abs=1e-9)


class TestMlMetricFromBits:
    def test_mismatched_users_rejected(self):
        channel_use = make_channel_use("QPSK", 2, 20.0, 7)
        with pytest.raises(ReductionError):
            ml_metric_from_bits(channel_use.channel, channel_use.received,
                                "QPSK", [1, 0])

    def test_manual_value(self):
        channel = np.eye(1, dtype=complex)
        received = np.array([3.0 + 0j])
        # BPSK symbol for bit 1 is +1, so the metric is |3 - 1|^2 = 4.
        assert ml_metric_from_bits(channel, received, "BPSK", [1]) == pytest.approx(4.0)
