"""Tests for repro.channel.noise."""

import numpy as np
import pytest

from repro.channel.noise import (
    awgn,
    noise_variance_for_snr,
    received_signal_power,
    snr_db_to_linear,
)
from repro.exceptions import ChannelError


class TestSnrConversion:
    def test_zero_db_is_unity(self):
        assert snr_db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert snr_db_to_linear(10.0) == pytest.approx(10.0)


class TestReceivedSignalPower:
    def test_identity_channel(self):
        channel = np.eye(3, dtype=complex)
        assert received_signal_power(channel, symbol_energy=2.0) == pytest.approx(2.0)

    def test_scales_with_symbol_energy(self):
        channel = np.ones((2, 2), dtype=complex)
        low = received_signal_power(channel, 1.0)
        high = received_signal_power(channel, 4.0)
        assert high == pytest.approx(4.0 * low)

    def test_vector_rejected(self):
        with pytest.raises(ChannelError):
            received_signal_power(np.ones(3, dtype=complex), 1.0)


class TestNoiseVarianceForSnr:
    def test_higher_snr_means_less_noise(self):
        channel = np.eye(4, dtype=complex)
        low = noise_variance_for_snr(channel, 1.0, snr_db=10.0)
        high = noise_variance_for_snr(channel, 1.0, snr_db=30.0)
        assert high < low

    def test_consistency_with_measure(self):
        rng = np.random.default_rng(0)
        channel = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        variance = noise_variance_for_snr(channel, 2.0, snr_db=17.0)
        ratio = received_signal_power(channel, 2.0) / variance
        assert 10.0 * np.log10(ratio) == pytest.approx(17.0)


class TestAwgn:
    def test_shape(self):
        noise = awgn((5, 3), 1.0, random_state=0)
        assert noise.shape == (5, 3)
        assert np.iscomplexobj(noise)

    def test_variance_statistics(self):
        noise = awgn(200_000, 4.0, random_state=1)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(4.0, rel=0.02)

    def test_zero_variance_is_silent(self):
        noise = awgn(10, 0.0, random_state=2)
        np.testing.assert_array_equal(noise, np.zeros(10))

    def test_negative_variance_rejected(self):
        with pytest.raises(ChannelError):
            awgn(3, -1.0)

    def test_deterministic_with_seed(self):
        np.testing.assert_array_equal(awgn(4, 1.0, random_state=3),
                                      awgn(4, 1.0, random_state=3))
