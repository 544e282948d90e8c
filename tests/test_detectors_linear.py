"""Tests for repro.detectors.linear (zero-forcing and MMSE)."""

import numpy as np
import pytest

from repro.channel.models import RayleighChannel
from repro.detectors.base import DetectionResult
from repro.detectors.linear import MMSEDetector, ZeroForcingDetector
from repro.detectors.ml import ExhaustiveMLDetector
from repro.exceptions import DetectionError
from repro.metrics import bit_errors
from repro.mimo.system import MimoUplink


class TestZeroForcing:
    def test_perfect_on_noiseless_identity_channel(self):
        link = MimoUplink(num_users=3, constellation="QPSK")
        channel_use = link.transmit(channel=np.eye(3, dtype=complex),
                                    random_state=0)
        result = ZeroForcingDetector().detect(channel_use)
        np.testing.assert_array_equal(result.bits, channel_use.transmitted_bits)
        assert result.metric == pytest.approx(0.0, abs=1e-20)

    def test_perfect_on_noiseless_random_channel(self):
        link = MimoUplink(num_users=4, constellation="16-QAM")
        channel_use = link.transmit(random_state=1)
        result = ZeroForcingDetector().detect(channel_use)
        np.testing.assert_array_equal(result.bits, channel_use.transmitted_bits)

    def test_result_fields(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        channel_use = link.transmit(snr_db=20.0, random_state=2)
        result = ZeroForcingDetector().detect(channel_use)
        assert isinstance(result, DetectionResult)
        assert result.detector == "zero-forcing"
        assert result.symbols.shape == (2,)
        assert result.bits.shape == (2,)
        assert "equalized" in result.extra

    def test_rejects_wide_channel(self):
        link = MimoUplink(num_users=2, constellation="BPSK", num_rx_antennas=4)
        channel_use = link.transmit(random_state=0)
        # Manually build a wide (under-determined) channel use.
        from repro.mimo.system import ChannelUse
        wide = ChannelUse(channel=channel_use.channel.T.copy(),
                          received=np.zeros(2, dtype=complex),
                          constellation=channel_use.constellation)
        with pytest.raises(DetectionError):
            ZeroForcingDetector().detect(wide)

    def test_degrades_at_low_snr_square_channel(self):
        # The paper's Fig. 14 premise: ZF has an error floor when Nt ~= Nr.
        link = MimoUplink(num_users=8, constellation="QPSK")
        detector = ZeroForcingDetector()
        errors, total = 0, 0
        rng = np.random.default_rng(3)
        for _ in range(20):
            channel_use = link.transmit(snr_db=10.0, random_state=rng)
            result = detector.detect(channel_use)
            errors += bit_errors(channel_use.transmitted_bits, result.bits)
            total += channel_use.num_bits
        assert errors / total > 0.01


class TestMMSE:
    def test_reduces_to_zf_without_noise(self):
        link = MimoUplink(num_users=3, constellation="QPSK")
        channel_use = link.transmit(random_state=4)
        zf = ZeroForcingDetector().detect(channel_use)
        mmse = MMSEDetector().detect(channel_use)
        np.testing.assert_array_equal(zf.bits, mmse.bits)

    def test_not_worse_than_zf_at_low_snr(self):
        link = MimoUplink(num_users=6, constellation="QPSK")
        rng = np.random.default_rng(5)
        zf_errors, mmse_errors = 0, 0
        for _ in range(30):
            channel_use = link.transmit(snr_db=8.0, random_state=rng)
            zf_errors += bit_errors(
                channel_use.transmitted_bits,
                ZeroForcingDetector().detect(channel_use).bits)
            mmse_errors += bit_errors(
                channel_use.transmitted_bits,
                MMSEDetector().detect(channel_use).bits)
        assert mmse_errors <= zf_errors

    def test_detector_name(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        result = MMSEDetector().detect(link.transmit(snr_db=15.0, random_state=0))
        assert result.detector == "mmse"


class TestDetectionResult:
    def test_bit_error_helpers(self):
        result = DetectionResult(symbols=np.array([1 + 0j]), bits=np.array([1, 0]),
                                 metric=0.0, detector="test")
        assert bit_errors([1, 1], result.bits) == 1
        assert bit_errors([1, 0], result.bits) == 0

    def test_euclidean_metric_matches_definition(self):
        link = MimoUplink(num_users=2, constellation="QPSK")
        channel_use = link.transmit(snr_db=20.0, random_state=6)
        detector = ZeroForcingDetector()
        result = detector.detect(channel_use)
        manual = np.linalg.norm(
            channel_use.received - channel_use.channel @ result.symbols) ** 2
        assert result.metric == pytest.approx(manual)
