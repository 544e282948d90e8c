"""Tests for repro.mimo.system."""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.models import RandomPhaseChannel
from repro.channel.noise import received_signal_power
from repro.exceptions import ConfigurationError
from repro.mimo.system import ChannelUse, MimoUplink
from repro.modulation import QPSK


class TestMimoUplinkConstruction:
    def test_defaults_square(self):
        link = MimoUplink(num_users=4, constellation="QPSK")
        assert link.num_rx_antennas == 4
        assert link.bits_per_channel_use == 8

    def test_constellation_object_accepted(self):
        link = MimoUplink(num_users=2, constellation=QPSK)
        assert link.constellation is QPSK

    def test_more_rx_than_users_allowed(self):
        link = MimoUplink(num_users=2, constellation="BPSK", num_rx_antennas=8)
        assert link.num_rx_antennas == 8

    def test_fewer_rx_than_users_rejected(self):
        with pytest.raises(ConfigurationError):
            MimoUplink(num_users=4, constellation="BPSK", num_rx_antennas=2)

    def test_invalid_constellation_rejected(self):
        with pytest.raises(Exception):
            MimoUplink(num_users=2, constellation=42)


class TestTransmit:
    def test_noiseless_received_equals_hv(self):
        link = MimoUplink(num_users=3, constellation="QPSK")
        channel_use = link.transmit(random_state=0)
        expected = channel_use.channel @ channel_use.transmitted_symbols
        np.testing.assert_allclose(channel_use.received, expected)
        assert channel_use.noise_variance == 0.0
        assert channel_use.snr_db is None

    def test_snr_is_respected_statistically(self):
        link = MimoUplink(num_users=4, constellation="QPSK", num_rx_antennas=4)
        measured = []
        rng = np.random.default_rng(0)
        for _ in range(50):
            channel_use = link.transmit(snr_db=15.0, random_state=rng)
            signal = received_signal_power(
                channel_use.channel, channel_use.constellation.average_energy)
            measured.append(
                10.0 * np.log10(signal / channel_use.noise_variance))
        assert np.mean(measured) == pytest.approx(15.0, abs=0.5)

    def test_explicit_bits_used(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        channel_use = link.transmit(bits=[1, 0], random_state=1)
        np.testing.assert_array_equal(channel_use.transmitted_bits, [1, 0])
        np.testing.assert_array_equal(channel_use.transmitted_symbols, [1, -1])

    def test_explicit_channel_used(self):
        matrix = np.eye(2, dtype=complex)
        link = MimoUplink(num_users=2, constellation="BPSK")
        channel_use = link.transmit(bits=[1, 1], channel=matrix)
        np.testing.assert_array_equal(channel_use.channel, matrix)
        np.testing.assert_array_equal(channel_use.received, [1, 1])

    def test_deterministic_with_seed(self):
        link = MimoUplink(num_users=3, constellation="16-QAM")
        a = link.transmit(snr_db=20.0, random_state=9)
        b = link.transmit(snr_db=20.0, random_state=9)
        np.testing.assert_array_equal(a.received, b.received)
        np.testing.assert_array_equal(a.transmitted_bits, b.transmitted_bits)

    def test_shared_generator_draws_fresh_channel_uses(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        rng = np.random.default_rng(0)
        uses = [link.transmit(snr_db=10.0, random_state=rng)
                for _ in range(4)]
        assert len({use.channel.tobytes() for use in uses}) == 4
        assert len({use.received.tobytes() for use in uses}) == 4
        replay = link.transmit(snr_db=10.0, random_state=0)
        np.testing.assert_array_equal(uses[0].received, replay.received)

    def test_channel_model_is_used(self):
        link = MimoUplink(num_users=3, constellation="BPSK",
                          channel_model=RandomPhaseChannel())
        channel_use = link.transmit(random_state=0)
        np.testing.assert_allclose(np.abs(channel_use.channel), 1.0)


class TestChannelUse:
    def make(self):
        link = MimoUplink(num_users=2, constellation="QPSK")
        return link.transmit(snr_db=20.0, random_state=0)

    def test_properties(self):
        channel_use = self.make()
        assert channel_use.num_rx == 2
        assert channel_use.num_tx == 2
        assert channel_use.num_bits == 4

    def test_dimension_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelUse(channel=np.eye(2, dtype=complex),
                       received=np.zeros(3, dtype=complex),
                       constellation=QPSK)

    def test_bit_length_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelUse(channel=np.eye(2, dtype=complex),
                       received=np.zeros(2, dtype=complex),
                       constellation=QPSK,
                       transmitted_bits=[1, 0, 1])

    @pytest.mark.parametrize("field", ["channel", "received"])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf,
                                        complex(0.0, np.nan),
                                        complex(1.0, np.inf)])
    def test_non_finite_input_rejected_at_construction(self, field, poison):
        """A NaN/inf channel estimate or received vector used to be decoded
        without complaint into arbitrary bits with a NaN metric; it is
        rejected once, here, off the decode path."""
        good = self.make()
        arrays = {"channel": good.channel.copy(),
                  "received": good.received.copy()}
        arrays[field].flat[-1] = poison
        with pytest.raises(ConfigurationError, match=f"{field} must be "
                                                     f"finite"):
            ChannelUse(constellation=QPSK, **arrays)
        # dataclasses.replace re-validates: no way around the constructor.
        with pytest.raises(ConfigurationError, match="finite"):
            replace(good, received=np.array([poison, 0.0]))

    def test_non_finite_input_never_reaches_the_annealer(self):
        """The decoder's sampler cache counters prove nothing ran."""
        from repro.annealer.chimera import ChimeraGraph
        from repro.annealer.machine import (AnnealerParameters,
                                            QuantumAnnealerSimulator)
        from repro.decoder.quamax import QuAMaxDecoder

        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=5))
        good = self.make()
        decoder.detect_batch([good], random_state=1)
        before = decoder.sampler_cache_info()
        channel = good.channel.copy()
        channel[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            decoder.detect_batch(
                [good, ChannelUse(channel=channel, received=good.received,
                                  constellation=QPSK)], random_state=1)
        assert decoder.sampler_cache_info() == before

