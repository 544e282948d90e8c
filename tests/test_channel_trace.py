"""Tests for repro.channel.trace."""

import numpy as np
import pytest

from repro.channel.models import RayleighChannel
from repro.channel.trace import ArgosLikeTraceGenerator, ChannelTrace, TraceChannel
from repro.exceptions import ChannelError


@pytest.fixture(scope="module")
def small_trace():
    generator = ArgosLikeTraceGenerator(num_bs_antennas=16, num_users=4,
                                        num_subcarriers=8)
    return generator.generate(num_frames=3, random_state=0)


class TestChannelTrace:
    def test_dimensions(self, small_trace):
        assert small_trace.num_frames == 3
        assert small_trace.num_subcarriers == 8
        assert small_trace.num_bs_antennas == 16
        assert small_trace.num_users == 4

    def test_channel_use_full(self, small_trace):
        matrix = small_trace.channel_use(0, 0)
        assert matrix.shape == (16, 4)

    def test_channel_use_subset(self, small_trace):
        matrix = small_trace.channel_use(1, 2, antenna_subset=[0, 5, 9, 15])
        assert matrix.shape == (4, 4)
        np.testing.assert_array_equal(matrix[1], small_trace.channels[1, 2, 5])

    def test_invalid_frame_rejected(self, small_trace):
        with pytest.raises(Exception):
            small_trace.channel_use(99, 0)

    def test_invalid_subset_rejected(self, small_trace):
        with pytest.raises(ChannelError):
            small_trace.channel_use(0, 0, antenna_subset=[99])
        with pytest.raises(ChannelError):
            small_trace.channel_use(0, 0, antenna_subset=[])

    def test_random_square_channel(self, small_trace):
        matrix = small_trace.random_square_channel(random_state=1)
        assert matrix.shape == (4, 4)

    def test_random_square_channel_deterministic(self, small_trace):
        a = small_trace.random_square_channel(random_state=2)
        b = small_trace.random_square_channel(random_state=2)
        np.testing.assert_array_equal(a, b)

    def test_save_load_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        small_trace.save(path)
        loaded = ChannelTrace.load(path)
        np.testing.assert_array_equal(loaded.channels, small_trace.channels)
        assert loaded.carrier_frequency_hz == small_trace.carrier_frequency_hz

    def test_save_load_preserves_dtype_shape_and_metadata(self, tmp_path):
        trace = ChannelTrace(
            channels=np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4),
            carrier_frequency_hz=5.8e9, frame_interval_s=2e-3)
        path = tmp_path / "meta.npz"
        trace.save(path)
        loaded = ChannelTrace.load(path)
        # The constructor normalises to complex128; the reloaded trace must
        # land on the same canonical dtype and the exact geometry.
        assert loaded.channels.dtype == np.complex128
        assert loaded.channels.shape == (1, 2, 3, 4)
        assert loaded.channels.shape == trace.channels.shape
        assert loaded.carrier_frequency_hz == 5.8e9
        assert loaded.frame_interval_s == 2e-3
        assert isinstance(loaded.carrier_frequency_hz, float)
        assert isinstance(loaded.frame_interval_s, float)

    def test_save_load_preserves_seeded_channel_use_draws(self, small_trace,
                                                          tmp_path):
        path = tmp_path / "draws.npz"
        small_trace.save(path)
        loaded = ChannelTrace.load(path)
        # Deterministic selections must survive the round trip exactly...
        np.testing.assert_array_equal(
            loaded.channel_use(1, 3, antenna_subset=[2, 7, 11, 14]),
            small_trace.channel_use(1, 3, antenna_subset=[2, 7, 11, 14]))
        # ...and so must seeded random draws (same shapes => same stream).
        np.testing.assert_array_equal(
            loaded.random_square_channel(random_state=123),
            small_trace.random_square_channel(random_state=123))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ChannelError):
            ChannelTrace(channels=np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("keep", [0, 10, 0.5, -5])
    def test_truncated_archive_names_the_path(self, small_trace, tmp_path,
                                              keep):
        """A download cut short is a ``repro`` error that says which file,
        not a bare ``zipfile.BadZipFile`` / ``EOFError``."""
        path = tmp_path / "cut.npz"
        small_trace.save(path)
        raw = path.read_bytes()
        cut = int(len(raw) * keep) if isinstance(keep, float) else keep
        path.write_bytes(raw[:cut] if cut >= 0 else raw[:len(raw) + cut])
        with pytest.raises(ChannelError, match="cut.npz"):
            ChannelTrace.load(path)

    def test_corrupted_member_names_the_path(self, small_trace, tmp_path):
        path = tmp_path / "flipped.npz"
        small_trace.save(path)
        raw = bytearray(path.read_bytes())
        for position in range(len(raw) // 4, len(raw) // 4 + 64):
            raw[position] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(ChannelError, match="flipped.npz"):
            ChannelTrace.load(path)

    def test_foreign_archives_name_the_path(self, tmp_path):
        """Valid numpy files that are not a stored trace: a field missing, a
        field of the wrong kind, a bare array."""
        channels = np.zeros((1, 1, 2, 2))
        missing = tmp_path / "missing_field.npz"
        np.savez(missing, channels=channels)
        vector = tmp_path / "vector_field.npz"
        np.savez(vector, channels=channels, carrier_frequency_hz=np.zeros(3),
                 frame_interval_s=1e-3)
        bare = tmp_path / "bare.npy"
        np.save(bare, channels)
        for path in (missing, vector, bare):
            with pytest.raises(ChannelError, match=path.name):
                ChannelTrace.load(path)
        # The trace's own validation still speaks for itself...
        rank = tmp_path / "rank.npz"
        np.savez(rank, channels=np.zeros((1, 2, 2)),
                 carrier_frequency_hz=2.4e9, frame_interval_s=1e-3)
        with pytest.raises(ChannelError, match="must have shape"):
            ChannelTrace.load(rank)
        # ...and a file that is not there is the OSError it always was.
        with pytest.raises(FileNotFoundError):
            ChannelTrace.load(tmp_path / "absent.npz")


class TestArgosLikeTraceGenerator:
    def test_default_geometry_matches_paper(self):
        generator = ArgosLikeTraceGenerator()
        assert generator.num_bs_antennas == 96
        assert generator.num_users == 8

    def test_deterministic(self):
        generator = ArgosLikeTraceGenerator(num_bs_antennas=8, num_users=2,
                                            num_subcarriers=4)
        a = generator.generate(num_frames=2, random_state=3).channels
        b = generator.generate(num_frames=2, random_state=3).channels
        np.testing.assert_array_equal(a, b)

    def test_temporal_correlation(self):
        generator = ArgosLikeTraceGenerator(num_bs_antennas=16, num_users=4,
                                            num_subcarriers=4,
                                            temporal_correlation=0.99)
        trace = generator.generate(num_frames=5, random_state=0)
        first, last = trace.channels[0], trace.channels[-1]
        correlation = np.abs(np.vdot(first, last)) / (
            np.linalg.norm(first) * np.linalg.norm(last))
        assert correlation > 0.8

    def test_frequency_selectivity(self):
        generator = ArgosLikeTraceGenerator(num_bs_antennas=16, num_users=4,
                                            num_subcarriers=16, num_taps=4)
        trace = generator.generate(num_frames=1, random_state=0)
        sc0 = trace.channels[0, 0]
        sc8 = trace.channels[0, 8]
        assert not np.allclose(sc0, sc8)

    def test_user_gain_spread(self):
        generator = ArgosLikeTraceGenerator(num_bs_antennas=32, num_users=8,
                                            num_subcarriers=4,
                                            gain_spread_db=12.0)
        trace = generator.generate(num_frames=1, random_state=1)
        per_user_power = np.mean(np.abs(trace.channels[0]) ** 2, axis=(0, 1))
        assert per_user_power.max() / per_user_power.min() > 1.5

    def test_invalid_temporal_correlation(self):
        with pytest.raises(ChannelError):
            ArgosLikeTraceGenerator(temporal_correlation=1.5)

    def test_trace_channels_worse_conditioned_than_rayleigh(self):
        # The reason the paper evaluates on real traces: correlated channels
        # are harder than i.i.d. Rayleigh.
        generator = ArgosLikeTraceGenerator(num_bs_antennas=32, num_users=4,
                                            num_subcarriers=8, rician_k=8.0)
        trace = generator.generate(num_frames=2, random_state=0)
        rng = np.random.default_rng(0)
        trace_cond = np.median([
            np.linalg.cond(trace.random_square_channel(rng))
            for _ in range(20)
        ])
        rayleigh_cond = np.median([
            np.linalg.cond(RayleighChannel().sample(4, 4, rng))
            for _ in range(20)
        ])
        assert trace_cond > rayleigh_cond * 0.8


class TestTraceChannel:
    def test_sample_shape(self, small_trace):
        model = TraceChannel(small_trace)
        assert model.sample(4, 4, random_state=0).shape == (4, 4)

    def test_wrong_user_count_rejected(self, small_trace):
        with pytest.raises(ChannelError):
            TraceChannel(small_trace).sample(4, 5)

    def test_too_many_antennas_rejected(self, small_trace):
        with pytest.raises(ChannelError):
            TraceChannel(small_trace).sample(99, 4)

    def test_requires_trace_instance(self):
        with pytest.raises(ChannelError):
            TraceChannel(np.zeros((2, 2)))
