"""Tests for repro.channel.models."""

import numpy as np
import pytest

from repro.channel.models import RandomPhaseChannel, RayleighChannel
from repro.exceptions import ConfigurationError


class TestRayleighChannel:
    def test_shape_and_dtype(self):
        channel = RayleighChannel().sample(4, 3, random_state=0)
        assert channel.shape == (4, 3)
        assert np.iscomplexobj(channel)

    def test_average_gain_statistics(self):
        channel = RayleighChannel(average_gain=2.0).sample(200, 200, random_state=1)
        assert np.mean(np.abs(channel) ** 2) == pytest.approx(2.0, rel=0.05)

    def test_deterministic_with_seed(self):
        a = RayleighChannel().sample(3, 3, random_state=5)
        b = RayleighChannel().sample(3, 3, random_state=5)
        np.testing.assert_array_equal(a, b)

    def test_shared_generator_draws_fresh_matrices(self):
        rng = np.random.default_rng(0)
        first = RayleighChannel().sample(2, 2, random_state=rng)
        second = RayleighChannel().sample(2, 2, random_state=rng)
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(
            first, RayleighChannel().sample(2, 2, random_state=0))

    def test_invalid_gain(self):
        with pytest.raises(ConfigurationError):
            RayleighChannel(average_gain=0.0)

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            RayleighChannel().sample(0, 3)


class TestRandomPhaseChannel:
    def test_unit_magnitude(self):
        channel = RandomPhaseChannel().sample(6, 6, random_state=0)
        np.testing.assert_allclose(np.abs(channel), 1.0)

    def test_gain_scaling(self):
        channel = RandomPhaseChannel(gain=4.0).sample(3, 3, random_state=0)
        np.testing.assert_allclose(np.abs(channel), 2.0)

    def test_phases_vary(self):
        channel = RandomPhaseChannel().sample(8, 8, random_state=0)
        assert np.std(np.angle(channel)) > 0.5


class TestConditionNumber:
    def test_square_iid_worse_than_tall(self):
        # The motivation for ML detection: square channels are worse
        # conditioned than tall ones on average.
        rng = np.random.default_rng(0)
        square = np.mean([
            np.linalg.cond(RayleighChannel().sample(8, 8, rng))
            for _ in range(20)
        ])
        tall = np.mean([
            np.linalg.cond(RayleighChannel().sample(32, 8, rng))
            for _ in range(20)
        ])
        assert square > tall
