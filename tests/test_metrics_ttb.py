"""Tests for the expected-BER order statistic (Eq. 9), TTB and TTF."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, MetricsError
from repro.metrics.ttb import (
    InstanceSolutionProfile,
    expected_ber_after_anneals,
    time_to_ber,
    time_to_fer,
)
from repro.mimo.frame import frame_error_rate_from_ber


def make_profile(probabilities, bit_errors, num_bits=10, duration=2.0,
                 parallelization=1.0):
    return InstanceSolutionProfile(
        probabilities=np.asarray(probabilities, dtype=float),
        bit_errors=np.asarray(bit_errors, dtype=float),
        num_bits=num_bits,
        anneal_duration_us=duration,
        parallelization=parallelization,
    )


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(MetricsError):
            make_profile([0.5, 0.2], [0, 1])

    def test_negative_probability_rejected(self):
        with pytest.raises(MetricsError):
            make_profile([1.2, -0.2], [0, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            make_profile([1.0], [0, 1])

    def test_floor_ber(self):
        profile = make_profile([0.3, 0.7], [0, 3])
        assert profile.floor_ber == 0.0
        profile = make_profile([0.3, 0.7], [2, 3])
        assert profile.floor_ber == pytest.approx(0.2)


class TestExpectedBerEquation9:
    def test_single_solution(self):
        profile = make_profile([1.0], [2], num_bits=10)
        for anneals in (1, 5, 100):
            assert profile.expected_ber(anneals) == pytest.approx(0.2)

    def test_one_anneal_is_mixture_average(self):
        # With one anneal, the expected BER is just the probability-weighted
        # average of the solutions' BERs.
        profile = make_profile([0.25, 0.75], [0, 4], num_bits=10)
        assert profile.expected_ber(1) == pytest.approx(0.75 * 0.4)

    def test_two_solution_closed_form(self):
        # Best solution (0 errors) has probability p; after N anneals the
        # probability of never seeing it is (1-p)^N, contributing the worse
        # solution's BER.
        p = 0.3
        profile = make_profile([p, 1 - p], [0, 5], num_bits=10)
        for anneals in (1, 2, 7, 20):
            expected = (1 - p) ** anneals * 0.5
            assert profile.expected_ber(anneals) == pytest.approx(expected)

    def test_monotone_nonincreasing_in_anneals(self):
        profile = make_profile([0.05, 0.2, 0.3, 0.45], [0, 1, 2, 6], num_bits=12)
        values = [profile.expected_ber(n) for n in (1, 2, 4, 8, 16, 64, 256)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_converges_to_floor(self):
        profile = make_profile([0.1, 0.9], [1, 4], num_bits=10)
        assert profile.expected_ber(10_000) == pytest.approx(profile.floor_ber,
                                                             abs=1e-6)

    def test_functional_wrapper(self):
        value = expected_ber_after_anneals([0.5, 0.5], [0, 2], 10, 3)
        profile = make_profile([0.5, 0.5], [0, 2], num_bits=10)
        assert value == pytest.approx(profile.expected_ber(3))

    def test_invalid_anneal_count(self):
        profile = make_profile([1.0], [0])
        with pytest.raises(Exception):
            profile.expected_ber(0)


class TestTimeToBer:
    def test_immediate_when_first_anneal_suffices(self):
        profile = make_profile([0.9, 0.1], [0, 0], num_bits=10)
        assert profile.anneals_to_ber(1e-6) == 1
        assert profile.time_to_ber(1e-6) == pytest.approx(2.0)

    def test_unreachable_when_floor_above_target(self):
        profile = make_profile([0.6, 0.4], [2, 3], num_bits=10)
        assert profile.anneals_to_ber(1e-6) is None
        assert profile.time_to_ber(1e-6) == np.inf

    def test_anneal_count_is_minimal(self):
        profile = make_profile([0.2, 0.8], [0, 5], num_bits=10)
        target = 1e-3
        anneals = profile.anneals_to_ber(target)
        assert profile.expected_ber(anneals) <= target
        assert profile.expected_ber(anneals - 1) > target

    def test_parallelization_divides_time(self):
        serial = make_profile([0.2, 0.8], [0, 5], parallelization=1.0)
        parallel = make_profile([0.2, 0.8], [0, 5], parallelization=4.0)
        assert parallel.time_to_ber(1e-3) == pytest.approx(
            serial.time_to_ber(1e-3) / 4.0)
        assert parallel.time_to_ber(1e-3, use_parallelization=False) == \
            pytest.approx(serial.time_to_ber(1e-3))

    def test_tighter_target_takes_longer(self):
        profile = make_profile([0.2, 0.8], [0, 5], num_bits=10)
        assert profile.time_to_ber(1e-6) >= profile.time_to_ber(1e-2)

    def test_max_anneals_cap(self):
        profile = make_profile([1e-4, 1.0 - 1e-4], [0, 5], num_bits=10)
        assert profile.time_to_ber(1e-9, max_anneals=10) == np.inf
        assert profile.time_to_fer(1e-9, frame_size_bytes=50,
                                   max_anneals=10) == np.inf

    @pytest.mark.parametrize("max_anneals", [0, -5])
    def test_a_cap_below_one_anneal_is_rejected_by_ttb_and_ttf(
            self, max_anneals):
        """Both searches validate the cap alike; one anneal misses the
        target here, so an unchecked cap would read as ``inf``."""
        profile = make_profile([0.5, 0.5], [0, 2], num_bits=10)
        with pytest.raises(ConfigurationError, match="max_anneals"):
            profile.time_to_ber(1e-3, max_anneals=max_anneals)
        with pytest.raises(ConfigurationError, match="max_anneals"):
            profile.time_to_fer(1e-3, frame_size_bytes=50,
                                max_anneals=max_anneals)

    def test_wrapper_functions(self):
        profile = make_profile([0.5, 0.5], [0, 2], num_bits=10)
        assert time_to_ber(profile, 1e-3) == profile.time_to_ber(1e-3)
        assert time_to_fer(profile, 1e-3, frame_size_bytes=100) == \
            profile.time_to_fer(1e-3, frame_size_bytes=100)


class TestTimeToFer:
    def test_consistency_with_ber(self):
        profile = make_profile([0.3, 0.7], [0, 4], num_bits=10)
        anneals = 8
        fer = profile.expected_fer(anneals, frame_size_bytes=50)
        ber = profile.expected_ber(anneals)
        assert fer == pytest.approx(frame_error_rate_from_ber(ber, 50))

    def test_larger_frames_take_longer(self):
        profile = make_profile([0.2, 0.8], [0, 3], num_bits=12)
        assert (profile.time_to_fer(1e-3, frame_size_bytes=1500)
                >= profile.time_to_fer(1e-3, frame_size_bytes=50))

    def test_unreachable_returns_infinity(self):
        profile = make_profile([1.0], [3], num_bits=10)
        assert profile.time_to_fer(1e-4, frame_size_bytes=1500) == np.inf

    def test_reachable_case(self):
        profile = make_profile([0.5, 0.5], [0, 2], num_bits=10)
        ttf = profile.time_to_fer(1e-3, frame_size_bytes=50)
        assert np.isfinite(ttf)
        assert ttf >= profile.anneal_duration_us


class TestFromAnnealResult:
    def test_profile_from_real_run(self):
        from repro.annealer.chimera import ChimeraGraph
        from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
        from repro.mimo.system import MimoUplink
        from repro.transform.reduction import MLToIsingReducer

        link = MimoUplink(num_users=4, constellation="BPSK")
        channel_use = link.transmit(random_state=0)
        reduced = MLToIsingReducer().reduce(channel_use)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        run = machine.run(reduced.ising, AnnealerParameters(num_anneals=20),
                          random_state=0)
        profile = InstanceSolutionProfile.from_anneal_result(run, reduced)
        assert profile.num_bits == 4
        assert profile.probabilities.sum() == pytest.approx(1.0)
        assert profile.probabilities.size == run.solutions.num_samples
        assert np.isfinite(profile.expected_ber(5))
