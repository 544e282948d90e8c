"""Tests for Time-to-Solution and error-rate metrics."""

import warnings

import numpy as np
import pytest

from repro.exceptions import MetricsError
from repro.metrics.error_rates import bit_error_rate, bit_errors
from repro.metrics.statistics import DistributionSummary, summarize
from repro.metrics.tts import time_to_solution


class TestBitErrorCounting:
    def test_bit_errors(self):
        assert bit_errors([1, 0, 1, 1], [1, 1, 1, 0]) == 2

    def test_bit_error_rate(self):
        assert bit_error_rate([1, 0, 1, 1], [1, 1, 1, 0]) == pytest.approx(0.5)

    def test_identical_is_zero(self):
        assert bit_error_rate([0, 1], [0, 1]) == 0.0

    def test_empty_is_zero(self):
        assert bit_error_rate([], []) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            bit_errors([1, 0], [1])


class TestTimeToSolution:
    def test_formula(self):
        # P0 = 0.1, P = 0.99: repeats = ln(0.01)/ln(0.9) ~= 43.7.
        expected = 1.0 * np.log(0.01) / np.log(0.9)
        assert time_to_solution(0.1, 1.0) == pytest.approx(expected)

    def test_single_anneal_suffices(self):
        assert time_to_solution(0.999, 2.0) == pytest.approx(2.0)

    def test_zero_probability_is_infinite(self):
        assert time_to_solution(0.0, 1.0) == np.inf

    def test_scales_with_anneal_time(self):
        assert time_to_solution(0.3, 10.0) == pytest.approx(
            10.0 * time_to_solution(0.3, 1.0))

    def test_parallelization_divides_time(self):
        serial = time_to_solution(0.2, 1.0)
        parallel = time_to_solution(0.2, 1.0, parallelization=4.0)
        assert parallel == pytest.approx(serial / 4.0)

    def test_higher_probability_is_faster(self):
        assert time_to_solution(0.5, 1.0) < time_to_solution(0.05, 1.0)

    def test_target_probability_monotone(self):
        assert (time_to_solution(0.1, 1.0, target_probability=0.999)
                > time_to_solution(0.1, 1.0, target_probability=0.9))

    def test_invalid_inputs(self):
        with pytest.raises(Exception):
            time_to_solution(1.5, 1.0)
        with pytest.raises(Exception):
            time_to_solution(0.5, -1.0)
        with pytest.raises(Exception):
            time_to_solution(0.5, 1.0, target_probability=1.0)


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.median == pytest.approx(3.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0

    def test_percentiles_ordered(self):
        summary = summarize(np.arange(100.0))
        assert summary.percentile_10 < summary.median < summary.percentile_90

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            summarize([])

    def test_infinite_values_kept_by_default(self):
        summary = summarize([1.0, np.inf])
        assert summary.mean == np.inf

    def test_a_rank_next_to_an_infinity_is_that_infinity(self):
        """NumPy's lerp computes ``inf - inf`` there (NaN and a
        RuntimeWarning); the limit is the infinity.  Finite ranks keep
        NumPy's values to the bit."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize([1.0, np.inf])
            assert summary.percentile_90 == np.inf
            assert summary.percentile_10 == np.inf  # 1 + inf * 0.1
            assert summarize([-np.inf, 2.0]).percentile_10 == -np.inf
            assert summarize([np.inf, np.inf]).percentile_90 == np.inf
            undefined = summarize([-np.inf, np.inf])  # no warning either
            assert np.isnan([undefined.mean, undefined.median,
                             undefined.percentile_90]).all()
            values = [0.3, 1.7, 2.9, 4.1, np.inf]
            summary = summarize(values)
            assert summary.percentile_10 == np.percentile(values, 10)
            assert summary.percentile_90 == np.inf
            finite = np.random.default_rng(3).lognormal(size=101)
            summary = summarize(finite)
            assert summary.percentile_10 == np.percentile(finite, 10)
            assert summary.percentile_90 == np.percentile(finite, 90)

    def test_ignore_infinite(self):
        summary = summarize([1.0, 3.0, np.inf], ignore_infinite=True)
        assert summary.count == 2
        assert summary.mean == pytest.approx(2.0)

    def test_all_infinite(self):
        summary = summarize([np.inf, np.inf], ignore_infinite=True)
        assert summary.count == 0
        assert summary.median == np.inf
