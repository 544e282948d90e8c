"""Tests for the anneal schedule (anneal time, pause)."""

import numpy as np
import pytest

from repro.annealer.schedule import AnnealSchedule
from repro.exceptions import AnnealerError


class TestConstruction:
    def test_defaults(self):
        schedule = AnnealSchedule()
        assert schedule.anneal_time_us == 1.0
        assert not schedule.has_pause
        assert schedule.duration_us == 1.0

    def test_with_pause(self):
        schedule = AnnealSchedule(anneal_time_us=1.0, pause_time_us=10.0,
                                  pause_position=0.3)
        assert schedule.has_pause
        assert schedule.duration_us == 11.0

    def test_anneal_time_range_enforced(self):
        with pytest.raises(AnnealerError):
            AnnealSchedule(anneal_time_us=0.5)
        with pytest.raises(AnnealerError):
            AnnealSchedule(anneal_time_us=301.0)

    def test_negative_pause_rejected(self):
        with pytest.raises(AnnealerError):
            AnnealSchedule(pause_time_us=-1.0)

    def test_invalid_pause_position_rejected(self):
        with pytest.raises(Exception):
            AnnealSchedule(pause_position=1.5)


class TestTemperatureProfile:
    def test_length_scales_with_anneal_time(self):
        short = AnnealSchedule(anneal_time_us=1.0).temperature_profile(
            sweeps_per_us=10, hot=2.0, cold=0.1)
        long = AnnealSchedule(anneal_time_us=10.0).temperature_profile(
            sweeps_per_us=10, hot=2.0, cold=0.1)
        assert long.size == pytest.approx(10 * short.size, rel=0.1)

    def test_monotone_decreasing_without_pause(self):
        profile = AnnealSchedule(anneal_time_us=2.0).temperature_profile(
            sweeps_per_us=20, hot=2.0, cold=0.05)
        assert profile[0] == pytest.approx(2.0)
        assert profile[-1] == pytest.approx(0.05)
        assert np.all(np.diff(profile) < 0)

    def test_pause_adds_constant_temperature_segment(self):
        schedule = AnnealSchedule(anneal_time_us=1.0, pause_time_us=2.0,
                                  pause_position=0.5)
        profile = schedule.temperature_profile(sweeps_per_us=10, hot=2.0,
                                               cold=0.05)
        no_pause = AnnealSchedule(anneal_time_us=1.0).temperature_profile(
            sweeps_per_us=10, hot=2.0, cold=0.05)
        assert profile.size == no_pause.size + 20
        pause_temperature = 2.0 * (0.05 / 2.0) ** 0.5
        assert np.count_nonzero(np.isclose(profile, pause_temperature)) >= 20

    def test_pause_position_sets_pause_temperature(self):
        early = AnnealSchedule(anneal_time_us=1.0, pause_time_us=1.0,
                               pause_position=0.15)
        late = AnnealSchedule(anneal_time_us=1.0, pause_time_us=1.0,
                              pause_position=0.55)
        early_profile = early.temperature_profile(sweeps_per_us=20, hot=2.0,
                                                  cold=0.05)
        late_profile = late.temperature_profile(sweeps_per_us=20, hot=2.0,
                                                cold=0.05)
        # Counting the most common value identifies the pause temperature.
        def pause_temp(profile):
            values, counts = np.unique(np.round(profile, 12), return_counts=True)
            return values[np.argmax(counts)]
        assert pause_temp(early_profile) > pause_temp(late_profile)

    def test_minimum_two_ramp_sweeps(self):
        profile = AnnealSchedule(anneal_time_us=1.0).temperature_profile(
            sweeps_per_us=0.5, hot=1.0, cold=0.1)
        assert profile.size >= 2

    def test_invalid_temperatures_rejected(self):
        schedule = AnnealSchedule()
        with pytest.raises(AnnealerError):
            schedule.temperature_profile(sweeps_per_us=10, hot=0.1, cold=1.0)
        with pytest.raises(Exception):
            schedule.temperature_profile(sweeps_per_us=10, hot=1.0, cold=-1.0)
