"""Tests for the Poisson traffic generator and the DecodeJob model."""

import math

import numpy as np
import pytest

from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.jobs import DecodeJob
from repro.cran.traffic import PoissonTrafficGenerator
from repro.exceptions import SchedulingError
from repro.mimo.system import MimoUplink


@pytest.fixture(scope="module")
def trace():
    return ArgosLikeTraceGenerator(num_bs_antennas=12, num_users=3,
                                   num_subcarriers=8).generate(
        num_frames=2, random_state=0)


@pytest.fixture(scope="module")
def jobs(trace):
    generator = PoissonTrafficGenerator(
        trace, modulations={"BPSK": 0.5, "QPSK": 0.5},
        mean_interarrival_us=1_000.0, burst_subcarriers=3,
        user_snrs_db=(15.0, 20.0, 25.0), deadline_us=50_000.0)
    return generator.generate(8, random_state=42)


class TestDecodeJob:
    def test_validation(self, trace):
        use = MimoUplink(num_users=3, constellation="BPSK").transmit(
            random_state=0)
        with pytest.raises(SchedulingError):
            DecodeJob(job_id=0, user_id=0, frame=0, subcarrier=0,
                      channel_use=use, arrival_time_us=-1.0)
        with pytest.raises(SchedulingError):
            DecodeJob(job_id=0, user_id=0, frame=0, subcarrier=0,
                      channel_use=use, arrival_time_us=10.0, deadline_us=5.0)

    def test_omitted_seed_falls_back_to_job_id(self):
        use = MimoUplink(num_users=2, constellation="BPSK").transmit(
            random_state=0)
        job = DecodeJob(job_id=17, user_id=0, frame=0, subcarrier=0,
                        channel_use=use, arrival_time_us=0.0)
        # Replayability even without an explicit seed: the stream derives
        # from the (unique) job id, never from OS entropy.
        assert job.seed == 17
        assert job.rng().integers(1 << 20) == job.rng().integers(1 << 20)

    def test_structure_key_and_rng(self):
        use = MimoUplink(num_users=3, constellation="QPSK").transmit(
            random_state=0)
        job = DecodeJob(job_id=1, user_id=0, frame=0, subcarrier=2,
                        channel_use=use, arrival_time_us=5.0, seed=99)
        assert job.structure_key == (3, 3, "QPSK")
        assert job.modulation == "QPSK"
        assert job.deadline_us == math.inf
        # rng() restarts the stream every call — that is what makes the job
        # decodable in any batch.
        assert job.rng().integers(1 << 20) == job.rng().integers(1 << 20)


class TestPoissonTrafficGenerator:
    def test_burst_structure(self, jobs):
        assert len(jobs) == 8 * 3
        assert [job.job_id for job in jobs] == list(range(24))
        for start in range(0, 24, 3):
            burst = jobs[start:start + 3]
            # One arrival instant, one user, one frame, distinct subcarriers.
            assert len({job.arrival_time_us for job in burst}) == 1
            assert len({job.user_id for job in burst}) == 1
            assert len({job.frame for job in burst}) == 1
            subcarriers = [job.subcarrier for job in burst]
            assert sorted(set(subcarriers)) == subcarriers

    def test_arrivals_strictly_ordered_across_bursts(self, jobs):
        arrivals = [jobs[start].arrival_time_us for start in range(0, 24, 3)]
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))
        assert all(job.arrival_time_us > 0 for job in jobs)

    def test_deadlines_relative_to_arrival(self, jobs):
        for job in jobs:
            assert job.deadline_us == job.arrival_time_us + 50_000.0

    def test_per_user_snr(self, jobs):
        snrs = (15.0, 20.0, 25.0)
        for job in jobs:
            assert job.channel_use.snr_db == snrs[job.user_id]

    def test_requested_modulation_mix_only(self, jobs):
        assert {job.modulation for job in jobs} <= {"BPSK", "QPSK"}

    def test_ground_truth_carried(self, jobs):
        for job in jobs:
            assert job.channel_use.transmitted_bits is not None

    def test_seeds_distinct(self, jobs):
        seeds = [job.seed for job in jobs]
        assert len(set(seeds)) == len(seeds)

    def test_chained_generate_calls_keep_ids_unique(self, trace):
        generator = PoissonTrafficGenerator(
            trace, modulations=("BPSK",), mean_interarrival_us=500.0,
            burst_subcarriers=2)
        first = generator.generate(2, random_state=1)
        second = generator.generate(
            2, random_state=2, start_time_us=first[-1].arrival_time_us)
        ids = [job.job_id for job in first + second]
        assert ids == list(range(8))

    def test_deterministic_regeneration(self, trace):
        # Bit-identical replay from one seed needs a fresh generator per
        # replay: re-running generate on a *used* generator would rewind the
        # arrival clock, which the monotonic-chaining contract rejects.
        def fresh():
            return PoissonTrafficGenerator(
                trace, modulations=("BPSK",), mean_interarrival_us=500.0,
                burst_subcarriers=2)

        a = fresh().generate(4, random_state=3)
        b = fresh().generate(4, random_state=3)
        assert [j.seed for j in a] == [j.seed for j in b]
        assert [j.arrival_time_us for j in a] == [j.arrival_time_us for j in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.channel_use.received,
                                          y.channel_use.received)
            np.testing.assert_array_equal(x.channel_use.transmitted_bits,
                                          y.channel_use.transmitted_bits)

    def test_rewinding_start_time_rejected(self, trace):
        generator = PoissonTrafficGenerator(
            trace, modulations=("BPSK",), mean_interarrival_us=500.0,
            burst_subcarriers=2)
        first = generator.generate(3, random_state=1)
        # Restarting earlier than an already-emitted arrival would interleave
        # new (higher-id) jobs before old ones in arrival order.
        with pytest.raises(SchedulingError, match="precedes the last"):
            generator.generate(1, random_state=2,
                               start_time_us=first[0].arrival_time_us)
        with pytest.raises(SchedulingError, match="precedes the last"):
            generator.generate(1, random_state=2)
        # Resuming exactly at the last arrival stays legal, and the
        # concatenation is arrival-ordered.
        second = generator.generate(
            2, random_state=2, start_time_us=first[-1].arrival_time_us)
        arrivals = [j.arrival_time_us for j in first + second]
        assert arrivals == sorted(arrivals)

    def test_offered_load(self, trace):
        generator = PoissonTrafficGenerator(trace, modulations="BPSK",
                                            mean_interarrival_us=1_000.0,
                                            burst_subcarriers=4)
        jobs = generator.generate(200, random_state=0)
        # Four jobs per burst, a burst every 1000 us on average: 4000 jobs/s.
        jobs_per_s = len(jobs) / (jobs[-1].arrival_time_us * 1e-6)
        assert jobs_per_s == pytest.approx(4_000.0, rel=0.25)

    def test_single_modulation_string_accepted(self, trace):
        generator = PoissonTrafficGenerator(trace, modulations="QPSK",
                                            burst_subcarriers=1)
        assert all(job.modulation == "QPSK"
                   for job in generator.generate(3, random_state=0))

    def test_invalid_configuration_rejected(self, trace):
        with pytest.raises(SchedulingError):
            PoissonTrafficGenerator(np.zeros((2, 2)))
        with pytest.raises(SchedulingError):
            PoissonTrafficGenerator(trace, modulations={})
        with pytest.raises(SchedulingError):
            PoissonTrafficGenerator(trace, modulations={"BPSK": -1.0})
        with pytest.raises(SchedulingError):
            PoissonTrafficGenerator(trace, user_snrs_db=(1.0, 2.0))
        with pytest.raises(Exception):
            PoissonTrafficGenerator(trace, deadline_us=0.0)
        with pytest.raises(Exception):
            PoissonTrafficGenerator(trace, burst_subcarriers=99)
