"""Tests for the C-RAN serving layer's scheduler and its two core contracts.

The acceptance-critical properties live here:

(a) batched serving is *bit-identical* per job to a one-job
    ``detect_with_run`` decode under a fixed seed — batching is purely a throughput/latency
    policy, never a numerics change;
(b) on a saturating load, packs of 16 finish every job sooner on the
    virtual clock than a batch-size-1 scheduler does, because the per-pack
    overhead is paid once per pack (``TestServingThroughput``; the wall-clock
    side of that comparison is ``benchmarks/e2e``'s ``saturating_qpsk`` /
    ``batch1_qpsk`` pair, not a test).
"""

import math

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import (
    FLUSH_DRAIN,
    FLUSH_FULL,
    FLUSH_TIMEOUT,
    EDFBatchScheduler,
)
from repro.cran.service import CranService, decode_time_model_for
from repro.cran.traffic import PoissonTrafficGenerator
from repro.cran.workers import WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError
from repro.mimo.system import MimoUplink


@pytest.fixture(scope="module")
def channel_uses():
    """A pool of small channel uses for scheduler-level tests."""
    bpsk = MimoUplink(num_users=2, constellation="BPSK")
    qpsk = MimoUplink(num_users=2, constellation="QPSK")
    rng = np.random.default_rng(0)
    return {
        "BPSK": [bpsk.transmit(random_state=rng) for _ in range(8)],
        "QPSK": [qpsk.transmit(random_state=rng) for _ in range(8)],
    }


def make_job(channel_uses, job_id, arrival, deadline=math.inf,
             modulation="BPSK", user_id=0, rng_mode="sequential"):
    return DecodeJob(job_id=job_id, user_id=user_id, frame=0,
                     subcarrier=job_id,
                     channel_use=channel_uses[modulation][job_id % 8],
                     arrival_time_us=arrival, deadline_us=deadline,
                     seed=job_id, rng_mode=rng_mode)


def assert_flushes_at(scheduler, due_us):
    """``advance()`` just before *due_us* flushes nothing; at it, one pack
    flushes, stamped *due_us*."""
    assert scheduler.advance(math.nextafter(due_us, -math.inf)) == []
    batches = scheduler.advance(due_us)
    assert len(batches) == 1
    assert batches[0].reason == FLUSH_TIMEOUT
    assert batches[0].flush_time_us == due_us


class TestEDFBatchScheduler:
    def test_flushes_when_group_fills(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=3, max_wait_us=math.inf)
        assert scheduler.submit(make_job(channel_uses, 0, 0.0)) == []
        assert scheduler.submit(make_job(channel_uses, 1, 1.0)) == []
        batches = scheduler.submit(make_job(channel_uses, 2, 2.0))
        assert len(batches) == 1
        assert batches[0].reason == FLUSH_FULL
        assert batches[0].size == 3
        assert batches[0].flush_time_us == 2.0
        assert scheduler.queue_depth == 0

    def test_structures_share_one_pack(self, channel_uses):
        # The chip is programmed once for whatever is on it: a BPSK and a
        # QPSK job fill a pack of two between them.
        scheduler = EDFBatchScheduler(max_batch=2, max_wait_us=math.inf)
        scheduler.submit(make_job(channel_uses, 0, 0.0, modulation="BPSK"))
        batches = scheduler.submit(make_job(channel_uses, 1, 1.0,
                                            modulation="QPSK"))
        assert len(batches) == 1
        assert batches[0].reason == FLUSH_FULL
        assert batches[0].job_ids == (0, 1)
        assert batches[0].structures == ((2, 2, "BPSK"), (2, 2, "QPSK"))
        assert batches[0].structure_label == "2x2/BPSK+2x2/QPSK"
        assert scheduler.queue_depth == 0
        # A one-structure pack keeps the plain label.
        scheduler.submit(make_job(channel_uses, 2, 2.0, modulation="QPSK"))
        batches = scheduler.submit(make_job(channel_uses, 3, 3.0,
                                            modulation="QPSK"))
        assert batches[0].structures == ((2, 2, "QPSK"),)
        assert batches[0].structure_label == "2x2/QPSK"

    def test_draw_disciplines_queue_separately(self, channel_uses):
        # One pack is one annealer call under one draw discipline, so the
        # same structure under two disciplines never shares a pack.
        scheduler = EDFBatchScheduler(max_batch=2, max_wait_us=math.inf)
        scheduler.submit(make_job(channel_uses, 0, 0.0, rng_mode="counter"))
        assert scheduler.submit(make_job(channel_uses, 1, 1.0)) == []
        assert scheduler.queue_depth == 2
        batches = scheduler.submit(make_job(channel_uses, 2, 2.0))
        assert [batch.job_ids for batch in batches] == [(1, 2)]
        assert scheduler.queue_depth == 1  # the counter job still pends
        batches = scheduler.drain()
        assert [batch.job_ids for batch in batches] == [(0,)]

    def test_timeout_flush_stamped_at_exact_due_time(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=100.0)
        scheduler.submit(make_job(channel_uses, 0, 10.0))
        assert scheduler.advance(100.0) == []
        # Advancing far past the due time still stamps the exact due time,
        # so coarse event loops see the same schedule as fine-grained ones.
        batches = scheduler.advance(500.0)
        assert len(batches) == 1
        assert batches[0].reason == FLUSH_TIMEOUT
        assert batches[0].flush_time_us == 110.0

    def test_submission_triggers_due_timeouts_first(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=100.0)
        scheduler.submit(make_job(channel_uses, 0, 0.0, modulation="BPSK"))
        batches = scheduler.submit(make_job(channel_uses, 1, 300.0,
                                            modulation="QPSK"))
        assert len(batches) == 1
        assert batches[0].jobs[0].job_id == 0
        assert batches[0].flush_time_us == 100.0

    def test_arrival_at_exact_due_time_rides_the_flush(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=100.0)
        scheduler.submit(make_job(channel_uses, 0, 0.0))
        # Arriving at the queue's exact due time: one size-2 batch at
        # t=100, not a size-1 flush plus a stranded newcomer.
        batches = scheduler.submit(make_job(channel_uses, 1, 100.0,
                                            modulation="QPSK"))
        assert len(batches) == 1
        assert batches[0].size == 2
        assert batches[0].flush_time_us == 100.0
        assert batches[0].reason == FLUSH_TIMEOUT
        assert scheduler.queue_depth == 0

    def test_arrival_after_due_time_excluded_from_stale_flush(self,
                                                              channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=100.0)
        scheduler.submit(make_job(channel_uses, 0, 0.0))
        # The queue's stamp (t=100) precedes this arrival (t=150): the new
        # job must not ride in a batch flushed before it existed.
        batches = scheduler.submit(make_job(channel_uses, 1, 150.0))
        assert len(batches) == 1
        assert batches[0].size == 1
        assert batches[0].flush_time_us == 100.0
        assert scheduler.queue_depth == 1

    def test_jobs_inside_batch_are_edf_ordered(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=3, max_wait_us=math.inf)
        scheduler.submit(make_job(channel_uses, 0, 0.0, deadline=900.0))
        scheduler.submit(make_job(channel_uses, 1, 1.0, deadline=300.0))
        batches = scheduler.submit(make_job(channel_uses, 2, 2.0,
                                            deadline=600.0))
        assert [job.job_id for job in batches[0].jobs] == [1, 2, 0]

    def test_timeout_takes_everything_pending_most_urgent_first(
            self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=50.0)
        scheduler.submit(make_job(channel_uses, 0, 0.0, deadline=5_000.0,
                                  modulation="BPSK"))
        scheduler.submit(make_job(channel_uses, 1, 0.0, deadline=1_000.0,
                                  modulation="QPSK"))
        scheduler.submit(make_job(channel_uses, 2, 20.0, deadline=3_000.0,
                                  modulation="BPSK"))
        batches = scheduler.advance(200.0)
        assert [batch.job_ids for batch in batches] == [(1, 2, 0)]
        assert batches[0].flush_time_us == 50.0

    def test_simultaneous_timeouts_emit_most_urgent_first(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=50.0)
        scheduler.submit(make_job(channel_uses, 0, 0.0, deadline=5_000.0))
        scheduler.submit(make_job(channel_uses, 1, 0.0, deadline=1_000.0,
                                  rng_mode="counter"))
        batches = scheduler.advance(200.0)
        assert [batch.job_ids for batch in batches] == [(1,), (0,)]

    def test_drain_flushes_everything_urgent_first(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf)
        scheduler.submit(make_job(channel_uses, 0, 0.0, deadline=5_000.0,
                                  modulation="BPSK"))
        scheduler.submit(make_job(channel_uses, 1, 1.0, deadline=1_000.0,
                                  modulation="QPSK"))
        scheduler.submit(make_job(channel_uses, 2, 2.0, deadline=500.0,
                                  rng_mode="counter"))
        batches = scheduler.drain(now_us=10.0)
        assert [batch.reason for batch in batches] == [FLUSH_DRAIN] * 2
        assert [batch.job_ids for batch in batches] == [(2,), (1, 0)]
        assert {batch.flush_time_us for batch in batches} == {10.0}
        assert scheduler.queue_depth == 0

    def test_due_time_tracks_oldest_pending(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=100.0)
        assert scheduler.advance(39.0) == []
        scheduler.submit(make_job(channel_uses, 0, 40.0))
        scheduler.submit(make_job(channel_uses, 1, 90.0))
        assert_flushes_at(scheduler, 140.0)

    def test_time_must_be_monotonic(self, channel_uses):
        scheduler = EDFBatchScheduler()
        scheduler.advance(100.0)
        with pytest.raises(SchedulingError):
            scheduler.advance(50.0)
        with pytest.raises(SchedulingError):
            scheduler.submit(make_job(channel_uses, 0, 10.0))

    def test_counters(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=2, max_wait_us=math.inf)
        flushed = [batch for job_id in range(3)
                   for batch in scheduler.submit(
                       make_job(channel_uses, job_id, float(job_id)))]
        assert sum(batch.size for batch in flushed) == 2
        assert scheduler.queue_depth == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(Exception):
            EDFBatchScheduler(max_batch=0)
        with pytest.raises(Exception):
            EDFBatchScheduler(max_wait_us=-1.0)


class TestBatchedServingBitIdentical:
    """Acceptance (a): scheduler output == serial decoding, job by job."""

    def test_mixed_modulation_service_matches_serial(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=12, num_users=3,
            num_subcarriers=8).generate(num_frames=2, random_state=0)
        generator = PoissonTrafficGenerator(
            trace, modulations=("BPSK", "QPSK"),
            mean_interarrival_us=500.0, burst_subcarriers=3,
            user_snrs_db=(18.0, 22.0, 26.0), deadline_us=1e9)
        jobs = generator.generate(5, random_state=2019)

        parameters = AnnealerParameters(num_anneals=15)
        service = CranService(
            QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                          parameters),
            max_batch=4, max_wait_us=2_000.0)
        report = service.run(jobs)
        assert report.jobs_completed == len(jobs)
        # Batches actually formed (this must not silently serialise).
        assert report.telemetry["mean_batch_fill"] > 1.0

        # A *fresh* machine decodes each job alone, a one-job pack on the
        # job's own stream; the service results must match bit for bit.
        serial = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)), parameters)
        for result in report.results:
            reference = serial.detect_with_run(result.job.channel_use,
                                               random_state=result.job.rng())
            np.testing.assert_array_equal(reference.detection.bits,
                                          result.result.detection.bits)
            np.testing.assert_array_equal(
                reference.run.solutions.samples,
                result.result.run.solutions.samples)
            np.testing.assert_array_equal(
                reference.run.solutions.energies,
                result.result.run.solutions.energies)

    def test_batching_policy_does_not_change_results(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=6).generate(num_frames=1, random_state=1)
        generator = PoissonTrafficGenerator(
            trace, modulations="BPSK", mean_interarrival_us=100.0,
            burst_subcarriers=2, deadline_us=1e9)
        jobs = generator.generate(4, random_state=7)
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=10))
        one = CranService(decoder, max_batch=1, max_wait_us=math.inf).run(jobs)
        big = CranService(decoder, max_batch=8, max_wait_us=math.inf).run(jobs)
        for a, b in zip(one.results, big.results):
            assert a.job.job_id == b.job.job_id
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)


def serving_trace():
    """The 12-antenna, 3-user, 16-subcarrier, 2-frame trace the serving
    loads below replay."""
    return ArgosLikeTraceGenerator(
        num_bs_antennas=12, num_users=3,
        num_subcarriers=16).generate(num_frames=2, random_state=0)


class TestServingThroughput:
    """Acceptance (b): what batching buys, stated on the virtual clock."""

    def test_batching_wins_on_the_virtual_clock(self):
        # A saturating load: 16 bursts of 4 same-structure QPSK jobs
        # arriving back to back, so the batched scheduler's packs fill.
        jobs = PoissonTrafficGenerator(
            serving_trace(), modulations="QPSK", mean_interarrival_us=10.0,
            burst_subcarriers=4, user_snrs_db=20.0,
            deadline_us=120_000.0).generate(16, random_state=0)
        decoder = QuAMaxDecoder(QuantumAnnealerSimulator(),
                                AnnealerParameters(num_anneals=50))
        single = CranService(decoder, max_batch=1,
                             max_wait_us=math.inf).run(jobs)
        batched = CranService(decoder, max_batch=16,
                              max_wait_us=200_000.0).run(jobs)
        assert batched.jobs_completed == single.jobs_completed == 64
        for a, b in zip(single.results, batched.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
        assert batched.telemetry["mean_batch_fill"] == 16
        # Sharing one QA-job overhead across the pack shows up in the
        # modelled latency.
        assert (batched.telemetry["latency_us"]["p99"]
                < single.telemetry["latency_us"]["p99"])


class TestAdaptiveWait:
    """Deadline-driven adaptive max_wait: flush when slack hits the model."""

    @staticmethod
    def model_us(jobs):
        # A transparent linear model: 1000 us per pack + 100 us per member.
        return 1_000.0 + 100.0 * len(jobs)

    def test_flushes_when_urgent_slack_drops_to_model(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf,
                                      decode_time_model=self.model_us)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0,
                                  deadline=5_000.0))
        # Slack hits the modelled decode time (1100 us for a 1-pack) at
        # t = 5000 - 1100 = 3900.
        assert scheduler.advance(3_899.0) == []
        assert_flushes_at(scheduler, 3_900.0)

    def test_model_never_lengthens_the_bounded_wait(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=500.0,
                                      decode_time_model=self.model_us)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0,
                                  deadline=1e9))
        assert_flushes_at(scheduler, 500.0)

    def test_urgent_arrival_flushes_group_immediately(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf,
                                      decode_time_model=self.model_us)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0,
                                  deadline=1e9))
        # The newcomer's slack (800 us) is already below the 2-pack model
        # (1200 us): everything pending must flush at this very arrival,
        # the newcomer riding along.
        batches = scheduler.submit(make_job(channel_uses, 1, arrival=100.0,
                                            deadline=900.0))
        assert len(batches) == 1
        assert [job.job_id for job in batches[0].jobs] == [1, 0]
        assert batches[0].flush_time_us == pytest.approx(100.0)
        assert scheduler.queue_depth == 0

    def test_flush_stamp_never_precedes_newest_member(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf,
                                      decode_time_model=self.model_us)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0,
                                  deadline=1e9))
        # Adaptive due for the merged queue would be 3500 - 1200 = 2300,
        # before this member even arrived; the stamp clamps to its arrival.
        batches = scheduler.submit(make_job(channel_uses, 1, arrival=3_000.0,
                                            deadline=3_500.0))
        assert len(batches) == 1
        assert batches[0].flush_time_us == pytest.approx(3_000.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0,
                                     None, "soon"])
    def test_invalid_model_output_raises_instead_of_corrupting(
            self, channel_uses, bad):
        # A model emitting NaN/inf/negative (or non-numeric) estimates must
        # fail loudly: silently mixing such values into due times corrupts
        # EDF ordering and flush stamps.
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf,
                                      decode_time_model=lambda jobs: bad)
        with pytest.raises(SchedulingError, match="decode-time model"):
            scheduler.submit(make_job(channel_uses, 0, arrival=0.0,
                                      deadline=5_000.0))

    def test_zero_model_estimate_accepted(self, channel_uses):
        # Zero is a legal (if optimistic) estimate: flush exactly at the
        # deadline.
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf,
                                      decode_time_model=lambda jobs: 0.0)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0,
                                  deadline=5_000.0))
        assert_flushes_at(scheduler, 5_000.0)

    def test_model_not_consulted_for_best_effort_groups(self, channel_uses):
        # Best-effort (infinite-deadline) jobs never query the model, so a
        # poisoned model cannot break a purely best-effort load.
        def poisoned(jobs):
            raise AssertionError("model must not be called")

        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=100.0,
                                      decode_time_model=poisoned)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0))
        assert_flushes_at(scheduler, 100.0)

    def test_best_effort_jobs_never_flush_adaptively(self, channel_uses):
        scheduler = EDFBatchScheduler(max_batch=8, max_wait_us=math.inf,
                                      decode_time_model=self.model_us)
        scheduler.submit(make_job(channel_uses, 0, arrival=0.0))  # inf dl
        assert scheduler.advance(1e9) == []
        drained = scheduler.drain()
        assert len(drained) == 1 and drained[0].reason == FLUSH_DRAIN

    def test_service_builds_model_only_when_asked(self, channel_uses):
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=10))
        assert CranService(decoder).scheduler_model() is None
        model = CranService(decoder, adaptive_wait=True).scheduler_model()
        assert model is not None
        jobs = [make_job(channel_uses, i, arrival=0.0) for i in range(4)]
        one = model(jobs[:1])
        four = model(jobs)
        # One shared overhead plus per-member amortised compute: positive,
        # growing with pack size, and anchored on the decoder's overheads.
        overhead = decoder.annealer.overheads.total_us(10)
        assert one > overhead > 0.0
        assert four > one
        assert model is not decode_time_model_for  # bound model, not the fn
        # A pack is priced from its jobs: one overhead, then each member's
        # own amortised compute — a QPSK member costs what it costs alone,
        # whatever it is packed with, and member order does not matter.
        qpsk = make_job(channel_uses, 9, arrival=0.0, modulation="QPSK")
        headroom = 1.1
        compute = lambda members: model(members) / headroom - overhead
        assert compute([qpsk]) > compute(jobs[:1])
        assert compute(jobs[:2] + [qpsk]) == pytest.approx(
            2 * compute(jobs[:1]) + compute([qpsk]), rel=1e-12)
        assert model([qpsk] + jobs[:2]) == model(jobs[:2] + [qpsk])

    def test_adaptive_detections_identical_to_fixed(self, channel_uses):
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=8))
        jobs = [make_job(channel_uses, i, arrival=2_000.0 * i,
                         deadline=2_000.0 * i + 9_000.0)
                for i in range(6)]
        fixed = CranService(decoder, max_batch=4,
                            max_wait_us=8_000.0).run(jobs)
        adaptive = CranService(decoder, max_batch=4, max_wait_us=8_000.0,
                               adaptive_wait=True).run(jobs)
        assert adaptive.jobs_completed == fixed.jobs_completed == 6
        for a, b in zip(fixed.results, adaptive.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
        # The adaptive scheduler can only flush earlier, never later.
        for a, b in zip(fixed.results, adaptive.results):
            assert b.flush_time_us <= a.flush_time_us + 1e-9

    @pytest.fixture(scope="class")
    def deadline_load(self):
        """12 bursts of 4 QPSK jobs, 100 ms apart on average, each due 150 ms
        after it arrives, and its serving under a fixed 200 ms wait."""
        jobs = PoissonTrafficGenerator(
            serving_trace(), modulations="QPSK",
            mean_interarrival_us=100_000.0, burst_subcarriers=4,
            user_snrs_db=20.0, deadline_us=150_000.0).generate(
                12, random_state=2)
        decoder = QuAMaxDecoder(QuantumAnnealerSimulator(),
                                AnnealerParameters(num_anneals=50))
        policy = dict(max_batch=16, max_wait_us=200_000.0)
        fixed = CranService(decoder, **policy).run(jobs)
        return jobs, decoder, policy, fixed

    @pytest.mark.parametrize("model", ["analytic", "online"])
    def test_deadline_driven_flush_meets_every_deadline(self, deadline_load,
                                                        model):
        # The fixed wait holds half the jobs past their deadline; flushing
        # when the most urgent job's slack meets the modelled decode time —
        # the analytic model, or the online EWMA that falls back to it —
        # misses none.  Only flush timing moves.  The analytic model is
        # served through the scheduler and an inline pool directly.
        jobs, decoder, policy, fixed = deadline_load
        if model == "analytic":
            scheduler = EDFBatchScheduler(
                **policy, decode_time_model=decode_time_model_for(decoder))
            with WorkerPool(decoder) as pool:
                for job in sorted(jobs, key=lambda job: (job.arrival_time_us,
                                                         job.job_id)):
                    for batch in scheduler.submit(job):
                        pool.submit(batch)
                for batch in scheduler.drain():
                    pool.submit(batch)
            results, telemetry = pool.results(), pool.telemetry.snapshot()
        else:
            adaptive = CranService(decoder, adaptive_wait=True,
                                   **policy).run(jobs)
            results, telemetry = adaptive.results, adaptive.telemetry
        assert fixed.jobs_completed == len(results) == 48
        assert fixed.telemetry["deadline_miss_rate"] == 0.5
        assert telemetry["deadline_miss_rate"] == 0.0
        # About 253 000 virtual us fixed, 145 000 adaptive.
        assert (telemetry["latency_us"]["p99"]
                < fixed.telemetry["latency_us"]["p99"])
        for a, b in zip(fixed.results, results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
