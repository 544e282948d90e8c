"""Process-pool execution mode of the C-RAN worker pool.

The contracts mirror the threaded mode's, plus the process-specific ones:

* per-job detections are bit-for-bit identical to inline serving (each job
  decodes from its own private stream, wherever it runs);
* virtual-time accounting — and with it every latency/deadline statistic —
  is identical to the threaded mode for the same offered load and worker
  count (batches credit in flush order in both);
* outcomes come back as one pickle per pack through the result pipe, and
  unpickle exactly (the identity cases below);
* worker failures — and a failed unpickle in the parent — are accounted as
  shed and surfaced at ``close()``.
"""

import math
import pickle
import threading

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import DecodeBatch
from repro.cran.service import CranService
from repro.cran.traffic import PoissonTrafficGenerator
from repro.cran.tracing import EVENT_JOB_SHED
from repro.cran.workers import MODES, WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError
from repro.mimo.system import MimoUplink


def make_decoder():
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=8))


class BoomDecoder:
    """Minimal decoder stand-in whose batch decode always fails."""

    class annealer:  # noqa: D106 - attribute shim for service accounting
        overheads = QuantumAnnealerSimulator(
            ChimeraGraph.ideal(2, 2)).overheads

    def detect_batch(self, channel_uses, random_states=None, rng=None):
        raise RuntimeError("boom")


@pytest.fixture(scope="module")
def decoder():
    return make_decoder()


@pytest.fixture(scope="module")
def job_pool():
    link = MimoUplink(num_users=2, constellation="BPSK")
    rng = np.random.default_rng(0)
    return [
        DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                  channel_use=link.transmit(random_state=rng),
                  arrival_time_us=10.0 * i, deadline_us=10.0 * i + 1e6,
                  seed=200 + i)
        for i in range(8)
    ]


def make_batch(jobs, flush_time_us, reason="full"):
    return DecodeBatch(jobs=tuple(jobs),
                       flush_time_us=flush_time_us, reason=reason)


class TestProcessPool:
    def test_invalid_mode_rejected(self, decoder):
        assert MODES == ("thread", "process")
        with pytest.raises(SchedulingError):
            WorkerPool(decoder, num_workers=1, mode="coroutine")

    def test_detections_identical_to_inline(self, decoder, job_pool):
        inline = WorkerPool(decoder)
        for start in (0, 3):
            inline.submit(make_batch(job_pool[start:start + 3],
                                     flush_time_us=50.0 + start))
        with WorkerPool(make_decoder(), num_workers=2,
                        mode="process") as pool:
            for start in (0, 3):
                pool.submit(make_batch(job_pool[start:start + 3],
                                       flush_time_us=50.0 + start))
        expected = inline.results()
        actual = pool.results()
        assert [r.job.job_id for r in actual] == [r.job.job_id
                                                  for r in expected]
        for a, b in zip(expected, actual):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
            np.testing.assert_array_equal(a.result.run.solutions.samples,
                                          b.result.run.solutions.samples)

    def test_accounting_matches_threaded_mode(self, job_pool):
        batches = [make_batch(job_pool[0:3], flush_time_us=50.0),
                   make_batch(job_pool[3:6], flush_time_us=60.0),
                   make_batch(job_pool[6:8], flush_time_us=70.0)]
        timelines = {}
        for mode in MODES:
            with WorkerPool(make_decoder(), num_workers=2,
                            mode=mode) as pool:
                for batch in batches:
                    pool.submit(batch)
            timelines[mode] = [(r.job.job_id, r.flush_time_us,
                                r.start_time_us, r.finish_time_us)
                               for r in pool.results()]
        assert timelines["process"] == timelines["thread"]

    def test_worker_failure_sheds_and_surfaces(self, job_pool):
        pool = WorkerPool(BoomDecoder(), num_workers=1, mode="process")
        pool.submit(make_batch(job_pool[:2], flush_time_us=10.0))
        with pytest.raises(Exception):
            pool.close()
        assert [job.job_id for job in pool.shed_jobs] == [0, 1]
        assert pool.results() == []

    def test_failed_unpickle_in_parent_sheds_and_surfaces(self, job_pool,
                                                          monkeypatch):
        def corrupt_loads(data):
            raise ValueError("corrupt result payload")

        # The worker decodes and pickles its outcomes; the parent's unpickle
        # fails inside the pool's result callback.
        monkeypatch.setattr("repro.cran.workers.pickle.loads", corrupt_loads)
        pool = WorkerPool(make_decoder(), num_workers=1, mode="process")
        pool.submit(make_batch(job_pool[:2], flush_time_us=10.0))
        # close() returns (the result-handler thread survived) and raises
        # the original error, unmasked.
        raised = []

        def close():
            try:
                pool.close()
            except ValueError as error:
                raised.append(str(error))

        closer = threading.Thread(target=close, daemon=True)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert raised == ["corrupt result payload"]
        assert [(event.job_id, event.attrs["stage"])
                for event in pool.events() if event.name == EVENT_JOB_SHED
                ] == [(0, "process_error"), (1, "process_error")]
        telemetry = pool.telemetry
        assert telemetry.jobs_completed + telemetry.jobs_shed == 2
        assert telemetry.jobs_shed == 2

    def test_batches_and_jobs_pickle(self, job_pool):
        batch = make_batch(job_pool[:2], flush_time_us=5.0)
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.size == 2
        assert clone.jobs[0].structure_key == batch.jobs[0].structure_key
        np.testing.assert_array_equal(
            clone.jobs[0].channel_use.received,
            batch.jobs[0].channel_use.received)
        # The private stream is part of the spec: a shipped job recreates
        # the exact generator its origin would have used.
        assert (clone.jobs[0].rng().random(4)
                == batch.jobs[0].rng().random(4)).all()


class TestProcessService:
    @pytest.fixture(scope="class")
    def jobs(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=8).generate(num_frames=1, random_state=0)
        generator = PoissonTrafficGenerator(
            trace, modulations="QPSK", mean_interarrival_us=10.0,
            burst_subcarriers=4, user_snrs_db=20.0, deadline_us=120_000.0)
        return generator.generate(5, random_state=0)

    def test_service_process_mode_identical_and_deterministic(self, jobs):
        decoder = make_decoder()
        inline = CranService(decoder, max_batch=4,
                             max_wait_us=50_000.0).run(jobs)
        process = CranService(decoder, max_batch=4, max_wait_us=50_000.0,
                              num_workers=2, mode="process").run(jobs)
        assert process.jobs_completed == inline.jobs_completed == len(jobs)
        for a, b in zip(inline.results, process.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
        threaded = CranService(decoder, max_batch=4, max_wait_us=50_000.0,
                               num_workers=2, mode="thread").run(jobs)
        # Virtual-clock telemetry is a deterministic function of the load
        # and worker count — identical across execution modes.
        assert (process.telemetry["latency_us"]
                == threaded.telemetry["latency_us"])
        assert (process.telemetry["deadline_miss_rate"]
                == threaded.telemetry["deadline_miss_rate"])

    def test_service_report_ber_survives_process_mode(self, jobs):
        report = CranService(make_decoder(), max_batch=4,
                             max_wait_us=math.inf, num_workers=1,
                             mode="process").run(jobs)
        ber = report.bit_error_rate()
        assert ber is not None and 0.0 <= ber <= 1.0
