"""Tests for the worker pool, telemetry and the end-to-end CranService."""

import importlib.util
import json
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.embedding import physical_qubits_required
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import DecodeBatch, EDFBatchScheduler
from repro.cran.service import CranService
from repro.cran.telemetry import (DECODE_TIME_EWMA_ALPHA,
                                  DECODE_TIME_MIN_SAMPLES)
from repro.cran.traffic import PoissonTrafficGenerator
from repro.cran.workers import QUEUE_CAPACITY, WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError
from repro.mimo.system import MimoUplink


@pytest.fixture(scope="module")
def decoder():
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=10))


@pytest.fixture(scope="module")
def job_pool():
    link = MimoUplink(num_users=2, constellation="BPSK")
    rng = np.random.default_rng(0)
    return [
        DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                  channel_use=link.transmit(random_state=rng),
                  arrival_time_us=10.0 * i, deadline_us=10.0 * i + 1e6,
                  seed=100 + i)
        for i in range(8)
    ]


def qpsk_job(job_id, arrival_time_us=0.0, deadline_us=math.inf):
    """A 2-user QPSK job: a second structure beside ``job_pool``'s BPSK."""
    link = MimoUplink(num_users=2, constellation="QPSK")
    return DecodeJob(job_id=job_id, user_id=0, frame=0, subcarrier=job_id,
                     channel_use=link.transmit(random_state=job_id),
                     arrival_time_us=arrival_time_us,
                     deadline_us=deadline_us, seed=900 + job_id)


def make_batch(jobs, flush_time_us, reason="full"):
    return DecodeBatch(jobs=tuple(jobs),
                       flush_time_us=flush_time_us, reason=reason)


def serve_repeats(pool, jobs, repeats):
    """Serve *jobs* as *repeats* more identical packs (fresh job ids)."""
    for repeat in range(1, repeats + 1):
        pool.submit(make_batch(
            [replace(job, job_id=job.job_id + 1000 * repeat) for job in jobs],
            flush_time_us=100_000.0 * repeat))


class HeldDecoder:
    """Wraps a decoder so every pack waits at :attr:`gate` once a worker
    has taken it: packs submitted meanwhile stay on their shards."""

    def __init__(self, inner):
        self.inner = inner
        self.annealer = inner.annealer
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def detect_batch(self, channel_uses, **kwargs):
        self.entered.release()
        self.gate.wait()
        return self.inner.detect_batch(channel_uses, **kwargs)


def hold_workers(pool, held, blockers):
    """Occupy one worker per blocker pack, returning once each holds one."""
    for flush, jobs in enumerate(blockers):
        pool.submit(make_batch(jobs, flush_time_us=float(flush)))
    for _ in blockers:
        assert held.entered.acquire(timeout=60)


class TestWorkerPool:
    def test_inline_decode_and_accounting(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        batch = make_batch(job_pool[:3], flush_time_us=50.0)
        pool.submit(batch)
        results = pool.results()
        assert [r.job.job_id for r in results] == [0, 1, 2]
        first = results[0]
        # One shared QA-job overhead plus the pack's amortised compute.
        expected_service = (
            decoder.annealer.overheads.total_us(10)
            + sum(r.result.run.compute_time_us for r in results))
        assert first.start_time_us == 50.0
        assert first.finish_time_us == pytest.approx(50.0 + expected_service)
        # All jobs of a pack complete together.
        assert len({r.finish_time_us for r in results}) == 1
        assert all(r.batch_size == 3 for r in results)
        assert all(r.deadline_met for r in results)

    def test_virtual_machine_queues_consecutive_batches(self, decoder,
                                                        job_pool):
        pool = WorkerPool(decoder)
        pool.submit(make_batch(job_pool[:2], flush_time_us=0.0))
        pool.submit(make_batch(job_pool[2:4], flush_time_us=1.0))
        results = pool.results()
        first_finish = results[0].finish_time_us
        second = [r for r in results if r.job.job_id == 2][0]
        # The single virtual QA machine was busy: batch 2 starts when it
        # frees, not at its flush time.
        assert second.start_time_us == pytest.approx(first_finish)

    def test_multiple_virtual_machines_run_in_parallel(self, decoder,
                                                       job_pool):
        pool = WorkerPool(decoder, num_workers=2)
        pool.submit(make_batch(job_pool[:2], flush_time_us=0.0))
        pool.submit(make_batch(job_pool[2:4], flush_time_us=1.0))
        pool.close()
        second = [r for r in pool.results() if r.job.job_id == 2][0]
        assert second.start_time_us == pytest.approx(1.0)

    def test_threaded_results_match_inline(self, decoder, job_pool):
        batches = [make_batch(job_pool[i:i + 2], flush_time_us=float(i))
                   for i in (0, 2, 4, 6)]
        inline = WorkerPool(decoder)
        for batch in batches:
            inline.submit(batch)
        threaded = WorkerPool(decoder, num_workers=1)
        for batch in batches:
            threaded.submit(batch)
        threaded.close()
        # Flush-order crediting makes the virtual timeline — not just the
        # decoded bits — identical between inline and threaded execution.
        for a, b in zip(inline.results(), threaded.results()):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
            assert a.start_time_us == b.start_time_us
            assert a.finish_time_us == b.finish_time_us

    def test_threaded_accounting_deterministic_across_runs(self, decoder,
                                                           job_pool):
        def run_once():
            pool = WorkerPool(decoder, num_workers=2)
            for i in (0, 2, 4, 6):
                pool.submit(make_batch(job_pool[i:i + 2],
                                       flush_time_us=float(i)))
            pool.close()
            return [(r.job.job_id, r.start_time_us, r.finish_time_us)
                    for r in pool.results()]

        assert run_once() == run_once()

    def test_threaded_accounting_holds_under_lock_contention(
            self, decoder, job_pool):
        # More workers than cores, more packs than the queue holds (so the
        # producer blocks on the executor's lock while workers report into
        # the pool's) and a shortened switch interval: a lost update
        # between the two locks would drop a result or move a stamp.
        import sys

        def timeline():
            with WorkerPool(decoder, num_workers=8) as pool:
                for round_ in range(4):
                    for job in job_pool:
                        pool.submit(make_batch([job], 100.0 * round_))
            return sorted((r.job.job_id, r.start_time_us, r.finish_time_us)
                          for r in pool.results())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            contended = timeline()
        finally:
            sys.setswitchinterval(interval)
        assert len(contended) == 4 * len(job_pool)
        # The reference is the same eight-worker pool at the default switch
        # interval: crediting is in submission order, so the timelines
        # must match.
        assert contended == timeline()

    def test_submit_after_close_rejected(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        pool.close()
        with pytest.raises(SchedulingError):
            pool.submit(make_batch(job_pool[:1], flush_time_us=0.0))

    def test_inline_failure_frees_crediting_slot(self, decoder, job_pool):
        class FlakyDecoder:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0
                self.annealer = inner.annealer

            def detect_batch(self, channel_uses, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient")
                return self.inner.detect_batch(channel_uses, **kwargs)

        pool = WorkerPool(FlakyDecoder(decoder))
        with pytest.raises(RuntimeError):
            pool.submit(make_batch(job_pool[:2], flush_time_us=0.0))
        # A caller treating the failure as transient keeps serving: later
        # batches must still decode AND be credited to results/telemetry.
        pool.submit(make_batch(job_pool[2:4], flush_time_us=1.0))
        assert [r.job.job_id for r in pool.results()] == [2, 3]
        assert pool.telemetry.jobs_completed == 2
        assert [job.job_id for job in pool.shed_jobs] == [0, 1]

    def test_dead_worker_never_deadlocks_blocking_producer(self, job_pool):
        class BoomDecoder:
            def detect_batch(self, channel_uses, **kwargs):
                raise RuntimeError("decoder exploded")

        pool = WorkerPool(BoomDecoder(), num_workers=1)
        # More batches than the queue holds: if the dead worker stopped
        # draining, a submit past QUEUE_CAPACITY + 1 would block forever.
        packs = QUEUE_CAPACITY + 4
        for index in range(packs):
            pool.submit(make_batch(
                [replace(job_pool[index % len(job_pool)], job_id=index)],
                flush_time_us=float(index)))
        with pytest.raises(RuntimeError, match="decoder exploded"):
            pool.close()
        # Every job of every post-failure batch is accounted as shed.
        assert pool.results() == []
        assert len(pool.shed_jobs) == packs
        assert pool.telemetry.jobs_shed == packs

    def test_sticky_routing_round_robins_first_seen_structures(self, decoder,
                                                               job_pool):
        qpsk_jobs = [qpsk_job(job_id=100 + i) for i in range(4)]
        held = HeldDecoder(decoder)
        pool = WorkerPool(held, num_workers=2)
        # The blockers see BPSK, then QPSK, first.
        hold_workers(pool, held, [job_pool[6:8], [qpsk_job(job_id=200)]])
        pool.submit(make_batch(job_pool[:2], flush_time_us=0.0))
        pool.submit(make_batch(qpsk_jobs[:2], flush_time_us=1.0))
        pool.submit(make_batch(job_pool[2:4], flush_time_us=2.0))
        # First-seen structures round-robin across shards; repeats stick to
        # their first shard, keeping that worker's sampler cache hot.
        assert [len(shard) for shard in pool._executor._shards] == [2, 1]
        # A mixed pack routes by the set of structures it holds, whatever
        # the member order: a new mix is a new route, a repeat sticks.
        pool.submit(make_batch([job_pool[4], qpsk_jobs[2]],
                               flush_time_us=3.0))
        pool.submit(make_batch([qpsk_jobs[3], job_pool[5]],
                               flush_time_us=4.0))
        assert [len(shard) for shard in pool._executor._shards] == [4, 1]
        held.gate.set()
        pool.close()
        assert [r.job.job_id for r in pool.results()] == [
            0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102, 103, 200]

    def test_idle_worker_steals_from_longest_shard(self, decoder, job_pool):
        held = HeldDecoder(decoder)
        pool = WorkerPool(held, num_workers=2)
        # Whichever worker wakes first, one of the two blockers is stolen.
        hold_workers(pool, held, [job_pool[6:7], job_pool[7:8]])
        shards = pool._executor
        assert shards._steals == 1
        for start in (0, 2, 4):
            pool.submit(make_batch(job_pool[start:start + 2],
                                   flush_time_us=float(start)))
        # One structure key: sticky routing lands everything on shard 0.
        assert [len(shard) for shard in shards._shards] == [3, 0]
        with shards._lock:
            item = shards._take_locked(1)
            # Worker 1's own shard is empty, so it steals the oldest batch
            # from the longest other shard instead of going idle.
            assert item is not None
            assert item[0] == 2  # submission index, after two blockers
            assert shards._steals == 2
            shards._shards[1].append(item)
            shards._pending += 1
        assert pool.worker_info()["steal_count"] == 2
        held.gate.set()
        pool.close()
        assert [r.job.job_id for r in pool.results()] == [
            0, 1, 2, 3, 4, 5, 6, 7]


class FailingHeld(HeldDecoder):
    """A held decoder whose packs raise once released."""

    def detect_batch(self, channel_uses, **kwargs):
        super().detect_batch(channel_uses, **kwargs)
        raise RuntimeError("decoder failed")


class TestWaitIdle:
    """``wait_idle`` returns once every submitted pack is credited, shed or
    parked, although crediting wakes the barrier only while a caller is
    registered on it — inline serving, which never waits, pays no notify.
    Each case registers the waiter while the pool's one worker holds the
    first pack and a second pack queues behind it, then releases it."""

    @staticmethod
    def wait_while_held(pool, held, jobs):
        for flush, pack in enumerate((jobs[:1], jobs[1:2])):
            pool.submit(make_batch(pack, flush_time_us=float(flush)))
        assert held.entered.acquire(timeout=60)
        waiter = threading.Thread(target=pool.wait_idle, daemon=True)
        waiter.start()
        while True:  # registered: it must be woken, not find the pool idle
            with pool._lock:
                if pool._idle_waiters:
                    break
            assert waiter.is_alive()
            waiter.join(timeout=0.01)
        held.gate.set()
        waiter.join(timeout=60)
        assert not waiter.is_alive()
        with pool._lock:
            assert pool._idle_waiters == 0
        return pool

    def test_returns_after_the_last_credit(self, decoder, job_pool):
        held = HeldDecoder(decoder)
        pool = self.wait_while_held(WorkerPool(held, num_workers=1), held,
                                    job_pool)
        pool.close()
        assert [r.job.job_id for r in pool.results()] == [0, 1]

    def test_returns_after_a_parked_failure(self, decoder, job_pool):
        from repro.cran.faults import FaultPlan

        plan = next(plan for plan in (
            FaultPlan(seed=seed, decode_error_rate=0.5) for seed in range(64))
            if plan.pack_fault(0) is None and plan.pack_fault(1) is not None)
        held = HeldDecoder(decoder)
        pool = self.wait_while_held(
            WorkerPool(held, num_workers=1, faults=plan), held, job_pool)
        failed = pool.take_failed()
        pool.close()
        assert [index for index, _, _ in failed] == [1]
        assert [r.job.job_id for r in pool.results()] == [0]

    def test_returns_after_shed_slots(self, decoder, job_pool):
        held = FailingHeld(decoder)
        pool = self.wait_while_held(WorkerPool(held, num_workers=1), held,
                                    job_pool)
        with pytest.raises(RuntimeError, match="decoder failed"):
            pool.close()
        assert [job.job_id for job in pool.shed_jobs] == [0, 1]
        assert pool.results() == []


class TestTelemetryRecorder:
    def test_batch_fill_and_latency(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        pool.submit(make_batch(job_pool[:3], flush_time_us=100.0))
        pool.submit(make_batch(job_pool[3:4], flush_time_us=200.0))
        assert telemetry.jobs_completed == 4
        assert telemetry.batches_decoded == 2
        assert telemetry.batch_fill_histogram == {1: 1, 3: 1}
        assert telemetry.mean_batch_fill() == pytest.approx(2.0)
        summary = telemetry.latency_summary()
        assert summary.count == 4
        assert summary[50.0] <= summary[99.0]
        snapshot = telemetry.snapshot()
        assert snapshot["jobs_completed"] == 4
        assert snapshot["latency_us"]["p99"] >= snapshot["latency_us"]["p50"]
        assert snapshot["flush_reasons"] == {"full": 2}

    def test_deadline_misses_counted(self, decoder):
        link = MimoUplink(num_users=2, constellation="BPSK")
        # Deadline far tighter than one QA job's overhead: must be missed.
        job = DecodeJob(job_id=0, user_id=0, frame=0, subcarrier=0,
                        channel_use=link.transmit(random_state=1),
                        arrival_time_us=0.0, deadline_us=10.0, seed=1)
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        pool.submit(make_batch([job], flush_time_us=0.0))
        assert telemetry.deadline_misses == 1
        assert telemetry.deadline_miss_rate() == 1.0

    def test_queue_depth_samples(self, decoder):
        telemetry = WorkerPool(decoder).telemetry
        telemetry.record_queue_depth(0.0, 3)
        telemetry.record_queue_depth(1.0, 7)
        assert telemetry.max_queue_depth() == 7
        assert telemetry.mean_queue_depth() == pytest.approx(5.0)

    def test_queue_depth_series_covers_the_whole_run(self, decoder):
        telemetry = WorkerPool(decoder).telemetry
        for step in range(1_000):
            telemetry.record_queue_depth(float(step), 999 - step)
        # No rolling window: the first, deepest sample still counts.
        assert telemetry.max_queue_depth() == 999
        assert telemetry.mean_queue_depth() == pytest.approx(499.5)

    def test_latency_summary_covers_every_job(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        pool.submit(make_batch(job_pool[:3], flush_time_us=0.0))
        pool.submit(make_batch(job_pool[3:5], flush_time_us=100_000.0))
        latencies = [result.latency_us for result in pool.results()]
        summary = telemetry.latency_summary()
        assert summary.count == len(latencies) == 5
        assert summary.mean_us == pytest.approx(np.mean(latencies))
        assert summary[99.0] == pytest.approx(np.percentile(latencies, 99.0))

    def test_folds_on_two_threads_while_four_workers_append(self, decoder,
                                                            job_pool):
        """The log is appended by four worker threads (more than the
        cores) while two other threads fold it: every pack is folded once,
        none lost, none twice."""
        pool = WorkerPool(decoder, num_workers=4)
        telemetry, done = pool.telemetry, threading.Event()

        def keep_folding():
            while not done.is_set():
                telemetry.fold()

        readers = [threading.Thread(target=keep_folding, daemon=True)
                   for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for index in range(48):
                pool.submit(make_batch(
                    [replace(job_pool[index % 8], job_id=index)],
                    flush_time_us=float(index)))
            pool.close()
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert telemetry.jobs_completed == len(pool.results()) == 48
        assert telemetry.batch_fill_histogram == {1: 48}
        assert sum(telemetry.snapshot()["flush_reasons"].values()) == 48

    def test_empty_recorder_snapshot(self, decoder):
        snapshot = WorkerPool(decoder).telemetry.snapshot()
        assert snapshot["jobs_completed"] == 0
        assert snapshot["throughput_jobs_per_s"] == 0.0
        # Empty series report None, not NaN — the snapshot must stay
        # strict-JSON-safe (json.dumps(..., allow_nan=False)).
        assert snapshot["latency_us"]["mean"] is None
        assert snapshot["latency_us"]["p99"] is None
        assert snapshot["queue_delay_us_mean"] is None
        json.dumps(snapshot, allow_nan=False)


class TestDecodeTimeEwma:
    """The online per-structure decode-time model, folded from the pool's
    log (tests reading its EWMA state fold the log first)."""

    def test_estimate_requires_min_samples(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        for pack in range(DECODE_TIME_MIN_SAMPLES):
            assert telemetry.decode_time_us(job_pool[:2]) is None
            pool.submit(make_batch(job_pool[pack:pack + 1],
                                   flush_time_us=10_000.0 * pack))
        estimate = telemetry.decode_time_us(job_pool[:2])
        assert estimate is not None and estimate > 0.0
        # Unknown structures stay analytic-fallback territory — and take
        # every pack they ride in with them.
        stranger = qpsk_job(job_id=50)
        assert telemetry.decode_time_us([stranger]) is None
        assert telemetry.decode_time_us(job_pool[:2] + [stranger]) is None

    def test_ewma_tracks_observed_service_and_size(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        pool.submit(make_batch(job_pool[:3], flush_time_us=0.0))
        serve_repeats(pool, job_pool[:3], DECODE_TIME_MIN_SAMPLES - 1)
        first = pool.results()[0]
        service_us = first.finish_time_us - first.start_time_us
        # Equal observations: prediction reproduces the affine service model.
        overhead_us = decoder.annealer.overheads.total_us(
            first.result.run.num_anneals)
        per_job = (service_us - overhead_us) / 3.0
        expected_for_two = overhead_us + 2 * per_job
        assert telemetry.decode_time_us(
            job_pool[:2], overhead_us=overhead_us) \
            == pytest.approx(expected_for_two)
        # Without the overhead split the estimate is the amortised scaling.
        assert telemetry.decode_time_us(job_pool[:3]) \
            == pytest.approx(service_us)
        assert telemetry.snapshot()["decode_time_per_job_us"]

    def test_newest_pack_weighs_alpha(self, decoder, job_pool):
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        pool.submit(make_batch(job_pool[:1], flush_time_us=0.0))
        pool.submit(make_batch(job_pool[1:4], flush_time_us=100_000.0))
        first, second = pool.results()[0], pool.results()[1]
        telemetry.fold()
        services = [result.finish_time_us - result.start_time_us
                    for result in (first, second)]
        key = job_pool[0].structure_key
        alpha = DECODE_TIME_EWMA_ALPHA
        assert telemetry._decode_size_ewma[key] == pytest.approx(
            (1.0 - alpha) * 1.0 + alpha * 3.0)
        assert telemetry._decode_service_ewma_us[key] == pytest.approx(
            (1.0 - alpha) * services[0] + alpha * services[1])

    def test_one_structure_pack_observes_its_service_time_exactly(
            self, decoder, job_pool):
        # What the recorder was fed before packs could mix: the pack's own
        # service time and size, not a float's width away from them.
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        pool.submit(make_batch(job_pool[:3], flush_time_us=0.0))
        first = pool.results()[0]
        key = job_pool[0].structure_key
        telemetry.fold()
        assert telemetry._decode_service_ewma_us == {
            key: first.finish_time_us - first.start_time_us}
        assert telemetry._decode_size_ewma == {key: 3.0}

    def test_mixed_pack_feeds_each_structure_its_share(self, decoder,
                                                       job_pool):
        pool = WorkerPool(decoder)
        telemetry = pool.telemetry
        mixed = job_pool[:2] + [qpsk_job(job_id=50), qpsk_job(job_id=51),
                                qpsk_job(job_id=52)]
        pool.submit(make_batch(mixed, flush_time_us=0.0))
        results = pool.results()
        service_us = results[0].finish_time_us - results[0].start_time_us
        overhead_us = decoder.annealer.overheads.total_us(10)
        bpsk_us = results[0].result.run.compute_time_us
        qpsk_us = results[-1].result.run.compute_time_us
        assert qpsk_us > bpsk_us  # a larger share of the chip
        # Each structure observed the overhead in full plus its members'
        # compute, and its own member count...
        bpsk, qpsk = job_pool[0].structure_key, mixed[-1].structure_key
        telemetry.fold()
        assert telemetry._decode_size_ewma == {bpsk: 2.0, qpsk: 3.0}
        assert telemetry._decode_service_ewma_us[bpsk] == pytest.approx(
            overhead_us + 2 * bpsk_us, rel=1e-12)
        assert telemetry._decode_service_ewma_us[qpsk] == pytest.approx(
            overhead_us + 3 * qpsk_us, rel=1e-12)
        # ... so the shares add up to the pack, and, once the model trusts
        # them, the pack is predicted back as what it cost — as is any
        # other mix of the two.
        serve_repeats(pool, mixed, DECODE_TIME_MIN_SAMPLES - 1)
        assert telemetry.decode_time_us(mixed, overhead_us=overhead_us) \
            == pytest.approx(service_us, rel=1e-12)
        assert telemetry.decode_time_us(
            mixed[1:4], overhead_us=overhead_us) == pytest.approx(
                overhead_us + bpsk_us + 2 * qpsk_us, rel=1e-12)
        assert len(telemetry.snapshot()["decode_time_per_job_us"]) == 2

    def test_online_model_falls_back_then_takes_over(self, decoder):
        from repro.cran.service import online_decode_time_model

        telemetry = WorkerPool(decoder).telemetry
        calls = []

        def fallback(jobs):
            calls.append(jobs)
            return 1_234.0

        model = online_decode_time_model(telemetry, fallback,
                                         overhead_us=100.0)
        jobs = [qpsk_job(job_id=i) for i in range(3)]
        key = jobs[0].structure_key
        # No observations yet: analytic fallback.
        assert model(jobs[:2]) == pytest.approx(1_234.0)
        assert calls == [jobs[:2]]
        # Feed trusted observations directly into the recorder's EWMA state.
        telemetry._decode_service_ewma_us[key] = 1_100.0
        telemetry._decode_size_ewma[key] = 2.0
        telemetry._decode_time_samples[key] = DECODE_TIME_MIN_SAMPLES
        # (1100 - 100) / 2 = 500 per job; pack of 3 -> 100 + 1500, x1.1
        # (DECODE_TIME_MARGIN).
        assert model(jobs) == pytest.approx((100.0 + 3 * 500.0) * 1.1)
        assert len(calls) == 1

    def test_degenerate_overhead_split_returns_none(self, decoder):
        # Satellite regression: when the claimed overhead exceeds the
        # observed service EWMA the per-job split is negative.  Clamping it
        # to zero would make predictions size-independent (overhead + 0*n)
        # and starve the adaptive wait; the estimate must instead defer to
        # the analytic fallback.
        telemetry = WorkerPool(decoder).telemetry
        jobs = [qpsk_job(job_id=i) for i in range(3)]
        key = jobs[0].structure_key
        telemetry._decode_service_ewma_us[key] = 1_100.0
        telemetry._decode_size_ewma[key] = 2.0
        telemetry._decode_time_samples[key] = DECODE_TIME_MIN_SAMPLES
        assert telemetry.decode_time_us(jobs, overhead_us=5_000.0) is None
        # The online wrapper then uses the fallback, never a flat estimate.
        from repro.cran.service import online_decode_time_model

        model = online_decode_time_model(telemetry, lambda jobs: 777.0,
                                         overhead_us=5_000.0)
        assert model(jobs) == pytest.approx(777.0)
        # A sane overhead keeps the online estimate size-dependent.
        assert telemetry.decode_time_us(jobs, overhead_us=100.0) \
            > telemetry.decode_time_us(jobs[:1], overhead_us=100.0)


class TestChipLevelPacks:
    """Exact statements on the virtual clock about what a QA job is: one
    programming of the chip for whatever is pending.  No wall clock."""

    def test_three_structures_in_one_wait_window_are_one_pack(self, decoder):
        # 2-user BPSK, 2-user QPSK and 3-user QPSK: 2, 4 and 6 logical
        # variables, i.e. three different Ising structures and embeddings.
        three_user = MimoUplink(num_users=3, constellation="QPSK")
        bpsk = MimoUplink(num_users=2, constellation="BPSK")
        jobs = [
            DecodeJob(job_id=0, user_id=0, frame=0, subcarrier=0,
                      channel_use=bpsk.transmit(random_state=0),
                      arrival_time_us=0.0, deadline_us=150_000.0, seed=1),
            qpsk_job(job_id=1, arrival_time_us=4_000.0, deadline_us=90_000.0),
            DecodeJob(job_id=2, user_id=0, frame=0, subcarrier=2,
                      channel_use=three_user.transmit(random_state=2),
                      arrival_time_us=16_000.0, deadline_us=120_000.0,
                      seed=3),
            # A later arrival, so the window above closes by timeout.
            qpsk_job(job_id=3, arrival_time_us=500_000.0),
        ]
        report = CranService(decoder, max_batch=8, max_wait_us=20_000.0,
                             tracing=True).run(jobs)
        results = report.results[:3]
        assert report.telemetry["batches_decoded"] == 2
        assert report.telemetry["flush_reasons"] == {"timeout": 1,
                                                     "drain": 1}
        flush = next(event for event in report.trace
                     if event.name == "pack.flush")
        assert flush.ts_us == 20_000.0
        assert flush.attrs["structure"] == "2x2/BPSK+2x2/QPSK+3x3/QPSK"
        assert flush.attrs["job_ids"] == [1, 2, 0]  # EDF across structures
        # One chip programming: one start, one finish, one overhead, and
        # every member's own amortised compute on top — to the last bit.
        start, = {result.start_time_us for result in results}
        finish, = {result.finish_time_us for result in results}
        compute_us = [result.result.run.compute_time_us
                      for result in results]
        num_anneals = decoder.parameters.num_anneals
        assert start == 20_000.0
        assert finish - start == (
            decoder.annealer.overheads.total_us(num_anneals)
            + sum(compute_us))
        # The chip-share identity that makes the sum meaningful across
        # structures: a member's compute is the anneal time times the share
        # of the chip its embedding occupies, so the pack's compute is the
        # anneal time times the share of the chip that was programmed.
        chip = decoder.annealer.num_qubits
        anneal_us = num_anneals * decoder.parameters.schedule.duration_us
        qubits = [physical_qubits_required(variables, 4)
                  for variables in (2, 4, 6)]
        assert qubits == [4, 8, 18] and chip == 128
        assert compute_us == [anneal_us * used / chip for used in qubits]
        assert sum(compute_us) == anneal_us * sum(qubits) / chip
        # Served alone, each job pays the overhead on its own — and decodes
        # to the same bits.
        alone = CranService(decoder, max_batch=1,
                            max_wait_us=math.inf).run(jobs)
        assert alone.telemetry["batches_decoded"] == 4
        for ours, theirs in zip(results, alone.results):
            np.testing.assert_array_equal(ours.result.detection.bits,
                                          theirs.result.detection.bits)

    def test_scaled_down_mixed_modulation_no_longer_queues(self):
        # benchmarks/e2e's ``mixed_modulation`` at 4 bursts per stream: four
        # cells x three modulations = 12 structure keys on the benchmark's
        # own fixed timeline, 150 ms deadlines, 50 ms wait, 50 anneals (so
        # a pack's service is 53.25 ms of overhead plus its compute).
        spec = importlib.util.spec_from_file_location(
            "e2e_workloads", Path(__file__).resolve().parent.parent
            / "benchmarks" / "e2e" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.mixed_modulation(7, replace(
            workloads.SMOKE, mixed_bursts_per_stream=4, num_anneals=50))
        assert len(workload.jobs) == 192
        assert len({job.structure_key for job in workload.jobs}) == 12
        report = CranService(workload.decoder,
                             **workload.service).run(workload.jobs)
        telemetry = report.telemetry
        # One group per structure key served this load as 47 packs (fill
        # 4.09) whose programmings queued behind one another on the one
        # virtual machine: p99 245 647 us, 28 deadlines missed.
        assert telemetry["batches_decoded"] == 33
        assert telemetry["flush_reasons"] == {
            "drain": 1, "full": 1, "timeout": 31}
        assert telemetry["deadline_misses"] == 0
        assert telemetry["latency_us"]["p99"] == pytest.approx(
            105_653.16323066782, rel=1e-12)
        # Hardly anything waits for the machine any more — one pack, due
        # 2.4 ms after the one full pack left, starts when that finishes;
        # every other starts the moment it is flushed — so the tail is the
        # wait bound plus one service time.
        waits = sorted({result.start_time_us - result.flush_time_us
                        for result in report.results})
        assert waits == [0.0, pytest.approx(2_402.37544140144, rel=1e-9)]
        overhead_us = workload.decoder.annealer.overheads.total_us(50)
        assert overhead_us == 53_250.0
        worst = max(report.results, key=lambda result: result.latency_us)
        assert worst.queue_delay_us == 50_000.0
        assert 0.0 < (worst.latency_us - 50_000.0 - waits[1]
                      - overhead_us) < 2.0

    #: (arrival, deadline slack) of a one-structure load that walks every
    #: flush rule: a full pack, an arrival at the exact due time riding the
    #: timeout, a lone timeout, simultaneous arrivals, a drain.
    ONE_STRUCTURE_TIMELINE = [
        (0.0, 900.0), (10.0, 300.0), (20.0, 600.0), (30.0, math.inf),
        (50.0, 5000.0), (150.0, 400.0), (200.0, math.inf), (350.0, 2000.0),
        (360.0, 1500.0), (360.0, 1500.0), (400.0, 100.0), (600.0, 80.0),
        (900.0, 1200.0), (905.0, 1150.0)]

    @pytest.mark.parametrize("model, lone_timeout_us", [
        (None, 700.0),
        # 40 us per pack + 5 per member: job 11 (deadline 680) must start
        # by 680 - 45.
        (lambda jobs: 40.0 + 5.0 * len(jobs), 635.0),
    ])
    def test_one_structure_load_flushes_the_packs_it_always_did(
            self, job_pool, model, lone_timeout_us):
        # Frozen at the parent commit, where the scheduler kept one group
        # per structure key: (members in pack order, stamp, reason).  On a
        # load of one structure the single queue is that group.
        jobs = [DecodeJob(job_id=index, user_id=0, frame=0, subcarrier=index,
                          channel_use=job_pool[index % 4].channel_use,
                          arrival_time_us=arrival,
                          deadline_us=arrival + slack)
                for index, (arrival, slack)
                in enumerate(self.ONE_STRUCTURE_TIMELINE)]
        scheduler = EDFBatchScheduler(max_batch=4, max_wait_us=100.0,
                                      decode_time_model=model)
        batches = [batch for job in jobs for batch in scheduler.submit(job)]
        batches += scheduler.drain(now_us=950.0)
        assert [(batch.job_ids, batch.flush_time_us, batch.reason)
                for batch in batches] == [
            ((1, 2, 0, 3), 30.0, "full"),
            ((5, 4), 150.0, "timeout"),
            ((6,), 300.0, "timeout"),
            ((10, 8, 9, 7), 400.0, "full"),
            ((11,), lone_timeout_us, "timeout"),
            ((13, 12), 950.0, "drain")]
        assert {batch.structures for batch in batches} == {((2, 2, "BPSK"),)}


class TestCranService:
    @pytest.fixture(scope="class")
    def traffic(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=6).generate(num_frames=1, random_state=0)
        generator = PoissonTrafficGenerator(
            trace, modulations=("BPSK", "QPSK"),
            mean_interarrival_us=1_000.0, burst_subcarriers=2,
            deadline_us=500_000.0)
        return generator.generate(6, random_state=5)

    def test_serves_every_job(self, decoder, traffic):
        report = CranService(decoder, max_batch=4,
                             max_wait_us=5_000.0).run(traffic)
        assert report.jobs_completed == len(traffic)
        assert not report.shed_jobs
        assert [r.job.job_id for r in report.results] == sorted(
            job.job_id for job in traffic)
        assert report.wall_time_s > 0
        assert report.wall_jobs_per_s > 0
        assert report.telemetry["jobs_completed"] == len(traffic)
        assert report.telemetry["batches_decoded"] >= 1
        assert 0.0 <= report.bit_error_rate() <= 1.0

    def test_drain_phase_samples_queue_depth(self, decoder, traffic):
        # Satellite regression: with unbounded wait everything flushes at
        # drain, after the last arrival.  Depth must be sampled as the drain
        # empties the groups — ending at zero — not stop at the last
        # arrival's (maximal) backlog.
        report = CranService(decoder, max_batch=64,
                             max_wait_us=math.inf).run(traffic)
        assert report.jobs_completed == len(traffic)
        assert report.telemetry["queue_depth_max"] == len(traffic)
        # The mean reflects the tail draining to empty, so it sits strictly
        # below the peak backlog and the sample set includes a zero.
        assert (report.telemetry["queue_depth_mean"]
                < report.telemetry["queue_depth_max"])

    def test_session_matches_run(self, decoder, traffic):
        # The incremental session is the substrate of run(): feeding the
        # same load in arrival order must reproduce the report exactly.
        service = CranService(decoder, max_batch=4, max_wait_us=5_000.0)
        batch_report = service.run(traffic)
        session = service.session()
        assert not session.closed
        for job in sorted(traffic,
                          key=lambda j: (j.arrival_time_us, j.job_id)):
            session.submit(job)
        report = session.close()
        assert session.closed
        # close() is idempotent: the same report object comes back.
        assert session.close() is report
        assert report.jobs_completed == batch_report.jobs_completed
        for a, b in zip(batch_report.results, report.results):
            assert a.job.job_id == b.job.job_id
            assert a.flush_time_us == b.flush_time_us
            assert a.finish_time_us == b.finish_time_us
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
        # The sampler-cache section reflects the shared decoder's warm-cache
        # state, so the second replay legitimately hits where the first
        # missed; everything the session itself accounts must match exactly.
        def scrub(telemetry):
            return {key: value for key, value in telemetry.items()
                    if key != "sampler_cache"}
        assert scrub(report.telemetry) == scrub(batch_report.telemetry)

    def test_deterministic_replay(self, decoder, traffic):
        service = CranService(decoder, max_batch=4, max_wait_us=5_000.0)
        first = service.run(traffic)
        second = service.run(traffic)
        for a, b in zip(first.results, second.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
            assert a.finish_time_us == b.finish_time_us
        assert (first.telemetry["latency_us"]["p99"]
                == second.telemetry["latency_us"]["p99"])

    def test_threaded_service_matches_inline_bits(self, decoder, traffic):
        inline = CranService(decoder, max_batch=4,
                             max_wait_us=5_000.0).run(traffic)
        threaded = CranService(decoder, max_batch=4, max_wait_us=5_000.0,
                               num_workers=2).run(traffic)
        assert threaded.jobs_completed == inline.jobs_completed
        for a, b in zip(inline.results, threaded.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)

    def test_adaptive_service_uses_online_model(self, decoder, traffic):
        """Satellite: adaptive_wait serving stays deterministic and
        bit-identical with the online decode-time model in the loop."""
        fixed = CranService(decoder, max_batch=4,
                            max_wait_us=5_000.0).run(traffic)
        online_a = CranService(decoder, max_batch=4, max_wait_us=5_000.0,
                               adaptive_wait=True).run(traffic)
        online_b = CranService(decoder, max_batch=4, max_wait_us=5_000.0,
                               adaptive_wait=True).run(traffic)
        assert online_a.jobs_completed == fixed.jobs_completed
        for a, b, c in zip(fixed.results, online_a.results,
                           online_b.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)
            # Inline serving is deterministic: two online runs agree on the
            # full timeline, not just the decodes.
            assert b.finish_time_us == c.finish_time_us
            assert b.flush_time_us == c.flush_time_us
            # The adaptive scheduler can only flush earlier, never later.
            assert b.flush_time_us <= a.flush_time_us + 1e-9
        assert online_a.telemetry["decode_time_per_job_us"]


class TestWarmSamplerCache:
    """Serving builds one sampler for the structure and then only hits the
    cache: at batch 1, where every job is its own QA submission, and at
    packs of 16 and 8, which rebind the one sampler to their size."""

    @pytest.mark.parametrize("max_batch", [1, 16])
    def test_serving_builds_once_with_cache_off_bits(self, max_batch):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=12, num_users=3,
            num_subcarriers=16).generate(num_frames=2, random_state=0)
        jobs = PoissonTrafficGenerator(
            trace, modulations="QPSK", mean_interarrival_us=10.0,
            burst_subcarriers=4, user_snrs_db=20.0,
            deadline_us=120_000.0).generate(6, random_state=0)
        assert len(jobs) == 24

        def serve(annealer):
            decoder = QuAMaxDecoder(annealer,
                                    AnnealerParameters(num_anneals=50))
            service = CranService(decoder, max_batch=max_batch,
                                  max_wait_us=math.inf)
            service.run(jobs[:1])  # the warm-up job pays the one build
            return decoder, service.run(jobs)

        warm_decoder, warm = serve(QuantumAnnealerSimulator())
        _, cold = serve(QuantumAnnealerSimulator(sampler_cache_size=0))
        packs = math.ceil(len(jobs) / max_batch)
        assert warm.telemetry["batches_decoded"] == packs
        info = warm_decoder.sampler_cache_info()
        assert (info["misses"], info["hits"]) == (1, packs)
        assert warm.jobs_completed == cold.jobs_completed == len(jobs)
        for a, b in zip(warm.results, cold.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)


class TestHostileJobTimes:
    """Non-finite times are rejected where the job is built, so nothing
    reaches the scheduler: a NaN arrival used to be served and turned the
    latency percentiles into ``None``; an infinite one used to be accepted
    and then made every later ``submit`` fail ("clock is already at inf")."""

    @pytest.mark.parametrize("times", [
        dict(arrival_time_us=math.nan),
        dict(arrival_time_us=math.inf),
        dict(arrival_time_us=-math.inf),
        dict(arrival_time_us=math.nan, deadline_us=1e6),
        dict(arrival_time_us=30.0, deadline_us=math.nan),
    ])
    def test_rejected_before_any_scheduler_state(self, decoder, job_pool,
                                                 times):
        session = CranService(decoder, max_batch=4,
                              max_wait_us=math.inf).session()
        session.submit(job_pool[0])
        session.submit(job_pool[1])
        depth, clock = session.queue_depth, session.clock_us
        assert (depth, clock) == (2, job_pool[1].arrival_time_us)
        with pytest.raises(SchedulingError, match="arrival_time_us|NaN"):
            session.submit(DecodeJob(
                job_id=99, user_id=0, frame=0, subcarrier=0,
                channel_use=job_pool[0].channel_use, **times))
        assert (session.queue_depth, session.clock_us) == (depth, clock)
        # The session is unharmed: later jobs are served, percentiles real.
        session.submit(job_pool[2])
        report = session.close()
        assert report.jobs_completed == 3 and not report.shed_jobs
        assert report.telemetry["latency_us"]["p99"] is not None

    def test_nothing_reaches_an_empty_scheduler(self, decoder, job_pool):
        session = CranService(decoder, max_batch=4,
                              max_wait_us=math.inf).session()
        with pytest.raises(SchedulingError):
            session.submit(DecodeJob(
                job_id=0, user_id=0, frame=0, subcarrier=0,
                channel_use=job_pool[0].channel_use,
                arrival_time_us=math.nan))
        assert session.queue_depth == 0
        assert session.clock_us == CranService(decoder).session().clock_us
        assert session.close().jobs_completed == 0

    def test_infinite_deadline_stays_the_best_effort_spelling(self,
                                                              job_pool):
        job = DecodeJob(job_id=1, user_id=0, frame=0, subcarrier=0,
                        channel_use=job_pool[0].channel_use,
                        arrival_time_us=5.0, deadline_us=math.inf)
        assert job.deadline_us == math.inf
