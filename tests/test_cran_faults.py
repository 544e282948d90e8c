"""Chaos suite: deterministic fault injection, supervision, retry, brownout.

The invariants under test are the serving stack's fault-tolerance contract:

* **No job is ever lost.**  Under any seeded :class:`FaultPlan`, every
  submitted job terminates exactly once — either a ``job.complete`` or a
  ``job.shed`` trace event — and ``completed + shed == submitted``.
* **Retries are bit-deterministic.**  A retried decode re-uses the job's
  private seed, so completed detections are bit-identical to a fault-free
  run of the same load.
* **Modes are equivalent.**  Thread and process pools under the same plan
  and worker count produce identical virtual-time stamps, sheds and bits.
* **Fault-free runs are untouched.**  A plan with all-zero rates (or no
  plan at all) changes nothing: same trace, same telemetry shape.
"""

import pickle
import threading
from collections import Counter

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran import (
    BrownoutConfig,
    BrownoutController,
    CranService,
    DecodeJob,
    FaultPlan,
    PackFault,
    WorkerPool,
)
from repro.cran.faults import FAULT_CRASH, FAULT_DECODE_ERROR, FAULT_SLOW
from repro.cran.scheduler import DecodeBatch
from repro.cran.traffic import PoissonTrafficGenerator
from repro.cran.tracing import (
    EVENT_BROWNOUT_CLOSE,
    EVENT_BROWNOUT_OPEN,
    EVENT_INGRESS_ADMIT,
    EVENT_JOB_COMPLETE,
    EVENT_JOB_RESTAMP,
    EVENT_JOB_RETRY,
    EVENT_JOB_SHED,
    EVENT_PACK_FAILED,
    EVENT_WORKER_RESTART,
)
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError, WorkerPoolError
from repro.mimo.system import MimoUplink


def make_decoder():
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=8))


@pytest.fixture(scope="module")
def jobs():
    trace = ArgosLikeTraceGenerator(
        num_bs_antennas=8, num_users=2,
        num_subcarriers=8).generate(num_frames=1, random_state=0)
    generator = PoissonTrafficGenerator(
        trace, modulations="QPSK", mean_interarrival_us=10.0,
        burst_subcarriers=4, user_snrs_db=20.0, deadline_us=120_000.0)
    return generator.generate(5, random_state=0)


@pytest.fixture(scope="module")
def clean_report(jobs):
    return CranService(make_decoder(), max_batch=4, max_wait_us=50_000.0,
                       tracing=True).run(jobs)


def run_faulty(jobs, plan, *, mode="thread", num_workers=0, max_retries=3,
               restart_budget=16, **kwargs):
    service = CranService(make_decoder(), max_batch=4, max_wait_us=50_000.0,
                          tracing=True, mode=mode, num_workers=num_workers,
                          fault_plan=plan, max_retries=max_retries,
                          restart_budget=restart_budget, **kwargs)
    return service.run(jobs)


def terminal_counts(report):
    """job_id -> number of terminal (complete/shed) trace events."""
    counts = Counter()
    for event in report.trace:
        if event.name == EVENT_JOB_COMPLETE or event.name == EVENT_JOB_SHED:
            counts[event.job_id] += 1
    return counts


def detection_bits(report):
    return {r.job.job_id: r.result.detection.bits.tobytes()
            for r in report.results}


def stamps(report):
    return sorted((r.job.job_id, r.flush_time_us, r.start_time_us,
                   r.finish_time_us, r.result.detection.bits.tobytes())
                  for r in report.results)


# --------------------------------------------------------------------------- #
# FaultPlan: pure-function decisions
# --------------------------------------------------------------------------- #

class TestFaultPlan:
    def test_decisions_are_pure_functions_of_seed_and_entity(self):
        plan = FaultPlan(seed=7, crash_rate=0.1, decode_error_rate=0.1,
                         slow_rate=0.1, gateway_error_rate=0.2)
        clone = FaultPlan(seed=7, crash_rate=0.1, decode_error_rate=0.1,
                          slow_rate=0.1, gateway_error_rate=0.2)
        # Query order must not matter: decisions are keyed by entity alone.
        forward = [plan.pack_fault(i) for i in range(64)]
        backward = [clone.pack_fault(i) for i in reversed(range(64))]
        assert forward == backward[::-1]
        assert ([plan.gateway_fault(i) for i in range(64)]
                == [clone.gateway_fault(i) for i in range(64)])
        # A different seed is a different plan.
        other = FaultPlan(seed=8, crash_rate=0.1, decode_error_rate=0.1,
                          slow_rate=0.1)
        assert forward != [other.pack_fault(i) for i in range(64)]

    def test_fault_mix_tracks_rates(self):
        plan = FaultPlan(seed=1, crash_rate=0.1, decode_error_rate=0.1,
                         slow_rate=0.1, slow_factor=3.0)
        mix = Counter(fault.kind for fault in
                      (plan.pack_fault(i) for i in range(400))
                      if fault is not None)
        for kind in (FAULT_CRASH, FAULT_DECODE_ERROR, FAULT_SLOW):
            # Each kind should land within a loose band of its 10% rate.
            assert 15 <= mix[kind] <= 70
        slow = next(plan.pack_fault(i) for i in range(400)
                    if (f := plan.pack_fault(i)) and f.kind == FAULT_SLOW)
        assert slow == PackFault(FAULT_SLOW, factor=3.0)

    def test_zero_rate_plan_is_inert(self):
        plan = FaultPlan(seed=3)
        assert all(plan.pack_fault(i) is None for i in range(32))
        assert not any(plan.gateway_fault(i) for i in range(32))

    def test_plan_pickles_to_an_equal_plan(self):
        plan = FaultPlan(seed=5, crash_rate=0.2, slow_rate=0.1,
                         slow_factor=2.5, gateway_error_rate=0.05)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert [clone.pack_fault(i) for i in range(32)] \
            == [plan.pack_fault(i) for i in range(32)]

    @pytest.mark.parametrize("kwargs", [
        {"crash_rate": -0.1},
        {"decode_error_rate": 1.5},
        {"gateway_error_rate": 2.0},
        {"crash_rate": 0.6, "decode_error_rate": 0.6},
        {"slow_rate": 0.1, "slow_factor": 0.5},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(SchedulingError):
            FaultPlan(seed=0, **kwargs)


# --------------------------------------------------------------------------- #
# Brownout breaker
# --------------------------------------------------------------------------- #

class TestBrownoutController:
    def test_hysteresis_band(self):
        breaker = BrownoutController(BrownoutConfig(open_queue_depth=8,
                                                    close_queue_depth=2))
        assert breaker.update(0.0, queue_depth=7) is None
        assert breaker.update(1.0, queue_depth=8) == "open"
        assert breaker.active and breaker.openings == 1
        # Inside the band the breaker holds — no chattering.
        assert breaker.update(2.0, queue_depth=5) is None
        assert breaker.active
        assert breaker.update(3.0, queue_depth=2) == "close"
        assert not breaker.active
        # Re-opening increments the counter.
        assert breaker.update(4.0, queue_depth=9) == "open"
        assert breaker.openings == 2

    def test_shed_rate_trigger_needs_pending_backlog(self):
        config = BrownoutConfig(open_queue_depth=100, close_queue_depth=2,
                                open_shed_rate=0.5)
        breaker = BrownoutController(config)
        # High shed rate with a drained queue must not trip the breaker.
        assert breaker.update(0.0, queue_depth=1, shed_rate=0.9) is None
        assert breaker.update(1.0, queue_depth=3, shed_rate=0.9) == "open"

    def test_config_requires_hysteresis_gap(self):
        with pytest.raises(SchedulingError):
            BrownoutConfig(open_queue_depth=4, close_queue_depth=4)
        with pytest.raises(SchedulingError):
            BrownoutConfig(open_queue_depth=0)
        with pytest.raises(SchedulingError):
            BrownoutConfig(open_shed_rate=0.0)


# --------------------------------------------------------------------------- #
# Inline chaos: the deterministic reference mode
# --------------------------------------------------------------------------- #

class TestInlineChaos:
    PLAN = FaultPlan(seed=1, crash_rate=0.25, decode_error_rate=0.25)

    @pytest.fixture(scope="class")
    def faulty(self, jobs):
        return run_faulty(jobs, self.PLAN)

    def test_no_job_is_lost(self, jobs, faulty):
        assert faulty.jobs_completed + len(faulty.shed_jobs) == len(jobs)
        counts = terminal_counts(faulty)
        assert set(counts) == {job.job_id for job in jobs}
        assert all(count == 1 for count in counts.values())

    def test_faults_were_actually_injected(self, faulty):
        injected = faulty.telemetry["faults"]["injected"]
        assert sum(injected.values()) > 0
        assert faulty.telemetry["faults"]["packs_failed"] > 0
        assert faulty.telemetry["faults"]["jobs_retried"] > 0

    def test_retried_decodes_are_bit_identical(self, clean_report, faulty):
        clean_bits = detection_bits(clean_report)
        for job_id, bits in detection_bits(faulty).items():
            assert bits == clean_bits[job_id]

    def test_chaos_run_is_deterministic(self, jobs, faulty):
        replay = run_faulty(jobs, self.PLAN)
        assert replay.trace == faulty.trace
        assert replay.telemetry["faults"] == faulty.telemetry["faults"]
        assert stamps(replay) == stamps(faulty)

    def test_timeline_stamps_stay_monotone(self, faulty):
        for result in faulty.results:
            assert (result.job.arrival_time_us <= result.flush_time_us
                    <= result.start_time_us <= result.finish_time_us)
        # Retries only move a job later, never earlier.
        for event in faulty.trace:
            if event.name == EVENT_JOB_RETRY:
                assert event.attrs["attempt"] >= 1

    def test_retry_events_match_telemetry(self, faulty):
        retries = sum(1 for e in faulty.trace if e.name == EVENT_JOB_RETRY)
        failed = sum(1 for e in faulty.trace if e.name == EVENT_PACK_FAILED)
        assert retries == faulty.telemetry["faults"]["jobs_retried"]
        assert failed == faulty.telemetry["faults"]["packs_failed"]

    def test_zero_rate_plan_matches_fault_free_run(self, jobs, clean_report):
        inert = run_faulty(jobs, FaultPlan(seed=1), max_retries=0)
        assert inert.trace == clean_report.trace
        assert stamps(inert) == stamps(clean_report)

    def test_retry_budget_exhaustion_sheds(self, jobs):
        # Every pack fails every time: one retry each, then give up.
        report = run_faulty(jobs, FaultPlan(seed=2, decode_error_rate=1.0),
                            max_retries=1)
        assert report.jobs_completed == 0
        assert len(report.shed_jobs) == len(jobs)
        stages = report.telemetry["faults"]["shed_stages"]
        assert stages.get("retry_budget") == len(jobs)

    def test_hopeless_retries_shed_at_deadline(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=8).generate(num_frames=1, random_state=0)
        tight = PoissonTrafficGenerator(
            trace, modulations="QPSK", mean_interarrival_us=10.0,
            burst_subcarriers=4, user_snrs_db=20.0,
            deadline_us=1.0).generate(3, random_state=0)
        report = run_faulty(tight, FaultPlan(seed=2, decode_error_rate=1.0),
                            max_retries=10)
        assert report.jobs_completed == 0
        stages = report.telemetry["faults"]["shed_stages"]
        assert stages.get("retry_deadline") == len(tight)


# --------------------------------------------------------------------------- #
# Worker supervision (thread mode) and mode equivalence
# --------------------------------------------------------------------------- #

class TestSupervision:
    PLAN = FaultPlan(seed=1, crash_rate=0.25, decode_error_rate=0.25)

    def test_crashed_thread_workers_are_restarted(self, jobs):
        report = run_faulty(jobs, self.PLAN, mode="thread", num_workers=2)
        assert report.jobs_completed + len(report.shed_jobs) == len(jobs)
        restarts = report.telemetry["faults"]["worker_restarts"]
        assert restarts > 0
        events = [e for e in report.trace if e.name == EVENT_WORKER_RESTART]
        assert len(events) == restarts
        assert all(e.attrs["remaining"] >= 0 for e in events)

    def test_exhausted_restart_budget_still_loses_nothing(self, jobs):
        report = run_faulty(jobs, FaultPlan(seed=1, crash_rate=1.0),
                            mode="thread", num_workers=2,
                            max_retries=1, restart_budget=0)
        assert report.jobs_completed == 0
        assert len(report.shed_jobs) == len(jobs)
        assert report.telemetry["faults"]["worker_restarts"] == 0

    def test_thread_and_process_modes_account_identically(self, jobs):
        threaded = run_faulty(jobs, self.PLAN, mode="thread", num_workers=2)
        process = run_faulty(jobs, self.PLAN, mode="process", num_workers=2)
        assert stamps(threaded) == stamps(process)
        assert ([j.job_id for j in threaded.shed_jobs]
                == [j.job_id for j in process.shed_jobs])
        assert (threaded.telemetry["faults"]
                == process.telemetry["faults"])

    def test_all_three_modes_spend_the_restart_budget_alike(self):
        # Regression: an inline pool parked an injected crash without
        # touching the restart budget (0 restarts, no worker.restart event,
        # against 13 on thread and on process under this very plan).
        link = MimoUplink(num_users=2, constellation="BPSK")
        rng = np.random.default_rng(0)
        load = [DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                          channel_use=link.transmit(random_state=rng),
                          arrival_time_us=10.0 * i,
                          deadline_us=10.0 * i + 1e7, seed=100 + i)
                for i in range(64)]
        accounts = []
        for mode, num_workers in (("thread", 0), ("thread", 2),
                                  ("process", 2)):
            report = run_faulty(load, self.PLAN, mode=mode,
                                num_workers=num_workers)
            faults = report.telemetry["faults"]
            accounts.append((faults["injected"], faults["worker_restarts"],
                             sum(event.name == EVENT_WORKER_RESTART
                                 for event in report.trace)))
        injected, restarts, events = accounts[0]
        # An ample budget (16): every injected crash is one restart.
        assert restarts == events == injected[FAULT_CRASH] > 0
        assert accounts[1] == accounts[0] and accounts[2] == accounts[0]

    def test_inline_and_thread_bits_agree(self, jobs):
        inline = run_faulty(jobs, self.PLAN)
        threaded = run_faulty(jobs, self.PLAN, mode="thread", num_workers=2)
        assert detection_bits(inline) == detection_bits(threaded)


# --------------------------------------------------------------------------- #
# Brownout at the service boundary
# --------------------------------------------------------------------------- #

class TestServiceBrownout:
    def test_overload_opens_sheds_hopeless_and_recovers(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=8).generate(num_frames=1, random_state=0)
        link_jobs = PoissonTrafficGenerator(
            trace, modulations="QPSK", mean_interarrival_us=2.0,
            burst_subcarriers=4, user_snrs_db=20.0,
            deadline_us=50.0).generate(8, random_state=0)
        # Two relaxed stragglers long after the flood: the first one's
        # submission flushes the backlog (timeout), the second then finds
        # the queue drained, so the breaker closes and admits it untouched.
        # (The breaker samples depth *before* the scheduler reacts to the
        # new arrival, so observing the close takes one extra arrival.)
        last = link_jobs[-1]
        relaxed = [
            DecodeJob(
                job_id=last.job_id + 1 + i, user_id=0, frame=0, subcarrier=i,
                channel_use=last.channel_use,
                arrival_time_us=last.arrival_time_us + 500_000.0 * (i + 1),
                deadline_us=float("inf"), seed=1234 + i)
            for i in range(2)
        ]
        report = CranService(
            make_decoder(), max_batch=32, max_wait_us=100_000.0,
            tracing=True,
            brownout=BrownoutConfig(open_queue_depth=4,
                                    close_queue_depth=1),
        ).run(link_jobs + relaxed)
        faults = report.telemetry["faults"]
        assert faults["brownout_openings"] >= 1
        assert faults["shed_stages"].get("brownout", 0) >= 1
        names = [e.name for e in report.trace]
        assert EVENT_BROWNOUT_OPEN in names
        assert names.index(EVENT_BROWNOUT_OPEN) \
            < names.index(EVENT_BROWNOUT_CLOSE)
        # The breaker never sheds best-effort (infinite-deadline) jobs.
        relaxed_ids = {job.job_id for job in relaxed}
        assert not relaxed_ids & {job.job_id for job in report.shed_jobs}
        assert report.jobs_completed + len(report.shed_jobs) \
            == len(link_jobs) + len(relaxed)

    def test_brownout_sheds_are_terminal_trace_events(self):
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=8).generate(num_frames=1, random_state=0)
        link_jobs = PoissonTrafficGenerator(
            trace, modulations="QPSK", mean_interarrival_us=2.0,
            burst_subcarriers=4, user_snrs_db=20.0,
            deadline_us=50.0).generate(8, random_state=0)
        report = CranService(
            make_decoder(), max_batch=32, max_wait_us=100_000.0,
            tracing=True,
            brownout=BrownoutConfig(open_queue_depth=4,
                                    close_queue_depth=1),
        ).run(link_jobs)
        counts = terminal_counts(report)
        assert set(counts) == {job.job_id for job in link_jobs}
        assert all(count == 1 for count in counts.values())


# --------------------------------------------------------------------------- #
# Gateway submission faults
# --------------------------------------------------------------------------- #

class TestGatewayFaults:
    def test_gateway_drops_are_deterministic_and_accounted(self, jobs):
        plan = FaultPlan(seed=9, gateway_error_rate=0.3)
        expected = {job.job_id for job in jobs
                    if plan.gateway_fault(job.job_id)}
        assert expected, "seed must hit at least one job for this test"

        def run_gateway():
            service = CranService(make_decoder(), max_batch=4,
                                  max_wait_us=50_000.0, tracing=True,
                                  fault_plan=plan)
            gateway = service.gateway(admission_limit=64)
            for job in jobs:
                gateway.submit(job)
            report = gateway.close()
            return report, gateway.ingress_info()

        report, info = run_gateway()
        assert info["gateway_faults"] == len(expected)
        assert {job.job_id for job in report.shed_jobs} == expected
        assert report.jobs_completed + len(report.shed_jobs) == len(jobs)
        shed_events = [e for e in report.trace if e.name == EVENT_JOB_SHED
                       and e.attrs.get("stage") == "gateway_fault"]
        assert {e.job_id for e in shed_events} == expected
        # Replay: the drop set is a pure function of (seed, job_id).
        replay, replay_info = run_gateway()
        assert {job.job_id for job in replay.shed_jobs} == expected
        assert replay_info["gateway_faults"] == info["gateway_faults"]

    def test_ingress_counters_are_counts_over_the_trace(self, jobs):
        plan = FaultPlan(seed=9, gateway_error_rate=0.3)
        service = CranService(make_decoder(), max_batch=4,
                              max_wait_us=50_000.0, tracing=True,
                              fault_plan=plan)
        gateway = service.gateway(admission_limit=64)
        # The latest job goes first; once the dispatcher has moved the
        # clock to it, every later-offered job that arrived earlier is
        # re-stamped.
        late = [job for job in jobs if not plan.gateway_fault(job.job_id)]
        last = late[-1]
        assert gateway.submit(last, cell="fast")
        for _ in range(2_000):
            if gateway._session.clock_us >= last.arrival_time_us:
                break
            threading.Event().wait(0.001)
        for job in jobs:
            if job is not last:
                assert gateway.submit(job, cell="slow")
        report = gateway.close()
        stated = Counter((event.name, event.attrs.get("stage"))
                         for event in report.trace)
        ingress = report.telemetry["ingress"]
        assert ingress["offered"] == stated[EVENT_INGRESS_ADMIT, None]
        assert ingress["late_restamped"] == stated[EVENT_JOB_RESTAMP, None]
        assert ingress["gateway_faults"] == stated[EVENT_JOB_SHED,
                                                   "gateway_fault"]
        assert ingress["offered"] == len(jobs)
        assert ingress["late_restamped"] == sum(
            job.arrival_time_us < last.arrival_time_us for job in late) > 0
        assert ingress["gateway_faults"] == len(jobs) - len(late) > 0


# --------------------------------------------------------------------------- #
# Worker-pool failure surfacing (satellites: aggregate errors, KI escape)
# --------------------------------------------------------------------------- #

def _uplink_jobs(constellation, start_id):
    link = MimoUplink(num_users=2, constellation=constellation)
    rng = np.random.default_rng(start_id)
    return [
        DecodeJob(job_id=start_id + i, user_id=0, frame=0, subcarrier=i,
                  channel_use=link.transmit(random_state=rng),
                  arrival_time_us=10.0 * i, deadline_us=10.0 * i + 1e6,
                  seed=500 + start_id + i)
        for i in range(2)
    ]


def _batch(batch_jobs, flush_time_us):
    return DecodeBatch(jobs=tuple(batch_jobs),
                       flush_time_us=flush_time_us, reason="full")


class TestWorkerPoolErrors:
    def test_concurrent_failures_aggregate_into_worker_pool_error(self):
        import threading

        barrier = threading.Barrier(2, timeout=30.0)

        class RendezvousBoom:
            class annealer:  # noqa: D106 - attribute shim for accounting
                overheads = QuantumAnnealerSimulator(
                    ChimeraGraph.ideal(2, 2)).overheads

            def detect_batch(self, channel_uses, random_states=None,
                             rng=None):
                # Both workers must be mid-decode before either fails, so
                # neither failure can degrade the other worker to drain
                # mode first — the close() error report must list both.
                barrier.wait()
                raise RuntimeError("boom")

        pool = WorkerPool(RendezvousBoom(), num_workers=2, mode="thread")
        # Each worker takes one pack (own shard or stolen) and waits at
        # the barrier for the other.
        pool.submit(_batch(_uplink_jobs("BPSK", 0), flush_time_us=10.0))
        pool.submit(_batch(_uplink_jobs("QPSK", 10), flush_time_us=20.0))
        with pytest.raises(WorkerPoolError) as excinfo:
            pool.close()
        assert len(excinfo.value.errors) == 2
        assert all(str(e) == "boom" for e in excinfo.value.errors)
        assert "2 worker errors" in str(excinfo.value)
        # Both packs' jobs are accounted as shed — nothing is lost.
        assert sorted(job.job_id for job in pool.shed_jobs) == [0, 1, 10, 11]

    def test_single_failure_still_raises_the_original_error(self):
        class Boom:
            class annealer:  # noqa: D106
                overheads = QuantumAnnealerSimulator(
                    ChimeraGraph.ideal(2, 2)).overheads

            def detect_batch(self, channel_uses, random_states=None,
                             rng=None):
                raise RuntimeError("boom")

        pool = WorkerPool(Boom(), num_workers=1, mode="thread")
        pool.submit(_batch(_uplink_jobs("BPSK", 0), flush_time_us=10.0))
        with pytest.raises(RuntimeError, match="boom"):
            pool.close()

    def test_keyboard_interrupt_escapes_the_worker_loop(self, monkeypatch):
        import threading

        seen = []
        done = threading.Event()

        def excepthook(args):
            seen.append(args.exc_type)
            done.set()

        monkeypatch.setattr(threading, "excepthook", excepthook)

        class Interrupted:
            class annealer:  # noqa: D106
                overheads = QuantumAnnealerSimulator(
                    ChimeraGraph.ideal(2, 2)).overheads

            def detect_batch(self, channel_uses, random_states=None,
                             rng=None):
                raise KeyboardInterrupt

        pool = WorkerPool(Interrupted(), num_workers=1, mode="thread")
        pool.submit(_batch(_uplink_jobs("BPSK", 0), flush_time_us=10.0))
        assert done.wait(timeout=30.0)
        # The interrupt killed the worker loudly instead of being folded
        # into fault accounting: close() has no error to re-raise.
        assert seen == [KeyboardInterrupt]
        pool.close()
        assert pool.results() == []


# --------------------------------------------------------------------------- #
# Property-based lifecycle checks
# --------------------------------------------------------------------------- #

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestChaosProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           crash=st.floats(min_value=0.0, max_value=0.4),
           decode=st.floats(min_value=0.0, max_value=0.4),
           slow=st.floats(min_value=0.0, max_value=0.2),
           retries=st.integers(min_value=0, max_value=3))
    def test_every_job_terminates_exactly_once(self, jobs, clean_report,
                                               seed, crash, decode, slow,
                                               retries):
        plan = FaultPlan(seed=seed, crash_rate=crash,
                         decode_error_rate=decode, slow_rate=slow)
        report = run_faulty(jobs, plan, max_retries=retries)
        assert report.jobs_completed + len(report.shed_jobs) == len(jobs)
        counts = terminal_counts(report)
        assert set(counts) == {job.job_id for job in jobs}
        assert all(count == 1 for count in counts.values())
        # Whatever completed is bit-identical to the fault-free decode.
        clean_bits = detection_bits(clean_report)
        for job_id, bits in detection_bits(report).items():
            assert bits == clean_bits[job_id]
        # Stamps stay monotone on every surviving timeline.
        for result in report.results:
            assert (result.job.arrival_time_us <= result.flush_time_us
                    <= result.start_time_us <= result.finish_time_us)
