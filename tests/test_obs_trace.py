"""Lifecycle-tracing invariants of the C-RAN serving path.

A traced run (``CranService(tracing=True)``) must tell the truth about
itself.  Hypothesis drives randomised offered loads and batching policies
through an inline service and checks the contracts everything downstream
(the exporters, the breakdown report, the examples) relies on:

* completeness — every submitted job yields exactly one lifecycle:
  one ``job.admit`` followed by exactly one ``job.complete`` *or* one
  ``job.shed``, never both, never neither;
* causal span chains — ``admit ≤ flush ≤ start ≤ finish`` on the virtual
  clock, and pack stamps agree with every member's timeline;
* exact coverage — pack spans partition the completed jobs: each job
  appears in exactly one pack, and a pack's span covers exactly the jobs
  that rode in it;
* exact decomposition — ``queue + dispatch + overhead + anneal`` equals
  the job's end-to-end latency, and the trace's latencies equal the worker
  pool's own virtual-time accounting;
* determinism — an inline traced run is a bit-deterministic function of
  the offered load: replaying yields the identical event stream, and
  detections are bit-identical with tracing on or off.

Shed paths (pool overload) are covered separately with a deterministic
queue-stuffing setup, since the inline service never sheds.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.cran.faults import FaultPlan
from repro.cran.jobs import DecodeJob
from repro.cran.service import CranService
from repro.cran.tracing import (
    EVENT_JOB_ADMIT,
    EVENT_JOB_COMPLETE,
    EVENT_JOB_SHED,
    EVENT_PACK_COMPLETE,
    EVENT_PACK_DISPATCH,
    EVENT_PACK_FLUSH,
    EVENT_PACK_START,
    JOB_STAGES,
    job_timelines,
    pack_spans,
)
from repro.decoder.quamax import QuAMaxDecoder
from repro.mimo.system import MimoUplink


@pytest.fixture(scope="module")
def decoder():
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=8))


#: A few real channel uses, one per problem structure; every synthetic job
#: borrows one, so structure keys — and decodes — are genuine but cheap.
_CHANNEL_POOL = [
    MimoUplink(num_users=2, constellation="BPSK").transmit(random_state=0),
    MimoUplink(num_users=2, constellation="QPSK").transmit(random_state=1),
]


def make_jobs(spec):
    """Jobs in arrival order from ``(gap, structure, slack)`` triples."""
    jobs = []
    now = 0.0
    for job_id, (gap, structure, slack) in enumerate(spec):
        now += gap
        jobs.append(DecodeJob(
            job_id=job_id, user_id=structure, frame=0, subcarrier=job_id,
            channel_use=_CHANNEL_POOL[structure],
            arrival_time_us=now, deadline_us=now + slack,
            seed=1000 + job_id))
    return jobs


@st.composite
def offered_loads(draw):
    """An offered load plus a batching policy for a traced inline run."""
    spec = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2_000.0),   # inter-arrival µs
            st.integers(min_value=0, max_value=len(_CHANNEL_POOL) - 1),
            st.one_of(                                     # deadline slack µs
                st.just(math.inf),
                st.floats(min_value=100.0, max_value=100_000.0)),
        ),
        min_size=1, max_size=10))
    max_batch = draw(st.integers(min_value=1, max_value=4))
    max_wait_us = draw(st.one_of(
        st.just(math.inf),
        st.floats(min_value=10.0, max_value=5_000.0)))
    return spec, max_batch, max_wait_us


def traced_run(decoder, spec, max_batch, max_wait_us):
    service = CranService(decoder, max_batch=max_batch,
                          max_wait_us=max_wait_us, tracing=True)
    return service.run(make_jobs(spec))


class TestLifecycleProperties:
    @settings(max_examples=12, deadline=None)
    @given(offered_loads())
    def test_every_job_has_exactly_one_complete_lifecycle(self, decoder,
                                                          load):
        spec, max_batch, max_wait_us = load
        report = traced_run(decoder, spec, max_batch, max_wait_us)
        assert report.trace is not None
        timelines = job_timelines(report.trace)

        # Completeness: one lifecycle per submitted job, all of them —
        # the inline pool never sheds, so every job must complete.
        assert sorted(timelines) == list(range(len(spec)))
        for timeline in timelines.values():
            assert timeline.admit_count == 1
            assert timeline.complete_count == 1
            assert timeline.shed_count == 0
            assert timeline.completed and not timeline.shed

            # Causal span chain on the virtual clock.
            assert (timeline.admit_us <= timeline.flush_us
                    <= timeline.start_us <= timeline.finish_us)

            # Exact decomposition: stages sum to the end-to-end latency.
            stages = timeline.stages_us()
            assert set(stages) == set(JOB_STAGES)
            assert all(value >= 0.0 for value in stages.values())
            assert sum(stages.values()) == pytest.approx(
                timeline.latency_us, abs=1e-6)

        # The trace agrees with the pool's own virtual-time accounting.
        for result in report.results:
            timeline = timelines[result.job.job_id]
            assert timeline.admit_us == result.job.arrival_time_us
            assert timeline.flush_us == result.flush_time_us
            assert timeline.start_us == result.start_time_us
            assert timeline.finish_us == result.finish_time_us
            assert timeline.deadline_met == result.deadline_met

    @settings(max_examples=12, deadline=None)
    @given(offered_loads())
    def test_pack_spans_cover_exactly_their_member_jobs(self, decoder, load):
        spec, max_batch, max_wait_us = load
        report = traced_run(decoder, spec, max_batch, max_wait_us)
        timelines = job_timelines(report.trace)
        packs = pack_spans(report.trace)

        # The packs partition the jobs: every job in exactly one pack.
        member_ids = [job_id for pack in packs.values()
                      for job_id in pack["job_ids"]]
        assert sorted(member_ids) == list(range(len(spec)))

        for pack in packs.values():
            assert 1 <= len(pack["job_ids"]) <= max_batch
            assert pack["flush_us"] <= pack["start_us"] <= pack["finish_us"]
            for job_id in pack["job_ids"]:
                timeline = timelines[job_id]
                # Each member's timeline points back at this pack and
                # carries its stamps — the span covers exactly its members.
                assert timeline.pack_id == pack["pack_id"]
                assert timeline.flush_us == pack["flush_us"]
                assert timeline.start_us == pack["start_us"]
                assert timeline.finish_us == pack["finish_us"]

    @settings(max_examples=6, deadline=None)
    @given(offered_loads())
    def test_inline_traced_run_is_bit_deterministic(self, decoder, load):
        spec, max_batch, max_wait_us = load
        first = traced_run(decoder, spec, max_batch, max_wait_us)
        second = traced_run(decoder, spec, max_batch, max_wait_us)
        # The whole event stream — names, stamps, ids, attrs — replays
        # identically (TraceEvent equality covers the attrs dicts).
        assert first.trace == second.trace
        for a, b in zip(first.results, second.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)


class TestTracingKnob:
    def test_tracing_off_by_default_and_bits_identical(self, decoder):
        spec = [(50.0, i % 2, math.inf) for i in range(6)]
        plain = CranService(decoder, max_batch=3).run(make_jobs(spec))
        traced = CranService(decoder, max_batch=3,
                             tracing=True).run(make_jobs(spec))
        assert plain.trace is None
        assert traced.trace is not None
        # Tracing is pure observation: detections are bit-identical.
        for a, b in zip(plain.results, traced.results):
            np.testing.assert_array_equal(a.result.detection.bits,
                                          b.result.detection.bits)

    def test_tracing_leaves_telemetry_unchanged(self):
        # Virtual latencies, batch fill, deadline misses, per-structure
        # decode times, worker and sampler-cache counters: a traced run
        # reports every one of them exactly as the untraced run does.
        spec = [(50.0, i % 2, 80_000.0) for i in range(8)]

        def serve(tracing):
            fresh = QuAMaxDecoder(
                QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                AnnealerParameters(num_anneals=8))
            return CranService(fresh, max_batch=3, max_wait_us=1_000.0,
                               tracing=tracing).run(make_jobs(spec))

        plain, traced = serve(False), serve(True)
        assert traced.trace
        assert 0.0 < plain.telemetry["deadline_miss_rate"] < 1.0
        assert traced.telemetry == plain.telemetry

    def test_event_stream_shape(self, decoder):
        spec = [(50.0, 0, math.inf) for _ in range(4)]
        report = CranService(decoder, max_batch=2,
                             tracing=True).run(make_jobs(spec))
        names = [event.name for event in report.trace]
        assert names.count(EVENT_JOB_ADMIT) == 4
        assert names.count(EVENT_JOB_COMPLETE) == 4
        assert names.count(EVENT_PACK_FLUSH) == 2
        assert names.count(EVENT_PACK_DISPATCH) == 2
        assert names.count(EVENT_PACK_START) == 2
        assert names.count(EVENT_PACK_COMPLETE) == 2
        flush = next(e for e in report.trace if e.name == EVENT_PACK_FLUSH)
        assert flush.attrs["reason"] == "full"
        assert flush.attrs["size"] == 2
        assert flush.attrs["structure"] == "2x2/BPSK"
        complete = next(e for e in report.trace
                        if e.name == EVENT_PACK_COMPLETE)
        assert complete.attrs["service_us"] == pytest.approx(
            complete.attrs["overhead_us"] + complete.attrs["anneal_us"])
        # Default recorder carries no wall-clock annotations (determinism).
        assert "wall_s" not in complete.attrs

    def test_finite_deadlines_recorded_infinite_omitted(self, decoder):
        spec = [(50.0, 0, 5_000.0), (50.0, 0, math.inf)]
        report = CranService(decoder, max_batch=2,
                             tracing=True).run(make_jobs(spec))
        admits = {e.job_id: e for e in report.trace
                  if e.name == EVENT_JOB_ADMIT}
        assert admits[0].attrs["deadline_us"] == pytest.approx(
            make_jobs(spec)[0].deadline_us)
        # inf is JSON-hostile, so unbounded deadlines stay out of the attrs.
        assert "deadline_us" not in admits[1].attrs


class TestShedTracing:
    def test_retry_budget_sheds_carry_stage_and_no_completion(self,
                                                              decoder):
        jobs = make_jobs([(50.0, 0, math.inf) for _ in range(6)])
        # Seed 8 fails the second and third of the three full packs with an
        # injected decode error; with no retry budget their jobs shed.
        plan = FaultPlan(seed=8, decode_error_rate=0.5)
        assert [plan.pack_fault(index) is not None
                for index in range(3)] == [False, True, True]
        report = CranService(decoder, max_batch=2, tracing=True,
                             fault_plan=plan).run(jobs)

        timelines = job_timelines(report.trace)
        shed_ids = {job.job_id for job in report.shed_jobs}
        assert shed_ids == {2, 3, 4, 5}
        for job_id, timeline in timelines.items():
            if job_id in shed_ids:
                assert timeline.shed and timeline.shed_count == 1
                assert timeline.shed_stage == "retry_budget"
                assert not timeline.completed
            else:
                assert timeline.completed and not timeline.shed
        # Shed packs never get start/complete span events.
        shed_events = [e for e in report.trace if e.name == EVENT_JOB_SHED]
        assert {e.attrs["stage"] for e in shed_events} == {"retry_budget"}
        started = {e.pack_id for e in report.trace
                   if e.name == EVENT_PACK_START}
        assert started == {0}
