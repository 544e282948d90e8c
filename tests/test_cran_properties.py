"""Property-based laws of chip-level packing: the scheduler's and the decode's.

Hypothesis drives :class:`~repro.cran.scheduler.EDFBatchScheduler` with
randomised offered loads (mixed structures and draw disciplines, deadlines
from tight to best-effort) and randomised policies (batch bound, wait
budget, adaptive decode-time models), checking the contracts every consumer
of the scheduler — the worker pool's virtual-time accounting, the
telemetry, the ingress gateway's monotone merge — silently relies on:

* conservation — after drain, every submitted job was emitted exactly once;
* the single queue — a flush takes *everything* pending under its draw
  discipline whatever the structures, so the packs of a discipline cut its
  arrival sequence into consecutive runs, and no pack mixes disciplines;
* the batch bound — never more than ``max_batch`` jobs, and ``full``
  flushes are exactly full;
* causal, monotone stamps — a flush is never stamped before a member's
  arrival, emission order never goes back in time, and neither does the
  scheduler's clock;
* EDF order — most-urgent-first within every batch, ties by job id;
* the wait budget — a timeout flush is stamped exactly at the oldest
  member's arrival plus ``max_wait_us`` (an adaptive model only ever
  shortens it);
* determinism — replaying the same load through a fresh scheduler
  reproduces the same batches, stamps and reasons bit for bit.

And it drives the decode side with random mixed packs (ROADMAP item 5's
"bit-exactness under packing", across structures): whatever a job is packed
with, and wherever in the pack it sits, it decodes to exactly what it
decodes to alone from its own stream.

Every property is derandomised (tier-1 sees the same examples on every
run) and takes its example count from the active hypothesis profile: CI's
``cran`` entry runs this module under ``--hypothesis-profile=ten-fold``
(registered in the root ``conftest.py``).  A falsifying example, once
found, is pinned as an ``@example`` beside the fix.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import (
    FLUSH_DRAIN,
    FLUSH_FULL,
    FLUSH_TIMEOUT,
    DecodeBatch,
    EDFBatchScheduler,
)
from repro.cran.workers import WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.mimo.system import MimoUplink

PROPERTY = settings(deadline=None, derandomize=True)

#: Every (users, antennas, modulation) the decode property mixes: 2-3 users
#: on as many or more antennas, 2 to 12 logical variables.
_STRUCTURES = [(users, antennas, modulation)
               for users in (2, 3) for antennas in (users, 4)
               for modulation in ("BPSK", "QPSK", "16-QAM")]

#: Two real channel uses per structure; every synthetic job borrows one, so
#: structure keys are genuine and cheap.
_CHANNEL_POOL = [
    [MimoUplink(num_users=users, constellation=modulation,
                num_rx_antennas=antennas).transmit(
                    random_state=10 * index + use, snr_db=15.0)
     for use in range(2)]
    for index, (users, antennas, modulation) in enumerate(_STRUCTURES)]


# --------------------------------------------------------------------------- #
# The scheduler's laws
# --------------------------------------------------------------------------- #
@st.composite
def offered_loads(draw):
    """A list of jobs in arrival order plus a scheduler policy."""
    events = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=3_000.0),   # inter-arrival µs
            st.integers(min_value=0, max_value=len(_STRUCTURES) - 1),
            st.one_of(                                     # deadline slack µs
                st.just(math.inf),
                st.floats(min_value=10.0, max_value=50_000.0)),
            st.sampled_from(["sequential"] * 3 + ["counter"]),
        ),
        min_size=1, max_size=40))
    jobs = []
    now = 0.0
    for job_id, (gap, structure, slack, rng_mode) in enumerate(events):
        now += gap
        jobs.append(DecodeJob(
            job_id=job_id, user_id=structure, frame=0, subcarrier=0,
            channel_use=_CHANNEL_POOL[structure][0],
            arrival_time_us=now, deadline_us=now + slack,
            rng_mode=rng_mode))
    max_batch = draw(st.integers(min_value=1, max_value=6))
    max_wait_us = draw(st.one_of(
        st.just(math.inf),
        st.floats(min_value=1.0, max_value=10_000.0)))
    model = None
    if draw(st.booleans()):
        overhead = draw(st.floats(min_value=0.0, max_value=5_000.0))
        per_user = draw(st.floats(min_value=0.0, max_value=1_000.0))
        # Priced from the jobs themselves, as the service's models are.
        model = lambda members: overhead + per_user * sum(  # noqa: E731
            job.num_users for job in members)
    return jobs, max_batch, max_wait_us, model


def replay(jobs, max_batch, max_wait_us, model):
    scheduler = EDFBatchScheduler(max_batch=max_batch,
                                  max_wait_us=max_wait_us,
                                  decode_time_model=model)
    batches = []
    clock = [scheduler.clock_us]
    for job in jobs:
        batches.extend(scheduler.submit(job))
        clock.append(scheduler.clock_us)
    batches.extend(scheduler.drain())
    clock.append(scheduler.clock_us)
    return scheduler, batches, clock


def signature(batches):
    return [(b.structures, b.flush_time_us, b.reason, b.job_ids)
            for b in batches]


class TestSchedulerInvariants:
    @PROPERTY
    @given(offered_loads())
    def test_invariants_hold_for_any_load_and_policy(self, load):
        jobs, max_batch, max_wait_us, model = load
        scheduler, batches, clock = replay(jobs, max_batch, max_wait_us,
                                           model)

        # Conservation: every job emitted exactly once, nothing left behind.
        emitted = [job.job_id for batch in batches for job in batch.jobs]
        assert sorted(emitted) == [job.job_id for job in jobs]
        assert scheduler.queue_depth == 0
        # The clock follows the arrivals and never moves backwards.
        assert clock == sorted(clock)
        assert clock[1:-1] == [job.arrival_time_us for job in jobs]

        last_stamp = 0.0
        arrival_of = {job.job_id: job.arrival_time_us for job in jobs}
        for batch in batches:
            # One draw discipline per pack, any structures, bounded size.
            assert len({job.rng_mode for job in batch.jobs}) == 1
            assert batch.structures == tuple(sorted(
                {job.structure_key for job in batch.jobs}))
            assert 1 <= batch.size <= max_batch
            if batch.reason == FLUSH_FULL:
                assert batch.size == max_batch
            assert batch.reason in (FLUSH_FULL, FLUSH_TIMEOUT, FLUSH_DRAIN)

            # Causal stamps, monotone in emission order.
            assert batch.flush_time_us >= max(
                arrival_of[job.job_id] for job in batch.jobs)
            assert batch.flush_time_us >= last_stamp
            last_stamp = batch.flush_time_us

            # EDF inside the pack: most urgent first, ties by id.
            order = [(job.deadline_us, job.job_id) for job in batch.jobs]
            assert order == sorted(order)

            # The wait budget: a timeout flush is stamped exactly when the
            # oldest member's budget runs out (an adaptive model only ever
            # shortens it).
            if batch.reason == FLUSH_TIMEOUT:
                oldest = min(arrival_of[job.job_id] for job in batch.jobs)
                if model is None:
                    assert batch.flush_time_us == oldest + max_wait_us
                else:
                    assert batch.flush_time_us <= oldest + max_wait_us

        # The single queue: a flush takes everything pending under its
        # discipline, so a discipline's packs, in emission order, are
        # consecutive runs of its arrival sequence (ids number arrivals).
        for rng_mode in ("sequential", "counter"):
            runs = [sorted(batch.job_ids) for batch in batches
                    if batch.jobs[0].rng_mode == rng_mode]
            assert [job_id for run in runs for job_id in run] == [
                job.job_id for job in jobs if job.rng_mode == rng_mode]

    @PROPERTY
    @given(offered_loads())
    def test_replay_is_deterministic(self, load):
        _, first, _ = replay(*load)
        _, second, _ = replay(*load)
        assert signature(first) == signature(second)

    @PROPERTY
    @given(offered_loads())
    def test_unbounded_wait_without_model_only_flushes_full_or_drain(
            self, load):
        jobs, max_batch, _max_wait_us, _model = load
        _, batches, _ = replay(jobs, max_batch, math.inf, None)
        assert all(batch.reason in (FLUSH_FULL, FLUSH_DRAIN)
                   for batch in batches)

    @PROPERTY
    @given(offered_loads())
    def test_one_structure_load_is_served_as_structure_keyed_batching_did(
            self, load):
        # What made chip-level packing a replacement and not a fork: on a
        # load of one structure and one discipline the single queue IS the
        # old per-structure group.  The oracle is that group's rule,
        # restated: flush at max_batch, or at oldest + max_wait_us.
        jobs, max_batch, max_wait_us, _model = load
        jobs = [replace(job, channel_use=_CHANNEL_POOL[0][0],
                        rng_mode="sequential") for job in jobs]
        expected, pending = [], []
        for job in jobs:
            if pending and (pending[0].arrival_time_us + max_wait_us
                            < job.arrival_time_us):
                expected.append((pending[0].arrival_time_us + max_wait_us,
                                 FLUSH_TIMEOUT, pending))
                pending = []
            pending = pending + [job]
            now = job.arrival_time_us
            if pending[0].arrival_time_us + max_wait_us == now:
                expected.append((now, FLUSH_TIMEOUT, pending))
                pending = []
            elif len(pending) == max_batch:
                expected.append((now, FLUSH_FULL, pending))
                pending = []
        if pending:
            expected.append((jobs[-1].arrival_time_us, FLUSH_DRAIN, pending))
        _, batches, _ = replay(jobs, max_batch, max_wait_us, None)
        assert [(b.flush_time_us, b.reason, sorted(b.job_ids))
                for b in batches] == [
            (stamp, reason, [job.job_id for job in members])
            for stamp, reason, members in expected]


# --------------------------------------------------------------------------- #
# Bit-exactness under packing, across structures
# --------------------------------------------------------------------------- #
def make_decoder():
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=4))


#: One warm decoder serves every pack (its sampler cache then sees the
#: structures at every sub-pack size the examples produce); another, never
#: shown a pack, decodes each job alone, once per (structure, use, seed).
_PACK_DECODER = make_decoder()
_SOLO_DECODER = make_decoder()
_SOLO = {}


def solo(job):
    if job.job_id not in _SOLO:
        _SOLO[job.job_id], = _SOLO_DECODER.detect_batch(
            [job.channel_use], random_states=[job.rng()])
    return _SOLO[job.job_id]


def pack_jobs(members):
    """Jobs from ``(structure, channel use, seed)`` triples.  The triple is
    the job's identity — it fixes what the job decodes to — so the same job
    recurs across examples in different company and positions."""
    return [DecodeJob(job_id=(structure * 2 + use) * 3 + seed,
                      user_id=0, frame=0, subcarrier=0,
                      channel_use=_CHANNEL_POOL[structure][use],
                      arrival_time_us=0.0, seed=seed)
            for structure, use, seed in members]


#: Up to 12 distinct jobs of any structures, in any order.
mixed_packs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(_STRUCTURES) - 1),
              st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=2)),
    min_size=1, max_size=12, unique=True).map(pack_jobs)


class TestBitExactnessUnderPacking:
    @PROPERTY
    @given(mixed_packs)
    # Every structure at once, one block each; and sub-packs of 1 to 4.
    @example(pack_jobs([(index, 0, 0) for index in range(len(_STRUCTURES))]))
    @example(pack_jobs([(index, use, seed) for index, use, seed in [
        (0, 0, 0), (5, 0, 0), (5, 1, 0), (11, 0, 0), (11, 0, 1), (11, 1, 2),
        (3, 0, 0), (3, 0, 1), (3, 1, 0), (3, 1, 1)]]))
    def test_a_job_decodes_alone_as_in_any_company(self, jobs):
        pool = WorkerPool(_PACK_DECODER)
        pool.submit(DecodeBatch(jobs=tuple(jobs), flush_time_us=0.0,
                                reason=FLUSH_FULL))
        served = {result.job.job_id: result.result
                  for result in pool.results()}
        assert sorted(served) == sorted(job.job_id for job in jobs)
        for job in jobs:
            packed, alone = served[job.job_id], solo(job)
            for name in ("samples", "energies", "num_occurrences"):
                ours = getattr(packed.run.solutions, name)
                theirs = getattr(alone.run.solutions, name)
                assert ours.dtype == theirs.dtype
                assert ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
            assert (packed.run.broken_chain_fraction
                    == alone.run.broken_chain_fraction)
            assert packed.run.compute_time_us == alone.run.compute_time_us
            np.testing.assert_array_equal(packed.detection.bits,
                                          alone.detection.bits)
            np.testing.assert_array_equal(packed.detection.symbols,
                                          alone.detection.symbols)
