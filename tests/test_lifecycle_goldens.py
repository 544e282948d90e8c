"""Golden digests of the serving layer's two outputs: trace and telemetry.

The decode goldens (``test_golden_digests.py``) pin what a job decodes to;
nothing pinned *across commits* what the serving layer says about it — the
lifecycle event stream and the telemetry snapshot of a seeded inline run
were only ever compared with a second run of the same checkout.  These
tests freeze both, as SHA-256 digests of their exported text, for three
inline runs that between them walk every write site of ``repro.cran``:
adaptive flushes on a mixed-structure deadline load, the same load under
injected decode errors and stragglers with retries and a brownout breaker,
and a best-effort batch-1 run whose ``job.admit`` events carry no deadline.
A fourth run (since packs are chip-level) offers BPSK and QPSK bursts close
enough together that one pack holds both: it pins a mixed pack's events
and the per-structure split of its service time in the telemetry.

Left out on purpose: injected worker crashes (their restart accounting is
mode-dependent, see ``test_cran_faults.py``) and the ingress gateway (its
producer-side ``ingress.admit`` and dispatcher-side ``job.admit`` appends
interleave by thread timing; ``test_cran_gateway.py`` pins it to
``CranService.run`` instead).

The telemetry is a fold over the same log the trace is exported from, so
the four loads' snapshots must not depend on ``tracing=`` — inline, and
with a two-worker thread pool held to one pack in flight.

Regenerate after an *intentional* change of the event stream or snapshot::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_lifecycle_goldens.py
"""

import json
import math
from dataclasses import replace

import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran import BrownoutConfig, CranService, FaultPlan
from repro.cran.tracing import EVENT_BROWNOUT_OPEN, EVENT_JOB_RETRY
from repro.cran.traffic import PoissonTrafficGenerator
from repro.decoder.quamax import QuAMaxDecoder
from repro.obs.export import to_jsonl

# Every single-block sequential cext call sweeps as two lane halves: what
# the serving layer reports must not notice.
pytestmark = pytest.mark.usefixtures("every_block_splits")


def make_decoder():
    # A fresh machine per run: the snapshot's sampler-cache section counts
    # from a cold cache every time.
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=8))


@pytest.fixture(scope="module")
def mixed_jobs():
    """BPSK and QPSK bursts with a finite deadline, 24 jobs.  Each burst is
    of one modulation and no two modulations are ever pending together, so
    every pack here holds one structure — which is why these digests did not
    move when the scheduler started packing by chip instead of by structure
    (mixed packs are pinned by ``test_cran_service.py::TestChipLevelPacks``
    and ``test_cran_properties.py``)."""
    trace = ArgosLikeTraceGenerator(
        num_bs_antennas=8, num_users=2,
        num_subcarriers=8).generate(num_frames=1, random_state=0)
    generator = PoissonTrafficGenerator(
        trace, modulations=("BPSK", "QPSK"), mean_interarrival_us=20_000.0,
        burst_subcarriers=4, user_snrs_db=20.0, deadline_us=80_000.0)
    return generator.generate(6, random_state=3)


def load(name, mixed_jobs):
    """Golden *name*'s offered load and service settings."""
    if name == "mixedpack":
        trace = ArgosLikeTraceGenerator(
            num_bs_antennas=8, num_users=2,
            num_subcarriers=8).generate(num_frames=1, random_state=0)
        jobs = PoissonTrafficGenerator(
            trace, modulations=("BPSK", "QPSK"),
            mean_interarrival_us=12_000.0, burst_subcarriers=4,
            user_snrs_db=20.0, deadline_us=75_000.0).generate(
                8, random_state=3)
        return jobs, dict(max_batch=16, max_wait_us=20_000.0,
                          adaptive_wait=True)
    if name == "batch1":
        return ([replace(job, deadline_us=math.inf) for job in mixed_jobs],
                dict(max_batch=1, max_wait_us=math.inf))
    settings = dict(max_batch=8, max_wait_us=20_000.0, adaptive_wait=True)
    if name == "faulty":
        settings.update(
            fault_plan=FaultPlan(seed=1, decode_error_rate=0.25,
                                 slow_rate=0.25),
            max_retries=2,
            brownout=BrownoutConfig(open_queue_depth=4, close_queue_depth=1))
    return mixed_jobs, settings


def serve(name, mixed_jobs, **options):
    jobs, settings = load(name, mixed_jobs)
    return jobs, CranService(make_decoder(), **settings, **options).run(jobs)


def check(golden, name, report):
    golden(f"lifecycle_{name}_trace", to_jsonl(report.trace))
    golden(f"lifecycle_{name}_telemetry",
           json.dumps(report.telemetry, sort_keys=True, allow_nan=False))


def test_adaptive_wait_on_a_mixed_deadline_load(golden, mixed_jobs):
    _, report = serve("adaptive", mixed_jobs, tracing=True)
    assert report.jobs_completed == len(mixed_jobs)
    assert len(report.telemetry["decode_time_per_job_us"]) == 2
    check(golden, "adaptive", report)


def test_adaptive_wait_on_packs_that_mix_structures(golden, mixed_jobs):
    jobs, report = serve("mixedpack", mixed_jobs, tracing=True)
    assert report.jobs_completed == len(jobs)
    labels = [event.attrs["structure"] for event in report.trace
              if event.name == "pack.flush"]
    assert labels == ["2x2/QPSK", "2x2/QPSK", "2x2/BPSK+2x2/QPSK",
                      "2x2/BPSK", "2x2/QPSK"]
    check(golden, "mixedpack", report)


def test_decode_errors_stragglers_retries_and_brownout(golden, mixed_jobs):
    _, report = serve("faulty", mixed_jobs, tracing=True)
    names = [event.name for event in report.trace]
    # The run must reach the write sites it is here to pin.
    assert EVENT_BROWNOUT_OPEN in names and EVENT_JOB_RETRY in names
    faults = report.telemetry["faults"]
    assert set(faults["injected"]) == {"decode_error", "slow"}
    assert set(faults["shed_stages"]) == {"brownout", "retry_budget"}
    assert report.jobs_completed + len(report.shed_jobs) == len(mixed_jobs)
    check(golden, "faulty", report)


def test_best_effort_batch_one(golden, mixed_jobs):
    jobs, report = serve("batch1", mixed_jobs, tracing=True)
    assert report.jobs_completed == len(jobs)
    assert all("deadline_us" not in event.attrs for event in report.trace)
    check(golden, "batch1", report)


@pytest.mark.parametrize("num_workers", [0, 2])
@pytest.mark.parametrize("name", ["adaptive", "mixedpack", "faulty", "batch1"])
def test_telemetry_does_not_depend_on_tracing(mixed_jobs, name, num_workers):
    jobs, settings = load(name, mixed_jobs)
    snapshots = []
    for tracing in (False, True):
        session = CranService(make_decoder(), num_workers=num_workers,
                              tracing=tracing, **settings).session()
        for job in sorted(jobs, key=lambda j: (j.arrival_time_us, j.job_id)):
            session.submit(job)
            # One pack in flight: a thread pool credits it before the next
            # scheduling decision reads the fold, as an inline pool does.
            session.pool.wait_idle()
        report = session.close()
        assert (report.trace is not None) == tracing
        # Which idle thread takes a queued pack is the OS's choice.
        del report.telemetry["workers"]["steal_count"]
        snapshots.append(json.dumps(report.telemetry, sort_keys=True))
    assert snapshots[0] == snapshots[1]
