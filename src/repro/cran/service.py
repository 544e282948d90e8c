"""The C-RAN decode service: scheduler + worker pool + telemetry in one loop.

:class:`CranService` is the top of the serving stack — the piece that turns
the library into a simulated base-station processing pool.  It replays an
offered load (any iterable of :class:`~repro.cran.jobs.DecodeJob`, e.g. from
:class:`~repro.cran.traffic.PoissonTrafficGenerator`) through an event loop
on the jobs' virtual clock: each arrival advances the
:class:`~repro.cran.scheduler.EDFBatchScheduler`, due batches flow into the
:class:`~repro.cran.workers.WorkerPool`, whose lifecycle log the
:class:`~repro.cran.telemetry.TelemetryRecorder` folds into the serving
statistics (throughput, latency percentiles, batch fill, deadline misses)
the report exposes.

Because every job decodes from its own private stream, the whole service is a
deterministic function of the offered load — batching and scheduling policy
change *when* jobs complete, never *what* they decode to.  That holds across
every execution axis: the C artefact or the NumPy path a box without a
compiler runs, and the worker-pool ``mode`` (inline, threads or a
multi-core process pool) all produce bit-identical per-job detections.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.annealer.parallel import parallelization_factor
from repro.cran.faults import BrownoutConfig, BrownoutController, FaultPlan
from repro.cran.jobs import (DecodeJob, JobResult, StructureKey,
                             structure_counts)
from repro.cran.scheduler import DecodeTimeModel, EDFBatchScheduler
from repro.cran.telemetry import TelemetryRecorder
from repro.cran.tracing import (
    EVENT_BROWNOUT_CLOSE,
    EVENT_BROWNOUT_OPEN,
    EVENT_JOB_RETRY,
    TraceEvent,
)
from repro.cran.workers import WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.modulation.constellation import get_constellation
from repro.utils.validation import check_integer_in_range

#: Headroom both decode-time models add: flushing exactly at ``slack ==
#: service time`` would finish exactly at the deadline with none left for
#: queueing or model error, so the scheduler flushes a little earlier than
#: the pure model demands.
DECODE_TIME_MARGIN = 0.1


@dataclass(frozen=True)
class ServiceReport:
    """Outcome of replaying one offered load through the service."""

    #: Completed jobs, ordered by job id.
    results: List[JobResult]
    #: Jobs shed for good (gateway admission, brownout, retry give-up).
    shed_jobs: List[DecodeJob]
    #: Full telemetry snapshot (see :meth:`TelemetryRecorder.snapshot`).
    telemetry: dict
    #: Wall-clock duration of the replay (seconds) — the *real* decode
    #: throughput, as opposed to the virtual-clock latency accounting.
    wall_time_s: float
    #: The run's lifecycle log exported as trace events
    #: (``CranService(tracing=True)``), in append order; ``None`` when
    #: tracing was off.  Feed it to the :mod:`repro.obs` exporters / report.
    trace: Optional[Tuple[TraceEvent, ...]] = None

    # ------------------------------------------------------------------ #
    @property
    def jobs_completed(self) -> int:
        """Number of jobs decoded."""
        return len(self.results)

    @property
    def wall_jobs_per_s(self) -> float:
        """Decode throughput over the replay's wall-clock time."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.jobs_completed / self.wall_time_s

    def bit_error_rate(self) -> Optional[float]:
        """Aggregate BER over jobs with ground truth (``None`` if none)."""
        total_errors = 0
        total_bits = 0
        for result in self.results:
            errors = result.bit_errors()
            if errors is None:
                continue
            total_errors += errors
            total_bits += result.job.channel_use.num_bits
        if total_bits == 0:
            return None
        return total_errors / total_bits


def decode_time_model_for(decoder: QuAMaxDecoder) -> DecodeTimeModel:
    """Modelled decode time of a pack of jobs, derived from *decoder*.

    The model mirrors the worker pool's virtual-time accounting: one shared
    overhead (programming + preprocessing + readout) per pack, plus each
    member's amortised compute time ``N_a * T_a / P_f`` — where the
    parallelization factor ``P_f`` follows from its structure key's logical
    problem size, exactly as the machine model computes it at decode time.
    Used by :class:`CranService` ``adaptive_wait`` to flush the pending jobs
    as soon as their most urgent member's slack drops to this modelled
    service time, and by the brownout and retry layers to price one job.
    The model is inflated by :data:`DECODE_TIME_MARGIN`.
    """
    annealer = decoder.annealer
    parameters = decoder.parameters
    overhead_us = annealer.overheads.total_us(parameters.num_anneals)
    anneal_us = parameters.num_anneals * parameters.schedule.duration_us
    headroom = 1.0 + DECODE_TIME_MARGIN

    @lru_cache(maxsize=None)
    def per_job_us(key: StructureKey) -> float:
        num_tx, _num_rx, modulation = key
        return anneal_us / parallelization_factor(
            num_tx * get_constellation(modulation).bits_per_symbol,
            total_qubits=annealer.num_qubits,
            shore_size=annealer.topology.shore_size)

    def model(jobs: Sequence[DecodeJob]) -> float:
        return (overhead_us
                + sum(size * per_job_us(key)
                      for key, size in structure_counts(jobs))) * headroom

    return model


def online_decode_time_model(telemetry: TelemetryRecorder,
                             fallback: DecodeTimeModel,
                             overhead_us: float = 0.0) -> DecodeTimeModel:
    """Decode-time model fed by the telemetry's per-structure EWMAs.

    Wraps *telemetry*'s online estimate
    (:meth:`TelemetryRecorder.decode_time_us` — EWMAs of observed pack
    service times and sizes, folded from the pool's log, with *overhead_us*
    the known per-pack overhead separating the fixed and per-job parts)
    with the same :data:`DECODE_TIME_MARGIN` as the analytic model,
    falling back to *fallback* until every structure in the pack has
    completed enough packs to be trusted.
    Unlike the analytic model, the online one tracks what decodes actually
    cost on this machine under current load, so the slack threshold is
    self-calibrating.

    Note on determinism: with an inline pool (``num_workers=0``) every pack
    completes — and feeds the EWMA — before the next scheduling decision, so
    serving stays a deterministic function of the offered load.  With a
    concurrent pool the model sees whatever has been credited by the time a
    flush decision is made, so adaptive flush *timing* can vary across runs;
    per-job detections never change either way.
    """
    headroom = 1.0 + DECODE_TIME_MARGIN

    def model(jobs: Sequence[DecodeJob]) -> float:
        estimate = telemetry.decode_time_us(jobs, overhead_us=overhead_us)
        if estimate is None:
            return fallback(jobs)
        return estimate * headroom

    return model


class ServiceSession:
    """One open replay of a :class:`CranService`: submit jobs, then close.

    :meth:`CranService.run` is the batch interface — an iterable in, a report
    out.  A session is the *incremental* interface underneath it (and under
    the ingress gateway): it owns the run's scheduler and worker pool (whose
    log the telemetry folds), accepts jobs one at a time in arrival order,
    and produces the same :class:`ServiceReport` on :meth:`close`.  Feeding
    a session the jobs of an offered load in arrival order is exactly
    ``run`` — same scheduling decisions, same detections, same telemetry.

    Sessions are not thread-safe; concurrent producers go through
    :class:`~repro.cran.gateway.IngressGateway`, which serialises submission
    into a session.
    """

    def __init__(self, service: "CranService"):
        self._tracing = service.tracing
        # Baseline for per-run hit/miss deltas: the decoder's cache counters
        # are cumulative machine state shared by every run on it.
        try:
            self._cache_baseline = dict(service.decoder.sampler_cache_info())
        except AttributeError:
            self._cache_baseline = None
        base = service.scheduler_model()
        self._scheduler = EDFBatchScheduler(
            max_batch=service.max_batch,
            max_wait_us=service.max_wait_us)
        # Fault tolerance: with a fault plan the pool parks failed packs
        # instead of shedding them, and this session is the retry layer
        # that picks them up.
        self._max_retries = service.max_retries
        self._fault_tolerant = service.fault_plan is not None
        self._brownout = (BrownoutController(service.brownout)
                          if service.brownout is not None else None)
        # The deadline-aware give-up threshold: a job whose slack is below
        # its own modelled decode time — the same model, asked about
        # ``(job,)`` — cannot finish in time, so retrying (or even
        # admitting) it wastes a slot.
        self._give_up_model = (
            base or decode_time_model_for(service.decoder)
            if self._fault_tolerant or self._brownout is not None else None)
        #: The ingress gateway states its admit/shed/re-stamp events through
        #: this pool's ``emit`` too, so they land in one serialised stream.
        self.pool = WorkerPool(service.decoder,
                               num_workers=service.num_workers,
                               mode=service.mode,
                               faults=service.fault_plan,
                               restart_budget=service.restart_budget,
                               threads=service.threads)
        self._telemetry = self.pool.telemetry
        if base is not None:
            # Online adaptive wait: observed per-structure decode times
            # (EWMAs folded from the pool's log) refine the analytic model
            # as the run progresses; the known per-pack overhead anchors
            # the fixed/per-job split so full-pack observations still
            # predict small pending packs.
            overhead_us = service.decoder.annealer.overheads.total_us(
                service.decoder.parameters.num_anneals)
            self._scheduler.decode_time_model = online_decode_time_model(
                self._telemetry, base, overhead_us=overhead_us)
        self._start_wall = time.perf_counter()
        self._report: Optional[ServiceReport] = None

    # ------------------------------------------------------------------ #
    @property
    def clock_us(self) -> float:
        """Latest virtual timestamp the session's scheduler has observed."""
        return self._scheduler.clock_us

    @property
    def queue_depth(self) -> int:
        """Jobs currently pending in the session's scheduler."""
        return self._scheduler.queue_depth

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (the report exists)."""
        return self._report is not None

    # ------------------------------------------------------------------ #
    def submit(self, job: DecodeJob) -> None:
        """Feed one job; jobs must arrive in (arrival time, id) order."""
        self.pool.admit(job)
        try:
            if self._brownout is not None and self._brownout_shed(job):
                return
            for batch in self._scheduler.submit(job):
                self.pool.submit(batch)
            self._telemetry.record_queue_depth(job.arrival_time_us,
                                               self._scheduler.queue_depth)
            if self._fault_tolerant and not self.pool.num_workers:
                # Inline pools fail synchronously, so the retry layer runs
                # per submission — this is what keeps inline fault runs a
                # bit-deterministic function of the offered load.
                while self._handle_failures():
                    pass
        except BaseException:
            self.pool.close()
            raise

    def _brownout_shed(self, job: DecodeJob) -> bool:
        """Advance the brownout breaker at this arrival; shed the job when
        the breaker is open and the job is already hopeless."""
        now_us = job.arrival_time_us
        transition = self._brownout.update(
            now_us, queue_depth=self._scheduler.queue_depth,
            shed_rate=self._telemetry.shed_rate())
        if transition is not None:
            self.pool.emit(
                EVENT_BROWNOUT_OPEN if transition == "open"
                else EVENT_BROWNOUT_CLOSE,
                now_us, depth=self._scheduler.queue_depth)
        if not self._brownout.active:
            return False
        slack = job.deadline_us - now_us
        if math.isinf(slack):
            # Best-effort jobs are never hopeless; brownout only protects
            # deadline traffic from futile work.
            return False
        # Already-hopeless test: the job's own modelled decode, inflated by
        # the backlog it would queue behind (in units of full packs).
        backlog = self._scheduler.queue_depth
        needed = self._give_up_model((job,)) * (
            1.0 + backlog / float(max(1, self._scheduler.max_batch)))
        if slack >= needed:
            return False
        self.pool.shed((job,), "brownout", now_us)
        return True

    def _handle_failures(self) -> int:
        """Requeue the pool's failed packs; returns how many jobs were
        resubmitted (0 = the failure backlog is fully resolved).

        Per job: give up when its retry budget is spent (shed stage
        ``retry_budget``) or its remaining slack is below the modelled
        single-job decode time (shed stage ``retry_deadline``); otherwise
        re-stamp it at the current virtual clock with ``retries + 1`` and
        feed it back through the EDF scheduler.  A retried decode is
        bit-identical to the first attempt — the job's private seed rides
        along unchanged.
        """
        resubmitted = 0
        for _index, batch, stage in self.pool.take_failed():
            for job in batch.jobs:
                now_us = max(self._scheduler.clock_us, batch.flush_time_us)
                if job.retries >= self._max_retries:
                    self.pool.shed((job,), "retry_budget", now_us)
                    continue
                if (math.isfinite(job.deadline_us)
                        and job.deadline_us - now_us
                        < self._give_up_model((job,))):
                    self.pool.shed((job,), "retry_deadline", now_us)
                    continue
                retry = replace(job, arrival_time_us=now_us,
                                retries=job.retries + 1)
                self.pool.emit(EVENT_JOB_RETRY, now_us, job_id=retry.job_id,
                               attempt=retry.retries, stage=stage)
                resubmitted += 1
                for flushed in self._scheduler.submit(retry):
                    self.pool.submit(flushed)
        return resubmitted

    def close(self) -> ServiceReport:
        """Drain the scheduler, stop the pool and return the report.

        Idempotent: repeated calls return the same report.  The drain phase
        samples queue depth after every flush (at the flush stamp), so
        backlog statistics cover the bursty tail of the load instead of
        stopping at the last arrival.
        """
        if self._report is not None:
            return self._report
        try:
            while True:
                pending = self._scheduler.queue_depth
                for batch in self._scheduler.drain():
                    pending -= batch.size
                    self.pool.submit(batch)
                    self._telemetry.record_queue_depth(batch.flush_time_us,
                                                       pending)
                if not self._fault_tolerant:
                    break
                # Concurrent pools report failures asynchronously: wait for
                # every in-flight pack to credit or fail, requeue, and keep
                # draining until a round resolves without resubmissions.
                # (Per-job retry budgets bound the loop.)
                self.pool.wait_idle()
                if not self._handle_failures():
                    break
        finally:
            self.pool.close()
        wall_time_s = time.perf_counter() - self._start_wall
        telemetry = self._telemetry.snapshot()
        # Surface the counters that used to require poking objects
        # directly: pool-level worker/shard/steal counters and the
        # decoder's warm sampler cache.
        telemetry["workers"] = self.pool.worker_info()
        if self._cache_baseline is not None:
            info = dict(self.pool.decoder.sampler_cache_info())
            # Hits/misses as this run's delta; capacity/entries are current.
            for key in ("hits", "misses"):
                info[key] -= self._cache_baseline.get(key, 0)
            telemetry["sampler_cache"] = info
        self._report = ServiceReport(
            results=self.pool.results(),
            shed_jobs=self.pool.shed_jobs,
            telemetry=telemetry,
            wall_time_s=wall_time_s,
            trace=self.pool.events() if self._tracing else None,
        )
        return self._report

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info and exc_info[0] is not None:
            # Error path: stop workers without forcing a full drain.
            self.pool.close()
        else:
            self.close()


class CranService:
    """Deadline-aware batched decode service over a QuAMax processing pool.

    Parameters
    ----------
    decoder:
        The decoder every batch runs through; a default
        :class:`QuAMaxDecoder` is created when omitted.  Each pack decodes
        under its jobs' ``rng_mode`` (``"sequential"`` unless set).
    threads:
        Per-worker OpenMP width of a counter-mode pack's kernel call,
        forwarded to the pool (``None`` derives it: ``cpu_count //
        num_workers`` for process pools, else 1).  Sequential packs ignore
        it; a one-thread call of either discipline shards the pack's blocks
        over the usable CPUs.
    max_batch, max_wait_us:
        Scheduler batching policy (see :class:`EDFBatchScheduler`).
    adaptive_wait:
        When true, the scheduler additionally flushes a pending pack as
        soon as its most urgent member's slack drops to the pack's modelled
        decode time, cutting the low-load latency tail without sacrificing
        fill at high load.  The model is *online*: EWMAs of observed
        per-structure decode times from this run's telemetry
        (:func:`online_decode_time_model`), falling back to the analytic
        :func:`decode_time_model_for` until enough packs of every pending
        structure have completed.
    num_workers, mode:
        Worker-pool execution policy (see :class:`WorkerPool`);
        ``num_workers=0`` (default) serves inline and deterministically,
        ``mode="process"`` scales the pool across cores.  The pool blocks
        the session while it holds
        :data:`~repro.cran.workers.QUEUE_CAPACITY` packs.
    tracing:
        When true, the report carries the pool's lifecycle log exported as
        trace events in :attr:`ServiceReport.trace`.  The log is always
        kept (the telemetry is folded from it); tracing only exports it.
        Events live on the virtual clock, so with an inline pool they are
        bit-deterministic, and decode results and telemetry are identical
        with tracing on or off.
    fault_plan:
        Optional :class:`~repro.cran.faults.FaultPlan` injecting seeded,
        deterministic worker crashes / decode errors / stragglers (by pack
        submission index) and gateway submission errors (by job id).
        With a plan the pool parks the packs it fails and the session's
        retry layer requeues them instead of shedding immediately.
    max_retries:
        Per-job requeue budget after pack failures.  A failed job whose
        budget is spent sheds with stage ``retry_budget``; one whose slack
        no longer covers its modelled decode sheds with stage
        ``retry_deadline``.  Retried decodes are bit-identical to the first
        attempt (the job's private seed rides along unchanged).
    restart_budget:
        How many dead workers the pool's supervision may respawn over a
        session (``worker.restart`` trace events); see
        :class:`~repro.cran.workers.WorkerPool`.
    brownout:
        Optional :class:`~repro.cran.faults.BrownoutConfig` enabling the
        overload circuit breaker: when the scheduler backlog trips the open
        threshold, already-hopeless jobs (slack below their modelled decode
        inflated by the backlog) shed at admission with stage ``brownout``
        until the backlog drains below the close threshold.
    """

    def __init__(self, decoder: Optional[QuAMaxDecoder] = None, *,
                 threads: Optional[int] = None,
                 max_batch: int = 16,
                 max_wait_us: float = 2_000.0,
                 adaptive_wait: bool = False,
                 num_workers: int = 0,
                 mode: str = "thread",
                 tracing: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 max_retries: int = 0,
                 restart_budget: int = 0,
                 brownout: Optional[BrownoutConfig] = None):
        self.decoder = decoder or QuAMaxDecoder()
        self.threads = threads
        self.max_batch = max_batch
        self.max_wait_us = max_wait_us
        self.adaptive_wait = adaptive_wait
        self.num_workers = num_workers
        self.mode = mode
        self.tracing = tracing
        self.fault_plan = fault_plan
        self.max_retries = check_integer_in_range("max_retries", max_retries,
                                                  minimum=0)
        self.restart_budget = restart_budget
        self.brownout = brownout

    # ------------------------------------------------------------------ #
    def scheduler_model(self) -> Optional[DecodeTimeModel]:
        """The base decode-time model the scheduler runs with (or ``None``).

        For ``adaptive_wait`` this is the *analytic* component
        (:func:`decode_time_model_for`); at :meth:`run` time it becomes the
        fallback of an :func:`online_decode_time_model` fed by the run's
        telemetry, so the wait threshold self-calibrates once observed pack
        decode times accumulate.
        """
        if self.adaptive_wait:
            return decode_time_model_for(self.decoder)
        return None

    def session(self) -> ServiceSession:
        """Open an incremental serving session (see :class:`ServiceSession`)."""
        return ServiceSession(self)

    def gateway(self, **kwargs):
        """Open an ingress gateway feeding a fresh session of this service.

        Keyword arguments are forwarded to
        :class:`~repro.cran.gateway.IngressGateway` (``admission_limit``,
        ``per_cell_limit``, ``overload_policy``).
        """
        from repro.cran.gateway import IngressGateway
        return IngressGateway(self, **kwargs)

    def run(self, jobs: Iterable[DecodeJob]) -> ServiceReport:
        """Replay *jobs* through the scheduler and pool; return the report.

        Jobs are processed in arrival order (ties by id).  The call returns
        once every non-shed job has been decoded and the pool has drained.
        """
        ordered = sorted(jobs, key=lambda j: (j.arrival_time_us, j.job_id))
        session = self.session()
        for job in ordered:
            session.submit(job)
        return session.close()

    def __repr__(self) -> str:
        return (f"CranService(max_batch={self.max_batch}, "
                f"max_wait_us={self.max_wait_us}, "
                f"adaptive_wait={self.adaptive_wait}, "
                f"num_workers={self.num_workers}, mode={self.mode!r})")
