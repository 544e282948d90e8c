"""The serving path's lifecycle log and its export as trace events.

The telemetry answers "how is the service doing?" in aggregate; the trace
answers "where did *this* job's 145 ms go?".  Both read one log: the
:class:`~repro.cran.workers.WorkerPool` appends every lifecycle fact, under
its lock and always, as one row (see :data:`ROW_KINDS`) that holds
references to what already exists — the job, the flushed batch, the
credited results.  The telemetry is a fold over those rows
(:class:`~repro.cran.telemetry.TelemetryRecorder`), and
:func:`trace_events` turns them into the :class:`TraceEvent` stream on the
service's virtual µs clock — only when a run asks for it
(``CranService(tracing=True)``)::

    ingress.admit -> job.admit -> pack.flush(reason) -> pack.dispatch
        -> pack.start (worker pickup) -> pack.complete -> job.complete
    (or job.shed anywhere along the way)

Pack-level events link their member jobs (``job_ids`` in the attrs), so a
pack span covers exactly the jobs that rode in it, and per-job stage sums
reconstruct the recorded end-to-end latency exactly:

``queue`` (admit → flush) + ``dispatch`` (flush → virtual-machine pickup)
+ ``overhead`` (the pack's shared per-job QA overhead) + ``anneal`` (the
pack's amortised compute) = ``finish − arrival`` = the job's latency.

With an inline pool the log is a bit-deterministic function of the offered
load — rows carry only virtual timestamps and submission-order ids, never
a wall clock.  The exporters (Chrome trace JSON for Perfetto, JSONL) and
the per-stage breakdown report live in :mod:`repro.obs`.  Per-layer wall
time is the span table of the end-to-end benchmark's ``--trace 1`` run,
which wraps the layers' public callables from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = [
    "EVENT_INGRESS_ADMIT",
    "EVENT_JOB_ADMIT",
    "EVENT_JOB_RESTAMP",
    "EVENT_JOB_RETRY",
    "EVENT_JOB_SHED",
    "EVENT_JOB_COMPLETE",
    "EVENT_PACK_FLUSH",
    "EVENT_PACK_DISPATCH",
    "EVENT_PACK_START",
    "EVENT_PACK_COMPLETE",
    "EVENT_PACK_FAILED",
    "EVENT_WORKER_RESTART",
    "EVENT_BROWNOUT_OPEN",
    "EVENT_BROWNOUT_CLOSE",
    "JOB_STAGES",
    "TraceEvent",
    "trace_events",
    "JobTimeline",
    "job_timelines",
    "pack_spans",
]

#: Event names of the job/pack lifecycle.  ``ingress.admit`` only appears
#: when an :class:`~repro.cran.gateway.IngressGateway` fronts the session.
EVENT_INGRESS_ADMIT = "ingress.admit"
EVENT_JOB_ADMIT = "job.admit"
EVENT_JOB_RESTAMP = "job.restamp"
EVENT_JOB_SHED = "job.shed"
EVENT_JOB_COMPLETE = "job.complete"
EVENT_PACK_FLUSH = "pack.flush"
EVENT_PACK_DISPATCH = "pack.dispatch"
EVENT_PACK_START = "pack.start"
EVENT_PACK_COMPLETE = "pack.complete"

#: Fault-tolerance events.  None of them appear in a fault-free run:
#: ``pack.failed`` is the non-terminal counterpart of ``job.shed`` (the
#: pack's jobs are handed to the retry layer rather than dropped),
#: ``job.retry`` marks a requeue (the job's later pack events overwrite its
#: flush/start/finish stamps, so a completed timeline reflects the last
#: attempt), ``worker.restart`` marks supervision respawning a dead worker,
#: and the ``brownout.*`` pair brackets an open overload circuit breaker.
EVENT_JOB_RETRY = "job.retry"
EVENT_PACK_FAILED = "pack.failed"
EVENT_WORKER_RESTART = "worker.restart"
EVENT_BROWNOUT_OPEN = "brownout.open"
EVENT_BROWNOUT_CLOSE = "brownout.close"

#: Row kinds of the pool's lifecycle log, each row a tuple:
#: ``(ROW_ADMIT, job)`` is ``job.admit``; ``(ROW_FLUSH, index, batch)`` is
#: ``pack.flush`` + ``pack.dispatch``; ``(ROW_CREDIT, index, machine,
#: service_us, results)`` is ``pack.start`` + ``pack.complete`` + one
#: ``job.complete`` per result; ``(ROW_SHED, ts_us, pack_id, stage, jobs)``
#: is a ``job.shed`` per job the *pool* sheds; ``(ROW_EVENT, name, ts_us,
#: job_id, pack_id, worker, attrs)`` is any fact stated with its attrs —
#: retries, restarts, brownout, parked failures and the gateway's facts,
#: its ``job.shed`` of jobs the pool never owned among them.
ROW_ADMIT = "admit"
ROW_FLUSH = "flush"
ROW_CREDIT = "credit"
ROW_SHED = "shed"
ROW_EVENT = "event"
ROW_KINDS = (ROW_ADMIT, ROW_FLUSH, ROW_CREDIT, ROW_SHED, ROW_EVENT)

#: Per-job latency stages, in lifecycle order.  Their sum is the job's
#: end-to-end latency (finish − arrival) by construction.
JOB_STAGES = ("queue", "dispatch", "overhead", "anneal")


@dataclass(frozen=True)
class TraceEvent:
    """One structured event on the service's virtual clock.

    Attributes
    ----------
    name:
        Event kind (one of the ``EVENT_*`` constants).
    ts_us:
        Virtual timestamp (µs) the event is stamped at.
    job_id, pack_id, worker:
        The entities the event refers to, where applicable.  ``pack_id`` is
        the pool's submission index (deterministic flush order); ``worker``
        is the virtual QA machine that served the pack.
    attrs:
        Free-form structured payload (flush reason, job_ids of a pack,
        service/overhead split, shed stage, ...).
    """

    name: str
    ts_us: float
    job_id: Optional[int] = None
    pack_id: Optional[int] = None
    worker: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (stable key order) for JSONL export."""
        record: Dict[str, Any] = {"name": self.name, "ts_us": self.ts_us}
        if self.job_id is not None:
            record["job_id"] = self.job_id
        if self.pack_id is not None:
            record["pack_id"] = self.pack_id
        if self.worker is not None:
            record["worker"] = self.worker
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(name=record["name"], ts_us=float(record["ts_us"]),
                   job_id=record.get("job_id"), pack_id=record.get("pack_id"),
                   worker=record.get("worker"),
                   attrs=dict(record.get("attrs", {})))


def trace_events(log: Sequence[tuple]) -> Tuple[TraceEvent, ...]:
    """The :class:`TraceEvent` stream of a pool's lifecycle *log* (rows as
    in :data:`ROW_KINDS`), in append order.  Attrs and structure labels are
    built here, not when the rows were written."""
    events = []
    add = events.append
    for row in log:
        kind = row[0]
        if kind == ROW_ADMIT:
            job = row[1]
            attrs: Dict[str, Any] = {"structure": "%dx%d/%s"
                                     % job.structure_key}
            # Unbounded deadlines stay out of the attrs: `inf` is not JSON.
            if math.isfinite(job.deadline_us):
                attrs["deadline_us"] = job.deadline_us
            add(TraceEvent(EVENT_JOB_ADMIT, float(job.arrival_time_us),
                           job_id=job.job_id, attrs=attrs))
        elif kind == ROW_FLUSH:
            _, index, batch = row
            ts_us = float(batch.flush_time_us)
            add(TraceEvent(EVENT_PACK_FLUSH, ts_us, pack_id=index, attrs={
                "reason": batch.reason, "size": batch.size,
                "structure": batch.structure_label,
                "job_ids": list(batch.job_ids)}))
            add(TraceEvent(EVENT_PACK_DISPATCH, ts_us, pack_id=index))
        elif kind == ROW_CREDIT:
            _, index, machine, service_us, results = row
            finish_us = float(results[0].finish_time_us)
            job_ids = [result.job.job_id for result in results]
            add(TraceEvent(EVENT_PACK_START, float(results[0].start_time_us),
                           pack_id=index, worker=machine,
                           attrs={"job_ids": job_ids}))
            # The service split every member shares: the pack's one
            # programming/readout overhead vs its amortised compute.
            overhead_us = service_us - sum(
                result.result.run.compute_time_us for result in results)
            add(TraceEvent(EVENT_PACK_COMPLETE, finish_us, pack_id=index,
                           worker=machine, attrs={
                               "job_ids": job_ids, "service_us": service_us,
                               "overhead_us": overhead_us,
                               "anneal_us": service_us - overhead_us}))
            for result in results:
                add(TraceEvent(EVENT_JOB_COMPLETE, finish_us,
                               job_id=result.job.job_id, pack_id=index,
                               worker=machine,
                               attrs={"deadline_met": result.deadline_met}))
        elif kind == ROW_SHED:
            _, ts_us, pack_id, stage, jobs = row
            for job in jobs:
                add(TraceEvent(EVENT_JOB_SHED, float(ts_us),
                               job_id=job.job_id, pack_id=pack_id,
                               attrs={"stage": stage}))
        else:
            _, name, ts_us, job_id, pack_id, worker, attrs = row
            add(TraceEvent(name, float(ts_us), job_id=job_id,
                           pack_id=pack_id, worker=worker, attrs=dict(attrs)))
    return tuple(events)


# --------------------------------------------------------------------------- #
# Lifecycle reconstruction
# --------------------------------------------------------------------------- #

@dataclass
class JobTimeline:
    """The reconstructed lifecycle of one job from its trace events."""

    job_id: int
    admit_us: Optional[float] = None
    flush_us: Optional[float] = None
    start_us: Optional[float] = None
    finish_us: Optional[float] = None
    pack_id: Optional[int] = None
    worker: Optional[int] = None
    flush_reason: Optional[str] = None
    batch_size: Optional[int] = None
    deadline_us: Optional[float] = None
    deadline_met: Optional[bool] = None
    #: Per-pack service split, identical for every member of the pack.
    overhead_us: Optional[float] = None
    anneal_us: Optional[float] = None
    shed: bool = False
    shed_stage: Optional[str] = None
    admit_count: int = 0
    complete_count: int = 0
    shed_count: int = 0
    #: Requeues after pack failures (``job.retry`` events).
    retry_count: int = 0

    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> bool:
        """Whether the job reached ``job.complete``."""
        return self.finish_us is not None

    @property
    def latency_us(self) -> Optional[float]:
        """End-to-end latency (µs), ``None`` unless completed."""
        if self.finish_us is None or self.admit_us is None:
            return None
        return self.finish_us - self.admit_us

    def stages_us(self) -> Optional[Dict[str, float]]:
        """Per-stage latency split (see :data:`JOB_STAGES`).

        ``queue + dispatch + overhead + anneal`` equals :attr:`latency_us`
        up to accounting rounding; ``None`` unless the job completed with a
        full span chain.
        """
        if (self.admit_us is None or self.flush_us is None
                or self.start_us is None or self.finish_us is None
                or self.overhead_us is None):
            return None
        service_us = self.finish_us - self.start_us
        overhead = min(self.overhead_us, service_us)
        return {
            "queue": self.flush_us - self.admit_us,
            "dispatch": self.start_us - self.flush_us,
            "overhead": overhead,
            "anneal": service_us - overhead,
        }


def job_timelines(events: Sequence[TraceEvent]) -> Dict[int, JobTimeline]:
    """Reconstruct every job's lifecycle from a trace event stream.

    Pack events fan out to their member jobs via the ``job_ids`` attr, so a
    timeline is complete even though queue/start/finish stamps are recorded
    once per pack.  Jobs that only ever appear in ``ingress.admit`` /
    ``job.shed`` events (gateway sheds) yield timelines with
    ``shed=True`` and no admit stamp.
    """
    timelines: Dict[int, JobTimeline] = {}

    def timeline(job_id: int) -> JobTimeline:
        if job_id not in timelines:
            timelines[job_id] = JobTimeline(job_id=int(job_id))
        return timelines[job_id]

    for event in events:
        if event.name == EVENT_JOB_ADMIT:
            entry = timeline(event.job_id)
            entry.admit_us = event.ts_us
            entry.admit_count += 1
            deadline = event.attrs.get("deadline_us")
            if deadline is not None:
                entry.deadline_us = float(deadline)
        elif event.name == EVENT_PACK_FLUSH:
            for job_id in event.attrs.get("job_ids", ()):
                entry = timeline(job_id)
                entry.flush_us = event.ts_us
                entry.pack_id = event.pack_id
                entry.flush_reason = event.attrs.get("reason")
                entry.batch_size = event.attrs.get("size")
        elif event.name == EVENT_PACK_START:
            for job_id in event.attrs.get("job_ids", ()):
                entry = timeline(job_id)
                entry.start_us = event.ts_us
                entry.worker = event.worker
        elif event.name == EVENT_PACK_COMPLETE:
            overhead = event.attrs.get("overhead_us")
            anneal = event.attrs.get("anneal_us")
            for job_id in event.attrs.get("job_ids", ()):
                entry = timeline(job_id)
                entry.overhead_us = overhead
                entry.anneal_us = anneal
        elif event.name == EVENT_JOB_COMPLETE:
            entry = timeline(event.job_id)
            entry.finish_us = event.ts_us
            entry.complete_count += 1
            if "deadline_met" in event.attrs:
                entry.deadline_met = bool(event.attrs["deadline_met"])
        elif event.name == EVENT_JOB_RETRY:
            timeline(event.job_id).retry_count += 1
        elif event.name == EVENT_JOB_SHED:
            entry = timeline(event.job_id)
            entry.shed = True
            entry.shed_count += 1
            entry.shed_stage = event.attrs.get("stage", entry.shed_stage)
    return timelines


def pack_spans(events: Sequence[TraceEvent]) -> Dict[int, Dict[str, Any]]:
    """Per-pack span summary: flush/start/finish stamps, worker, members."""
    packs: Dict[int, Dict[str, Any]] = {}

    def span(pack_id: int) -> Dict[str, Any]:
        return packs.setdefault(int(pack_id), {
            "pack_id": int(pack_id), "flush_us": None, "start_us": None,
            "finish_us": None, "worker": None, "reason": None,
            "job_ids": (), "structure": None,
            "service_us": None, "overhead_us": None, "anneal_us": None,
        })

    for event in events:
        if event.pack_id is None:
            continue
        entry = span(event.pack_id)
        if event.name == EVENT_PACK_FLUSH:
            entry["flush_us"] = event.ts_us
            entry["reason"] = event.attrs.get("reason")
            entry["job_ids"] = tuple(event.attrs.get("job_ids", ()))
            entry["structure"] = event.attrs.get("structure")
        elif event.name == EVENT_PACK_START:
            entry["start_us"] = event.ts_us
            entry["worker"] = event.worker
        elif event.name == EVENT_PACK_COMPLETE:
            entry["finish_us"] = event.ts_us
            for key in ("service_us", "overhead_us", "anneal_us"):
                if key in event.attrs:
                    entry[key] = event.attrs[key]
    return packs


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of a small series (no numpy needed).

    The obs report runs on plain event dumps, possibly outside the library's
    numeric stack; this keeps the CLI dependency-free.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * (q / 100.0)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)
