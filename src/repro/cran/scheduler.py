"""Deadline-aware batching scheduler for the C-RAN decode pool.

The serving problem: a QA job pays its programming, preprocessing and
readout overhead once for whatever is on the chip, and Section 4 of the
paper (quoted in :mod:`repro.annealer.parallel`) lets "several (identical
or different) problem instances" share it — but uplink traffic arrives as a
mixed stream of cells, modulations and deadlines.  The
:class:`EDFBatchScheduler` bridges the two at the chip's granularity: every
pending job waits in one queue, whatever its problem structure, and the
queue is flushed into one pack when it

* reaches ``max_batch`` jobs (a full pack — flushed immediately on the
  arrival that filled it), or
* has held its oldest job for ``max_wait_us`` (bounded batching delay — the
  flush is stamped at the exact due time, keeping event-driven simulations
  reproducible regardless of how coarsely the clock is advanced), or
* is drained at shutdown.

A flush takes everything pending, earliest deadline first (ties broken by
``job_id``, so schedules are fully deterministic).  What the members share
is the draw discipline, not the modulation: a pack is one
:meth:`~repro.decoder.quamax.QuAMaxDecoder.detect_batch` call, which runs
under one ``rng_mode`` and lays the members out as one block-diagonal
sub-pack per structure — so there is one queue per discipline.  Batching
never changes decode results — every job consumes its own private random
stream — so the scheduler is purely a latency/throughput policy layer.

The scheduler is a passive data structure driven by explicit timestamps
(``submit`` / ``advance`` / ``drain``); it never reads a wall clock.  That
makes serving simulations deterministic and lets the same scheduler run under
a virtual clock (tests, capacity models) or a real-time event loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cran.jobs import DecodeJob, StructureKey, structure_counts
from repro.exceptions import SchedulingError
from repro.utils.validation import check_integer_in_range, check_positive

#: Flush reasons stamped on emitted batches.
FLUSH_FULL = "full"
FLUSH_TIMEOUT = "timeout"
FLUSH_DRAIN = "drain"

#: Modelled decode time of a pack, ``jobs -> µs``: asked about everything
#: pending (adaptive wait) and about ``(job,)`` (brownout, retry give-up).
DecodeTimeModel = Callable[[Sequence[DecodeJob]], float]


@dataclass(frozen=True)
class DecodeBatch:
    """The jobs flushed for one QA job, whatever mix of structures."""

    jobs: Tuple[DecodeJob, ...]
    flush_time_us: float
    reason: str

    @property
    def size(self) -> int:
        """Number of jobs packed into the batch."""
        return len(self.jobs)

    @property
    def job_ids(self) -> Tuple[int, ...]:
        """Member job ids, in the batch's (EDF) packing order."""
        return tuple(job.job_id for job in self.jobs)

    @property
    def structures(self) -> Tuple[StructureKey, ...]:
        """The members' distinct structure keys, sorted."""
        return tuple(key for key, _ in structure_counts(self.jobs))

    @property
    def structure_label(self) -> str:
        """Human/JSON-friendly tag, e.g. ``"2x2/BPSK+2x2/QPSK"``."""
        return "+".join("%dx%d/%s" % key for key in self.structures)


class EDFBatchScheduler:
    """Chip-level batching with EDF ordering and bounded wait.

    Parameters
    ----------
    max_batch:
        Maximum jobs per flushed batch (the blocks of one chip programming).
    max_wait_us:
        Longest a job may sit pending before the queue is force-flushed,
        trading batch fill against queueing delay.  ``inf`` flushes only on
        full packs (and at drain).
    decode_time_model:
        Optional deadline-driven *adaptive* wait: a callable mapping the
        pending jobs to their modelled decode time as one pack, in µs.  The
        queue then also flushes as soon as its most urgent member's slack
        (deadline minus current time) drops to the modelled decode time of
        the pack — waiting any longer would convert that job's remaining
        slack into scheduler queueing and miss the deadline even though
        capacity was free.  At high load full packs still flush first (the
        model only ever *shortens* the wait), so batch fill is unaffected
        where batching pays; at low load the tail no longer sits out the
        whole ``max_wait_us`` timeout.
    """

    def __init__(self, max_batch: int = 16,
                 max_wait_us: float = 2_000.0,
                 decode_time_model: Optional[DecodeTimeModel] = None):
        self.max_batch = check_integer_in_range("max_batch", max_batch,
                                                minimum=1)
        if not math.isinf(max_wait_us):
            check_positive("max_wait_us", max_wait_us)
        self.max_wait_us = float(max_wait_us)
        self.decode_time_model = decode_time_model
        #: Pending jobs in arrival order, one queue per draw discipline
        #: (``DecodeJob.rng_mode``); an emptied queue is removed.
        self._pending: Dict[str, List[DecodeJob]] = {}
        self._clock_us = 0.0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def clock_us(self) -> float:
        """Latest timestamp the scheduler has observed."""
        return self._clock_us

    @property
    def queue_depth(self) -> int:
        """Number of jobs currently pending."""
        return sum(len(jobs) for jobs in self._pending.values())

    def _due_us(self, jobs: List[DecodeJob]) -> float:
        """Absolute time at which the pending *jobs* must flush.

        The earlier of the bounded-wait timeout (oldest arrival plus
        ``max_wait_us``) and, when a decode-time model is configured, the
        latest start that still meets the most urgent member's deadline
        (that deadline minus the pack's modelled decode time).  Never
        earlier than the newest member's arrival, so flush stamps cannot
        precede the arrival of a job they contain.
        """
        due = jobs[0].arrival_time_us + self.max_wait_us
        if self.decode_time_model is not None:
            urgent = min(job.deadline_us for job in jobs)
            if not math.isinf(urgent):
                estimate = self.decode_time_model(tuple(jobs))
                # A model emitting NaN/inf/negative estimates (a cold online
                # EWMA fed a pathological overhead, a buggy analytic fit)
                # would silently corrupt due times and EDF ordering; fail
                # loudly instead.
                try:
                    estimate = float(estimate)
                except (TypeError, ValueError):
                    estimate = math.nan
                if not math.isfinite(estimate) or estimate < 0.0:
                    raise SchedulingError(
                        f"decode-time model returned an invalid estimate "
                        f"{estimate!r} for a pack of {len(jobs)} jobs; "
                        f"expected a finite non-negative number")
                due = min(due, urgent - estimate)
        return max(due, jobs[-1].arrival_time_us)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _flush(self, rng_mode: str, flush_time_us: float,
               reason: str) -> DecodeBatch:
        """Everything pending under *rng_mode*, as one EDF-ordered batch."""
        jobs = self._pending.pop(rng_mode)
        return DecodeBatch(
            jobs=tuple(sorted(jobs, key=lambda j: (j.deadline_us, j.job_id))),
            flush_time_us=flush_time_us, reason=reason)

    def _due_batches(self, now_us: float,
                     strict: bool = False) -> List[DecodeBatch]:
        """Flush every queue whose wait budget (bounded or adaptive) is spent.

        With ``strict=True`` only queues due *strictly before* *now_us*
        flush — the boundary :meth:`submit` needs so an arrival at exactly
        the due time rides along in that flush instead of stranding behind
        it.
        """
        due: List[Tuple[float, float, str]] = []
        for rng_mode, jobs in self._pending.items():
            due_time = self._due_us(jobs)
            if due_time < now_us or (not strict and due_time == now_us):
                due.append((due_time, min(job.deadline_us for job in jobs),
                            rng_mode))
        # Emit in event order; simultaneous flushes go most-urgent first.
        return [self._flush(rng_mode, due_time, FLUSH_TIMEOUT)
                for due_time, _, rng_mode in sorted(due)]

    def advance(self, now_us: float) -> List[DecodeBatch]:
        """Advance the virtual clock and return any timeout-due batches.

        The clock never moves backwards; flush timestamps are the exact due
        times (``oldest arrival + max_wait_us``), not *now_us*, so a coarse
        caller observes the same schedule as a fine-grained one.
        """
        if now_us < self._clock_us:
            raise SchedulingError(
                f"time must be monotonic: advance({now_us}) after "
                f"{self._clock_us}")
        self._clock_us = now_us
        return self._due_batches(now_us)

    def submit(self, job: DecodeJob) -> List[DecodeBatch]:
        """Accept *job* and return every batch its arrival triggers.

        The arrival implicitly advances the clock.  A queue whose wait
        budget expired strictly before this arrival flushes first (stamped
        at its due time — the new job cannot ride in a batch stamped before
        it arrived); then the job is enqueued; then a queue due at exactly
        this instant flushes, the new arrival riding along if it joined it;
        and finally the job's queue flushes as ``full`` if the arrival
        filled it to ``max_batch``.
        """
        if job.arrival_time_us < self._clock_us:
            raise SchedulingError(
                f"job {job.job_id} arrives at {job.arrival_time_us} but the "
                f"scheduler clock is already at {self._clock_us}")
        now_us = job.arrival_time_us
        flushed = self._due_batches(now_us, strict=True)
        self._clock_us = now_us
        self._pending.setdefault(job.rng_mode, []).append(job)
        flushed.extend(self._due_batches(now_us))
        if len(self._pending.get(job.rng_mode, ())) >= self.max_batch:
            flushed.append(self._flush(job.rng_mode, now_us, FLUSH_FULL))
        return flushed

    def drain(self, now_us: Optional[float] = None) -> List[DecodeBatch]:
        """Flush everything still pending (end of stream / shutdown).

        Batches are emitted most-urgent-deadline first and stamped with
        *now_us* (default: the current clock).
        """
        now_us = self._clock_us if now_us is None else now_us
        flushed = self.advance(now_us)
        remaining = sorted(
            self._pending,
            key=lambda mode: min((job.deadline_us, job.job_id)
                                 for job in self._pending[mode]))
        flushed.extend(self._flush(rng_mode, now_us, FLUSH_DRAIN)
                       for rng_mode in remaining)
        return flushed

    def __repr__(self) -> str:
        return (f"EDFBatchScheduler(max_batch={self.max_batch}, "
                f"max_wait_us={self.max_wait_us}, "
                f"pending={self.queue_depth})")
