"""Ingress gateway: many fronthaul producers, one serving session.

The paper's deployment model is a *centralized* RAN: many cells forward
their uplink streams to one QuAMax-equipped processing pool.  The
:class:`~repro.cran.service.ServiceSession` underneath is deliberately
single-producer — the EDF scheduler's virtual clock only moves forward — so
something has to sit between the concurrent fronthaul feeds and that strict
clock.  That is the :class:`IngressGateway`:

* **Per-cell shards.**  Each producer (cell) appends into its own bounded
  deque, so cells never contend with each other on submission, only on the
  shared admission bound.
* **A merging dispatcher.**  One background thread repeatedly takes the
  globally earliest pending job — smallest ``(arrival_time_us, job_id)``
  over all shard heads — and feeds it to the session.  A single producer
  submitting in arrival order therefore reproduces
  :meth:`~repro.cran.service.CranService.run` exactly: same scheduling
  decisions, same detections, same telemetry.
* **Admission control.**  Total buffered jobs are bounded by
  ``admission_limit`` (optionally per cell by ``per_cell_limit``).  On
  overflow the gateway either **sheds** the offered job (default — late
  decodes are worthless at the deadline-driven edge) or **blocks** the
  producer until the dispatcher drains.
* **Late re-stamping.**  With concurrent producers, a job can reach the
  gateway after the dispatcher has already advanced the scheduler clock past
  its nominal arrival.  Rather than violating the scheduler's monotonic
  clock, the dispatcher re-stamps such a job to arrive *now* (deadline
  clamped to stay valid) and counts it, so ingress jitter is visible in the
  report instead of crashing the replay.

Decode *results* are unaffected by any of this: jobs carry private seeds, so
whatever the interleaving of producers, every admitted job decodes to exactly
the bits a serial replay would produce.

The gateway's report is the session's :class:`ServiceReport` with
gateway-shed jobs merged into ``shed_jobs`` and an ``"ingress"`` section
added to the telemetry snapshot.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Hashable, List, Optional

from repro.cran.jobs import DecodeJob
from repro.cran.service import CranService, ServiceReport, ServiceSession
from repro.cran.tracing import (
    EVENT_INGRESS_ADMIT,
    EVENT_JOB_RESTAMP,
    EVENT_JOB_SHED,
)
from repro.exceptions import SchedulingError
from repro.utils.validation import check_integer_in_range

__all__ = ["IngressGateway"]

#: Admission policies at the gateway's bound.
POLICY_BLOCK = "block"
POLICY_SHED = "shed"
OVERLOAD_POLICIES = (POLICY_BLOCK, POLICY_SHED)


class IngressGateway:
    """Thread-safe, admission-controlled front end of a serving session.

    Parameters
    ----------
    service:
        The :class:`CranService` whose session the gateway feeds; the
        session is opened at construction and closed by :meth:`close`.
    admission_limit:
        Bound on jobs buffered across all shards awaiting dispatch.
    per_cell_limit:
        Optional bound per cell shard (defaults to no per-cell bound).
    overload_policy:
        ``"shed"`` (default) drops the offered job at the admission bound
        and records it in the report; ``"block"`` stalls the producer until
        the dispatcher frees space.
    """

    def __init__(self, service: CranService, *,
                 admission_limit: int = 256,
                 per_cell_limit: Optional[int] = None,
                 overload_policy: str = POLICY_SHED):
        if overload_policy not in OVERLOAD_POLICIES:
            raise SchedulingError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, got "
                f"{overload_policy!r}")
        self.admission_limit = check_integer_in_range(
            "admission_limit", admission_limit, minimum=1)
        self.per_cell_limit = (None if per_cell_limit is None else
                               check_integer_in_range(
                                   "per_cell_limit", per_cell_limit,
                                   minimum=1))
        self.overload_policy = overload_policy
        # Injected ingress submission errors (FaultPlan.gateway_fault) are
        # decided by job id, so the drop set is deterministic whatever the
        # producer interleaving.
        self._faults = service.fault_plan
        self._gateway_faults = 0
        self._session: ServiceSession = service.session()
        # Lock order gateway -> pool is safe: the pool (which serialises
        # every log append) never takes gateway locks.
        self._emit = self._session.pool.emit

        self._lock = threading.Lock()
        self._ingress = threading.Condition(self._lock)   # shards gained work
        self._space = threading.Condition(self._lock)     # shards freed space
        self._shards: Dict[Hashable, Deque[DecodeJob]] = {}
        self._buffered = 0
        self._closing = False
        self._error: Optional[BaseException] = None
        self._shed: List[DecodeJob] = []
        self._offered = 0
        self._dispatched = 0
        self._late_restamped = 0
        self._backlog_max = 0
        self._report: Optional[ServiceReport] = None
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="cran-ingress-dispatch",
                                            daemon=True)
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, job: DecodeJob, cell: Optional[Hashable] = None) -> bool:
        """Offer one job from a producer thread.

        *cell* names the producer's shard (default: the job's ``user_id``).
        Jobs of one cell must be offered in arrival order — that is the
        natural order a fronthaul stream delivers them in; across cells any
        interleaving is fine.  Returns ``True`` when the job was admitted,
        ``False`` when the admission bound shed it.
        """
        if cell is None:
            cell = job.user_id
        with self._space:
            if self._closing:
                raise SchedulingError(
                    "cannot submit to a closed IngressGateway")
            self._offered += 1
            self._emit(EVENT_INGRESS_ADMIT, job.arrival_time_us,
                       job_id=job.job_id, cell=str(cell))
            shard = self._shards.get(cell)
            if shard is None:
                shard = self._shards[cell] = deque()
            while self._over_limit_locked(shard):
                if self.overload_policy == POLICY_SHED:
                    self._shed_locked(job, "ingress")
                    return False
                self._space.wait()
                if self._closing:
                    raise SchedulingError(
                        "cannot submit to a closed IngressGateway")
            shard.append(job)
            self._buffered += 1
            self._backlog_max = max(self._backlog_max, self._buffered)
            self._ingress.notify()
        return True

    def _shed_locked(self, job: DecodeJob, stage: str) -> None:
        """Shed *job* at the gateway: onto its shed list and the log."""
        self._shed.append(job)
        self._emit(EVENT_JOB_SHED, job.arrival_time_us, job_id=job.job_id,
                   stage=stage)

    def _over_limit_locked(self, shard: Deque[DecodeJob]) -> bool:
        if self._buffered >= self.admission_limit:
            return True
        return (self.per_cell_limit is not None
                and len(shard) >= self.per_cell_limit)

    # ------------------------------------------------------------------ #
    # Dispatcher side
    # ------------------------------------------------------------------ #
    def _pop_earliest_locked(self) -> Optional[DecodeJob]:
        """Pop the globally earliest shard head, ``None`` when all empty."""
        best: Optional[Hashable] = None
        best_key = None
        for cell, shard in self._shards.items():
            if not shard:
                continue
            head = shard[0]
            key = (head.arrival_time_us, head.job_id)
            if best_key is None or key < best_key:
                best, best_key = cell, key
        if best is None:
            return None
        self._buffered -= 1
        return self._shards[best].popleft()

    def _dispatch_loop(self) -> None:
        while True:
            with self._ingress:
                while True:
                    job = self._pop_earliest_locked()
                    if job is not None:
                        break
                    if self._closing:
                        return
                    self._ingress.wait()
                self._space.notify_all()
                failed = self._error is not None
            if failed:
                # The session is broken (its pool is closed): account every
                # remaining job as shed so producers never wedge, and let
                # close() surface the original error.
                with self._lock:
                    self._shed_locked(job, "ingress")
                continue
            if (self._faults is not None
                    and self._faults.gateway_fault(job.job_id)):
                # Injected ingress submission error: the hand-off to the
                # session is lost, the job terminates as a gateway shed.
                with self._lock:
                    self._gateway_faults += 1
                    self._shed_locked(job, "gateway_fault")
                continue
            clock = self._session.clock_us
            if job.arrival_time_us < clock:
                # Arrived behind the merged stream: re-stamp to "now" so the
                # scheduler clock stays monotone, keep the deadline valid.
                original_arrival_us = job.arrival_time_us
                job = replace(job, arrival_time_us=clock,
                              deadline_us=max(job.deadline_us, clock))
                with self._lock:
                    self._late_restamped += 1
                self._emit(EVENT_JOB_RESTAMP, clock, job_id=job.job_id,
                           original_arrival_us=original_arrival_us)
            try:
                self._session.submit(job)
            except BaseException as error:  # surfaced by close()
                with self._lock:
                    self._error = self._error or error
                    self._shed_locked(job, "ingress")
            else:
                with self._lock:
                    self._dispatched += 1

    # ------------------------------------------------------------------ #
    # Lifecycle / results
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (the report exists)."""
        return self._report is not None

    def ingress_info(self) -> dict:
        """Current gateway counters (also the report's ``ingress`` section)."""
        with self._lock:
            return {
                "offered": self._offered,
                "dispatched": self._dispatched,
                "gateway_shed": len(self._shed),
                "gateway_faults": self._gateway_faults,
                "late_restamped": self._late_restamped,
                "backlog_max": self._backlog_max,
                "cells": len(self._shards),
            }

    def close(self) -> ServiceReport:
        """Drain the shards, close the session and return the merged report.

        Idempotent: repeated calls return the same report.  Raises the first
        dispatch error instead, after the dispatcher has drained (remaining
        jobs are accounted as shed so no producer is left blocked).
        """
        if self._report is not None:
            return self._report
        with self._lock:
            self._closing = True
            self._ingress.notify_all()
            self._space.notify_all()
        self._dispatcher.join()
        if self._error is not None:
            raise self._error
        report = self._session.close()
        info = self.ingress_info()
        telemetry = dict(report.telemetry)
        telemetry["ingress"] = info
        self._report = replace(
            report,
            shed_jobs=list(report.shed_jobs) + list(self._shed),
            telemetry=telemetry,
        )
        return self._report

    def __enter__(self) -> "IngressGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"IngressGateway(admission_limit={self.admission_limit}, "
                f"per_cell_limit={self.per_cell_limit}, "
                f"policy={self.overload_policy!r}, "
                f"cells={len(self._shards)})")
