"""Serving telemetry: throughput, latency percentiles, batch fill, deadlines.

Production serving layers live or die by their observability; this module
keeps the counters every other piece of the C-RAN subsystem reports into.
All series are kept on the service's virtual clock (µs), matching the
annealer's time accounting, and cover the whole run.

The recorder is deliberately passive — pure appends, no locks of its own —
so snapshots are cheap and deterministic: the
:class:`~repro.cran.workers.WorkerPool` that owns it writes everything under
its own lock, except the queue-depth series, which only the (single)
session thread appends to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cran.jobs import (DecodeJob, JobResult, StructureKey,
                             structure_counts)
from repro.cran.tracing import (
    EVENT_BROWNOUT_OPEN,
    EVENT_JOB_RETRY,
    EVENT_PACK_FAILED,
    EVENT_WORKER_RESTART,
)

#: Percentiles reported by default in latency summaries.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)

#: EWMA weight of the newest per-structure decode-time observation.
DECODE_TIME_EWMA_ALPHA = 0.3

#: Packs a structure must have completed before its online decode-time
#: estimate is trusted (callers fall back to an analytic model until then).
DECODE_TIME_MIN_SAMPLES = 3


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency series (µs)."""

    count: int
    mean_us: float
    percentiles_us: Dict[float, float]

    def __getitem__(self, q: float) -> float:
        return self.percentiles_us[q]


class TelemetryRecorder:
    """Accumulates the serving statistics of one C-RAN service run."""

    def __init__(self):
        self._latencies_us: List[float] = []
        self._queue_delays_us: List[float] = []
        self._batch_fill: Counter = Counter()
        self._flush_reasons: Counter = Counter()
        self._queue_depth_samples: List[Tuple[float, int]] = []
        self._first_arrival_us: Optional[float] = None
        self._last_finish_us = 0.0
        #: Per-structure EWMAs of observed pack service times (µs) and pack
        #: sizes, plus sample counts — the online decode-time model the
        #: adaptive-wait scheduler feeds on (see :meth:`record_batch`).
        self._decode_service_ewma_us: Dict[StructureKey, float] = {}
        self._decode_size_ewma: Dict[StructureKey, float] = {}
        self._decode_time_samples: Counter = Counter()
        self.jobs_completed = 0
        self.jobs_shed = 0
        self.deadline_misses = 0
        self.batches_decoded = 0
        #: Lifecycle events by name; with the three below, the fault-tolerance
        #: counters (all zero in a fault-free run).
        self._events: Counter = Counter()
        self.pack_failed_jobs = 0
        self._shed_stages: Counter = Counter()
        self._faults_injected: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_batch(self, results: Sequence[JobResult],
                     overhead_us: float = 0.0) -> None:
        """Record one decoded batch's worth of job results.

        The online decode-time model is fed one observation per structure
        in the pack: its member count, and the pack's service time (all
        members share one start/finish) less the other structures' share —
        in proportion to the members' ``run.compute_time_us``, i.e. to the chip
        area they occupied — of what exceeds the per-pack *overhead_us*.
        A one-structure pack observes exactly its service time and size.
        """
        if not results:
            return
        self.batches_decoded += 1
        self._batch_fill[len(results)] += 1
        first = results[0]
        self._flush_reasons[first.flush_reason] += 1
        compute_us: Dict[StructureKey, List[float]] = {}  # per member
        for result in results:
            compute_us.setdefault(result.job.structure_key, []).append(
                result.result.run.compute_time_us)
            self.jobs_completed += 1
            self._latencies_us.append(result.latency_us)
            self._queue_delays_us.append(result.queue_delay_us)
            if not result.deadline_met:
                self.deadline_misses += 1
            arrival = result.job.arrival_time_us
            if (self._first_arrival_us is None
                    or arrival < self._first_arrival_us):
                self._first_arrival_us = arrival
            self._last_finish_us = max(self._last_finish_us,
                                       result.finish_time_us)
        service_us = first.finish_time_us - first.start_time_us
        total_us = sum(map(sum, compute_us.values()))
        alpha = DECODE_TIME_EWMA_ALPHA
        for key, members_us in compute_us.items():
            observed_us = service_us - ((service_us - overhead_us)
                                        * (total_us - sum(members_us))
                                        / total_us)
            for ewma, value in ((self._decode_service_ewma_us, observed_us),
                                (self._decode_size_ewma,
                                 float(len(members_us)))):
                ewma[key] = (value if key not in ewma
                             else (1.0 - alpha) * ewma[key] + alpha * value)
            self._decode_time_samples[key] += 1

    def record_shed(self, count: int, stage: str) -> None:
        """Record *count* jobs landing on the pool's shed list at *stage*."""
        self.jobs_shed += count
        self._shed_stages[stage] += count

    def record_queue_depth(self, now_us: float, depth: int) -> None:
        """Sample the scheduler's pending-job count at *now_us*."""
        self._queue_depth_samples.append((float(now_us), int(depth)))

    def record_fault(self, kind: str) -> None:
        """Record one injected fault, by kind (parent-side accounting)."""
        self._faults_injected[kind] += 1

    def count(self, event: str, attrs: Mapping[str, Any]) -> None:
        """Count one lifecycle event by name — every event the pool's
        :meth:`~repro.cran.workers.WorkerPool.emit` records lands here.

        The snapshot reads the fault-tolerance ones.  Not ``job.shed``,
        though: the gateway emits it for jobs this recorder never owned, so
        sheds are counted where a job lands on the pool's shed list
        (:meth:`record_shed`).
        """
        self._events[event] += 1
        if event == EVENT_PACK_FAILED:
            self.pack_failed_jobs += len(attrs["job_ids"])

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def decode_time_us(self, jobs: Sequence[DecodeJob],
                       overhead_us: float = 0.0) -> Optional[float]:
        """Online decode-time estimate for *jobs* served as one pack.

        Derived from the per-structure EWMAs of observed service times and
        sizes: with *overhead_us* the (known) per-pack overhead, a
        structure's per-job compute is estimated as ``(E[service] -
        overhead) / E[size]`` and the prediction is the overhead plus the
        members' per-job estimates — so a structure observed in full packs
        still predicts small pending packs correctly.  Returns ``None``
        until :data:`DECODE_TIME_MIN_SAMPLES` packs of every structure
        among *jobs* have completed, and whenever *overhead_us* exceeds a
        structure's observed service EWMA: clamping that negative per-job
        split to zero would give a size-independent prediction and make the
        adaptive-wait scheduler under-wait.  Callers fall back to the
        analytic model in both cases.
        """
        compute_us = 0.0
        for key, size in structure_counts(jobs):
            if self._decode_time_samples[key] < DECODE_TIME_MIN_SAMPLES:
                return None
            per_job = ((self._decode_service_ewma_us[key] - overhead_us)
                       / self._decode_size_ewma[key])
            if per_job < 0.0:
                return None
            compute_us += size * per_job
        return overhead_us + compute_us

    def latency_summary(self, percentiles: Sequence[float]
                        = DEFAULT_PERCENTILES) -> LatencySummary:
        """Latency percentiles over every completed job (µs)."""
        series = np.asarray(self._latencies_us, dtype=float)
        if series.size == 0:
            empty = {float(q): float("nan") for q in percentiles}
            return LatencySummary(count=0, mean_us=float("nan"),
                                  percentiles_us=empty)
        values = np.percentile(series, percentiles)
        return LatencySummary(
            count=int(series.size),
            mean_us=float(series.mean()),
            percentiles_us={float(q): float(v)
                            for q, v in zip(percentiles, values)},
        )

    @property
    def batch_fill_histogram(self) -> Dict[int, int]:
        """``{batch size: count}`` over all decoded batches."""
        return dict(sorted(self._batch_fill.items()))

    @property
    def flush_reason_counts(self) -> Dict[str, int]:
        """``{flush reason: batch count}`` (full / timeout / drain)."""
        return dict(sorted(self._flush_reasons.items()))

    def mean_batch_fill(self) -> float:
        """Average jobs per decoded batch."""
        if not self.batches_decoded:
            return 0.0
        return self.jobs_completed / self.batches_decoded

    def deadline_miss_rate(self) -> float:
        """Fraction of completed jobs that missed their deadline."""
        if not self.jobs_completed:
            return 0.0
        return self.deadline_misses / self.jobs_completed

    def shed_rate(self) -> float:
        """Fraction of offered jobs shed for good."""
        offered = self.jobs_completed + self.jobs_shed
        if not offered:
            return 0.0
        return self.jobs_shed / offered

    def max_queue_depth(self) -> int:
        """Largest sampled scheduler backlog."""
        if not self._queue_depth_samples:
            return 0
        return max(depth for _, depth in self._queue_depth_samples)

    def mean_queue_depth(self) -> float:
        """Mean sampled scheduler backlog."""
        if not self._queue_depth_samples:
            return 0.0
        return float(np.mean([depth
                              for _, depth in self._queue_depth_samples]))

    def throughput_jobs_per_s(self) -> float:
        """Completed jobs per *virtual* second, first arrival to last finish."""
        if not self.jobs_completed or self._first_arrival_us is None:
            return 0.0
        span_us = self._last_finish_us - self._first_arrival_us
        if span_us <= 0:
            return 0.0
        return self.jobs_completed / (span_us * 1e-6)

    def snapshot(self) -> dict:
        """One plain-dict view of every statistic (for reports/JSON).

        Empty series report ``None`` rather than NaN: ``json.dumps`` would
        happily write a bare ``NaN`` token, which is not valid JSON and
        blows up every strict consumer downstream.  The snapshot always
        round-trips through ``json.dumps(..., allow_nan=False)``.
        """
        latency = self.latency_summary()

        def finite(value: float) -> Optional[float]:
            return float(value) if np.isfinite(value) else None

        queue_delay = np.asarray(self._queue_delays_us, dtype=float)
        return {
            "jobs_completed": self.jobs_completed,
            "jobs_shed": self.jobs_shed,
            "shed_rate": self.shed_rate(),
            "batches_decoded": self.batches_decoded,
            "mean_batch_fill": self.mean_batch_fill(),
            "batch_fill_histogram": self.batch_fill_histogram,
            "flush_reasons": self.flush_reason_counts,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate(),
            "throughput_jobs_per_s": self.throughput_jobs_per_s(),
            "latency_us": {
                "count": latency.count,
                "mean": finite(latency.mean_us),
                **{f"p{q:g}": finite(v)
                   for q, v in latency.percentiles_us.items()},
            },
            "queue_delay_us_mean": (float(queue_delay.mean())
                                    if queue_delay.size else None),
            "queue_depth_max": self.max_queue_depth(),
            "queue_depth_mean": self.mean_queue_depth(),
            # Amortised per-job decode time at the *observed* pack sizes
            # (E[service] / E[size], so the shared pack overhead is folded
            # in) — an observability figure; the scheduler's model estimate
            # is the overhead-split :meth:`decode_time_us`.
            "decode_time_per_job_us": {
                f"{key[0]}x{key[1]}:{key[2]}":
                    value / self._decode_size_ewma[key]
                for key, value in sorted(self._decode_service_ewma_us.items())
            },
            # Always present (all-zero without a fault plan) so snapshots of
            # equivalent runs compare equal whether or not faults were
            # configured on either side.
            "faults": {
                "packs_failed": self._events[EVENT_PACK_FAILED],
                "pack_failed_jobs": self.pack_failed_jobs,
                "jobs_retried": self._events[EVENT_JOB_RETRY],
                "worker_restarts": self._events[EVENT_WORKER_RESTART],
                "brownout_openings": self._events[EVENT_BROWNOUT_OPEN],
                "injected": dict(sorted(self._faults_injected.items())),
                "shed_stages": dict(sorted(self._shed_stages.items())),
            },
        }
