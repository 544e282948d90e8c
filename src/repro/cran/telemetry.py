"""Serving telemetry: a fold over the worker pool's lifecycle log.

Throughput, latency percentiles, batch fill, deadline misses, sheds by
stage, the fault counters and the online per-structure decode-time model
are all folded from the rows the :class:`~repro.cran.workers.WorkerPool`
appends to its log (:data:`~repro.cran.tracing.ROW_KINDS`) — the same rows
the trace is exported from, so the counts that drive decisions (adaptive
wait, brownout) are the counts the report shows.  Everything is kept on the
service's virtual clock (µs) and covers the whole run.

The fold is incremental and reads in credit order, so float sums keep the
order they had when they were written one pack at a time.  Two facts
come from outside the trace's events: the injected-fault kinds (folded
from the flush rows through the pool's fault plan) and each pack's nominal
overhead (folded from the credit rows through the decoder's overhead
model).  The one side series is the queue depth, which the (single)
session thread samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cran.jobs import (DecodeJob, JobResult, StructureKey,
                             structure_counts)
from repro.cran.tracing import (
    EVENT_BROWNOUT_OPEN,
    EVENT_JOB_RETRY,
    EVENT_PACK_FAILED,
    EVENT_WORKER_RESTART,
    ROW_CREDIT,
    ROW_EVENT,
    ROW_FLUSH,
    ROW_SHED,
)

#: Percentiles reported by default in latency summaries.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)

#: EWMA weight of the newest per-structure decode-time observation.
DECODE_TIME_EWMA_ALPHA = 0.3

#: Packs a structure must have completed before its online decode-time
#: estimate is trusted (callers fall back to an analytic model until then).
DECODE_TIME_MIN_SAMPLES = 3


def linear_percentiles(series: np.ndarray,
                       percentiles: Sequence[float]) -> np.ndarray:
    """``np.percentile(series, percentiles)`` of a non-empty, NaN-free
    1-D float *series*, bit for bit: NumPy's ``linear`` method reproduced
    op for op on a sorted copy.  ``np.percentile`` picks its neighbours
    through ``np.unique``, whose first call imports ``numpy.ma`` (10 ms or
    so of a serving process's start).

    The virtual index ``(n - 1) * q / 100`` falls between two sorted
    neighbours ``a <= b`` (at or past the end, both are the last value);
    with ``g`` its fraction, the value is built from the lower one,
    ``a + (b - a) * g``, when ``g < 0.5`` and from the upper one,
    ``b - (b - a) * (1 - g)``, otherwise.
    """
    ordered = np.sort(series)
    virtual = (ordered.size - 1) * np.true_divide(percentiles, 100)
    lower = np.floor(virtual)
    upper = lower + 1
    past_end = virtual >= ordered.size - 1
    lower[past_end] = upper[past_end] = -1
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    fraction = virtual - lower
    below, above = ordered[lower], ordered[upper]
    span = above - below
    values = below + span * fraction
    np.subtract(above, span * (1 - fraction), out=values,
                where=fraction >= 0.5)
    return values


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency series (µs)."""

    count: int
    mean_us: float
    percentiles_us: Dict[float, float]

    def __getitem__(self, q: float) -> float:
        return self.percentiles_us[q]


class TelemetryRecorder:
    """The serving statistics of one pool's run, folded from its *log*.

    The pool builds it over its own log and lock (``pool.telemetry``);
    *decoder* prices a pack's nominal overhead and *faults* names the fault
    a flush was assigned.  Every reading folds the rows appended since the
    last one first (:meth:`fold`).
    """

    def __init__(self, log: List[tuple], lock, decoder, faults):
        self._log = log
        self._lock = lock
        self._decoder = decoder
        self._faults = faults
        self._folded = 0
        #: Every credited job's result, in credit order.
        self._credited: List[JobResult] = []
        self._batch_fill: Counter = Counter()
        self._flush_reasons: Counter = Counter()
        self._queue_depth_samples: List[Tuple[float, int]] = []
        #: Per-structure EWMAs of observed pack service times (µs) and pack
        #: sizes, plus sample counts — the online decode-time model the
        #: adaptive-wait scheduler feeds on (see :meth:`_credit`).
        self._decode_service_ewma_us: Dict[StructureKey, float] = {}
        self._decode_size_ewma: Dict[StructureKey, float] = {}
        self._decode_time_samples: Counter = Counter()
        #: Stated events by name; with the three below, the fault-tolerance
        #: counters (all zero in a fault-free run).
        self._events: Counter = Counter()
        self._pack_failed_jobs = 0
        self._shed_stages: Counter = Counter()
        self._faults_injected: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Folding
    # ------------------------------------------------------------------ #
    def fold(self) -> "TelemetryRecorder":
        """Fold the rows appended since the last call; returns ``self``.

        Runs under the pool lock, so worker threads appending meanwhile and
        readers on several threads each see every row folded exactly once.
        Only the pool's own sheds count as sheds: a gateway ``job.shed`` is
        a stated event.
        """
        with self._lock:
            for row in self._log[self._folded:]:
                kind = row[0]
                if kind == ROW_CREDIT:
                    self._credit(row[4])
                elif kind == ROW_SHED:
                    self._shed_stages[row[3]] += len(row[4])
                elif kind == ROW_FLUSH and self._faults is not None:
                    # The fault the plan assigns to this submission index,
                    # one keyed draw: the same count whichever mode hits it.
                    assigned = self._faults.pack_fault(row[1])
                    if assigned is not None:
                        self._faults_injected[assigned.kind] += 1
                elif kind == ROW_EVENT:
                    self._events[row[1]] += 1
                    if row[1] == EVENT_PACK_FAILED:
                        self._pack_failed_jobs += len(row[6]["job_ids"])
            self._folded = len(self._log)
        return self

    def _credit(self, results: Sequence[JobResult]) -> None:
        """Fold one credited pack's results.

        The online decode-time model is fed one observation per structure
        in the pack: its member count, and the pack's service time (all
        members share one start/finish) less the other structures' share —
        in proportion to the members' ``run.compute_time_us``, i.e. to the
        chip area they occupied — of what exceeds the pack's nominal
        overhead.  A one-structure pack observes exactly its service time
        and size.
        """
        first = results[0]
        self._credited.extend(results)
        self._batch_fill[len(results)] += 1
        self._flush_reasons[first.flush_reason] += 1
        compute_us: Dict[StructureKey, List[float]] = {}  # per member
        for result in results:
            compute_us.setdefault(result.job.structure_key, []).append(
                result.result.run.compute_time_us)
        overhead_us = self._decoder.annealer.overheads.total_us(
            first.result.run.num_anneals)
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

    def record_queue_depth(self, now_us: float, depth: int) -> None:
        """Sample the scheduler's pending-job count at *now_us* — the side
        series beside the log, written by the session thread alone."""
        self._queue_depth_samples.append((float(now_us), int(depth)))

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def jobs_completed(self) -> int:
        """Jobs credited so far."""
        return len(self.fold()._credited)

    @property
    def jobs_shed(self) -> int:
        """Jobs the pool shed for good so far."""
        return sum(self.fold()._shed_stages.values())

    @property
    def batches_decoded(self) -> int:
        """Packs credited so far."""
        return sum(self.fold()._batch_fill.values())

    @property
    def deadline_misses(self) -> int:
        """Credited jobs that finished past their deadline."""
        return sum(not result.deadline_met
                   for result in self.fold()._credited)

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
        self.fold()
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
        series = np.asarray([result.latency_us
                             for result in self.fold()._credited], dtype=float)
        if series.size == 0:
            empty = {float(q): float("nan") for q in percentiles}
            return LatencySummary(count=0, mean_us=float("nan"),
                                  percentiles_us=empty)
        values = linear_percentiles(series, percentiles)
        return LatencySummary(
            count=int(series.size),
            mean_us=float(series.mean()),
            percentiles_us={float(q): float(v)
                            for q, v in zip(percentiles, values)},
        )

    @property
    def batch_fill_histogram(self) -> Dict[int, int]:
        """``{batch size: count}`` over all decoded batches."""
        return dict(sorted(self.fold()._batch_fill.items()))

    def mean_batch_fill(self) -> float:
        """Average jobs per decoded batch."""
        packs = self.batches_decoded
        return self.jobs_completed / packs if packs else 0.0

    def deadline_miss_rate(self) -> float:
        """Fraction of completed jobs that missed their deadline."""
        done = self.jobs_completed
        return self.deadline_misses / done if done else 0.0

    def shed_rate(self) -> float:
        """Fraction of offered jobs shed for good."""
        offered = self.jobs_completed + self.jobs_shed
        return self.jobs_shed / offered if offered else 0.0

    def max_queue_depth(self) -> int:
        """Largest sampled scheduler backlog."""
        return max((depth for _, depth in self._queue_depth_samples),
                   default=0)

    def mean_queue_depth(self) -> float:
        """Mean sampled scheduler backlog."""
        depths = [depth for _, depth in self._queue_depth_samples]
        return float(np.mean(depths)) if depths else 0.0

    def snapshot(self) -> dict:
        """One plain-dict view of every statistic (for reports/JSON).

        Empty series report ``None`` rather than NaN: ``json.dumps`` would
        happily write a bare ``NaN`` token, which is not valid JSON and
        blows up every strict consumer downstream.  The snapshot always
        round-trips through ``json.dumps(..., allow_nan=False)``.
        """
        latency = self.fold().latency_summary()
        credited = self._credited
        done, misses = len(credited), self.deadline_misses
        span_us = (max([0.0] + [r.finish_time_us for r in credited])
                   - min((r.job.arrival_time_us for r in credited),
                         default=0.0))

        def finite(value: float) -> Optional[float]:
            return float(value) if np.isfinite(value) else None

        return {
            "jobs_completed": done,
            "jobs_shed": self.jobs_shed,
            "shed_rate": self.shed_rate(),
            "batches_decoded": self.batches_decoded,
            "mean_batch_fill": self.mean_batch_fill(),
            "batch_fill_histogram": self.batch_fill_histogram,
            "flush_reasons": dict(sorted(self._flush_reasons.items())),
            "deadline_misses": misses,
            "deadline_miss_rate": misses / done if done else 0.0,
            # Completed jobs per *virtual* second, first arrival to last
            # finish.
            "throughput_jobs_per_s": (done / (span_us * 1e-6)
                                      if done and span_us > 0 else 0.0),
            "latency_us": {
                "count": latency.count,
                "mean": finite(latency.mean_us),
                **{f"p{q:g}": finite(v)
                   for q, v in latency.percentiles_us.items()},
            },
            "queue_delay_us_mean": (float(np.mean(
                [result.queue_delay_us for result in credited]))
                if done else None),
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
                "pack_failed_jobs": self._pack_failed_jobs,
                "jobs_retried": self._events[EVENT_JOB_RETRY],
                "worker_restarts": self._events[EVENT_WORKER_RESTART],
                "brownout_openings": self._events[EVENT_BROWNOUT_OPEN],
                "injected": dict(sorted(self._faults_injected.items())),
                "shed_stages": dict(sorted(self._shed_stages.items())),
            },
        }
