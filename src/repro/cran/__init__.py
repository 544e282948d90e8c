"""C-RAN serving subsystem: the library as a base-station processing pool.

The paper's deployment story is a *centralized* RAN where one QuAMax-equipped
pool decodes the uplink of many base stations.  This package is that serving
layer, built on the batched decode substrate underneath it:

* :mod:`repro.cran.jobs` — :class:`DecodeJob` / :class:`JobResult`, the unit
  of work with arrival time, deadline and a private random stream;
* :mod:`repro.cran.scheduler` — :class:`EDFBatchScheduler`, deadline-aware
  batching at the chip's granularity: one pending queue, and a flush takes
  everything in it — any mix of problem structures — as one QA job;
* :mod:`repro.cran.workers` — :class:`WorkerPool`, bounded-queue decode
  workers with blocking backpressure, virtual-time accounting and the one
  lifecycle log every serving fact is appended to;
* :mod:`repro.cran.traffic` — :class:`PoissonTrafficGenerator`, Poisson
  frame bursts over a :class:`~repro.channel.trace.ChannelTrace` with mixed
  modulations and per-user SNR;
* :mod:`repro.cran.telemetry` — :class:`TelemetryRecorder`, whole-run
  throughput, latency percentiles, batch-fill and deadline-miss statistics
  folded from the pool's log;
* :mod:`repro.cran.service` — :class:`CranService`, the event loop tying
  them together, its incremental :class:`ServiceSession`, and the
  :class:`ServiceReport`;
* :mod:`repro.cran.gateway` — :class:`IngressGateway`, the thread-safe
  admission-controlled front end merging many concurrent cell feeds into
  one session;
* :mod:`repro.cran.tracing` — the log's row kinds and their export as
  :class:`TraceEvent` lifecycle spans on the serving clock (exporters and
  the breakdown report live in :mod:`repro.obs`);
* :mod:`repro.cran.faults` — :class:`FaultPlan` / :class:`BrownoutConfig`,
  seeded deterministic fault injection (crashes, decode errors,
  stragglers, gateway drops) and the overload circuit breaker behind the
  stack's fault tolerance (worker supervision, deadline-aware retry,
  admission brownout).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".tracing": ("JobTimeline", "TraceEvent", "job_timelines", "pack_spans"),
    ".faults": (
        "BrownoutConfig", "BrownoutController", "FaultPlan", "InjectedFault",
        "PackFault", "WorkerCrash"),
    ".gateway": ("OVERLOAD_POLICIES", "IngressGateway"),
    ".jobs": ("DecodeJob", "JobResult"),
    ".scheduler": (
        "FLUSH_DRAIN", "FLUSH_FULL", "FLUSH_TIMEOUT", "DecodeBatch",
        "DecodeTimeModel", "EDFBatchScheduler"),
    ".service": (
        "CranService", "ServiceReport", "ServiceSession",
        "decode_time_model_for"),
    ".telemetry": ("LatencySummary", "TelemetryRecorder"),
    ".traffic": ("PoissonTrafficGenerator",),
    ".workers": ("MODES", "WorkerPool"),
})

__all__ = [
    "DecodeJob",
    "JobResult",
    "DecodeBatch",
    "DecodeTimeModel",
    "EDFBatchScheduler",
    "FLUSH_FULL",
    "FLUSH_TIMEOUT",
    "FLUSH_DRAIN",
    "WorkerPool",
    "MODES",
    "OVERLOAD_POLICIES",
    "PoissonTrafficGenerator",
    "TelemetryRecorder",
    "LatencySummary",
    "CranService",
    "ServiceReport",
    "ServiceSession",
    "IngressGateway",
    "decode_time_model_for",
    "FaultPlan",
    "PackFault",
    "InjectedFault",
    "WorkerCrash",
    "BrownoutConfig",
    "BrownoutController",
    "TraceEvent",
    "JobTimeline",
    "job_timelines",
    "pack_spans",
]
