"""Observability for the C-RAN serving stack: exporters and report.

The structured events themselves are exported from the worker pool's
lifecycle log by :func:`repro.cran.tracing.trace_events` (inside the
serving layer, when a run asks for ``tracing=True``); this package holds
what consumes them:

* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and JSONL
  event dumps.
* :mod:`repro.obs.report` — the ``python -m repro.obs.report`` per-stage
  latency breakdown CLI.

Both load on first use (:mod:`repro._lazy`, as every package of the
library exports): the exporters import the serving layer, so ``import
repro.obs`` stays cheap, and ``python -m repro.obs.report`` does not find
its own module already imported by the package.  Nothing in the
compute or serving layers imports this package.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".export": ("read_jsonl", "to_chrome_trace", "to_jsonl",
                "write_chrome_trace", "write_jsonl"),
    ".report": ("build_report", "render"),
})

__all__ = [
    "read_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "build_report",
    "render",
]
