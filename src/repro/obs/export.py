"""Trace exporters: Chrome trace JSON and JSONL.

Two wire formats over the same lifecycle events:

* :func:`to_chrome_trace` — the Chrome trace-event format (load in
  Perfetto / ``chrome://tracing``): one track per virtual QA worker with
  pack spans split into overhead/anneal slices, one track per cell with
  the member jobs' queue spans, instant markers for sheds and re-stamps.
  Virtual µs map directly onto the format's µs timestamps.
* :func:`to_jsonl` / :func:`read_jsonl` — the lossless structured dump
  (one event object per line), the canonical on-disk form the
  ``python -m repro.obs.report`` CLI consumes.

The serving counters need no exporter of their own: a report's
``telemetry`` is a plain dict and serialises with :func:`json.dumps`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cran.tracing import (
    EVENT_BROWNOUT_CLOSE,
    EVENT_BROWNOUT_OPEN,
    EVENT_INGRESS_ADMIT,
    EVENT_JOB_RESTAMP,
    EVENT_JOB_RETRY,
    EVENT_JOB_SHED,
    EVENT_PACK_FAILED,
    EVENT_WORKER_RESTART,
    TraceEvent,
    job_timelines,
    pack_spans,
)

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
]

#: pid of the single synthetic process every track lives in.
_PID = 1
#: tid bases: worker tracks then cell tracks (Perfetto sorts by tid).
_WORKER_TID_BASE = 1
_CELL_TID_BASE = 1001
_MARKER_TID = 2001


def _thread_meta(tid: int, name: str) -> Dict[str, Any]:
    return {"ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "args": {"name": name}}


def _complete(name: str, ts_us: float, dur_us: float, tid: int,
              args: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    event: Dict[str, Any] = {"ph": "X", "name": name, "cat": "cran",
                             "pid": _PID, "tid": tid,
                             "ts": ts_us, "dur": max(dur_us, 0.0)}
    if args:
        event["args"] = args
    return event


def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Render a trace-event dict loadable by Perfetto / chrome://tracing.

    Tracks: one per virtual QA worker (pack spans, with overhead/anneal
    sub-slices nested inside), one per cell/user (member jobs' queue
    spans), and a marker track with shed / re-stamp instants.
    """
    trace_events: List[Dict[str, Any]] = []
    workers_seen: Dict[int, int] = {}
    cells_seen: Dict[Any, int] = {}

    def worker_tid(worker: Optional[int]) -> int:
        key = -1 if worker is None else int(worker)
        if key not in workers_seen:
            tid = _WORKER_TID_BASE + len(workers_seen)
            workers_seen[key] = tid
            label = "worker ?" if worker is None else f"worker {key}"
            trace_events.append(_thread_meta(tid, label))
        return workers_seen[key]

    def cell_tid(cell: Any) -> int:
        if cell not in cells_seen:
            tid = _CELL_TID_BASE + len(cells_seen)
            cells_seen[cell] = tid
            trace_events.append(_thread_meta(tid, f"cell {cell}"))
        return cells_seen[cell]

    timelines = job_timelines(events)
    packs = pack_spans(events)

    # Pack spans on worker tracks, overhead/anneal nested inside.
    for pack in sorted(packs.values(), key=lambda p: p["pack_id"]):
        if pack["start_us"] is None or pack["finish_us"] is None:
            continue
        tid = worker_tid(pack["worker"])
        start, finish = pack["start_us"], pack["finish_us"]
        args = {"pack_id": pack["pack_id"], "reason": pack["reason"],
                "structure": pack["structure"],
                "jobs": list(pack["job_ids"])}
        trace_events.append(_complete(
            f"pack {pack['pack_id']} ({pack['reason']})",
            start, finish - start, tid, args))
        overhead = pack.get("overhead_us")
        if overhead is not None:
            overhead = min(float(overhead), finish - start)
            trace_events.append(_complete("overhead", start, overhead, tid))
            trace_events.append(_complete("anneal", start + overhead,
                                          finish - start - overhead, tid))

    # Queue spans (admit -> flush) on per-cell tracks.
    cell_of: Dict[int, Any] = {}
    for event in events:
        if event.name == EVENT_INGRESS_ADMIT and event.job_id is not None:
            cell_of[event.job_id] = event.attrs.get("cell")
    for timeline in sorted(timelines.values(), key=lambda t: t.job_id):
        if timeline.admit_us is None or timeline.flush_us is None:
            continue
        cell = cell_of.get(timeline.job_id, "-")
        trace_events.append(_complete(
            f"job {timeline.job_id} queued",
            timeline.admit_us, timeline.flush_us - timeline.admit_us,
            cell_tid(cell),
            {"pack_id": timeline.pack_id, "reason": timeline.flush_reason}))

    # Instant markers: sheds, re-stamps, and the fault-tolerance events
    # (retries, pack failures, worker restarts, brownout transitions).
    marker_events = (EVENT_JOB_SHED, EVENT_JOB_RESTAMP, EVENT_JOB_RETRY,
                     EVENT_PACK_FAILED, EVENT_WORKER_RESTART,
                     EVENT_BROWNOUT_OPEN, EVENT_BROWNOUT_CLOSE)
    marker_meta_added = False
    for event in events:
        if event.name not in marker_events:
            continue
        if not marker_meta_added:
            trace_events.append(_thread_meta(_MARKER_TID, "markers"))
            marker_meta_added = True
        if event.job_id is not None:
            name = f"{event.name} job {event.job_id}"
        elif event.pack_id is not None:
            name = f"{event.name} pack {event.pack_id}"
        else:
            name = event.name
        trace_events.append({
            "ph": "i", "s": "g", "cat": "cran",
            "name": name,
            "pid": _PID, "tid": _MARKER_TID, "ts": event.ts_us,
            "args": dict(event.attrs),
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual µs (C-RAN serving clock)"},
    }


def write_chrome_trace(path: Union[str, Path],
                       events: Sequence[TraceEvent]) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(events), allow_nan=False)
                    + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------------- #

def to_jsonl(events: Sequence[TraceEvent]) -> str:
    """One JSON object per line, in append order (lossless round-trip)."""
    return "".join(json.dumps(event.to_dict(), allow_nan=False) + "\n"
                   for event in events)


def write_jsonl(path: Union[str, Path],
                events: Sequence[TraceEvent]) -> Path:
    """Write :func:`to_jsonl` output; returns the path."""
    path = Path(path)
    path.write_text(to_jsonl(events), encoding="utf-8")
    return path


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL event dump back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events
