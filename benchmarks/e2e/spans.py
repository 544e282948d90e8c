"""Span tracing from outside the program: wrap public callables, time calls.

Per-layer numbers come from here and not from ``repro.obs.profiling``, so
that module can be reworked without touching the benchmark.  For the length
of one traced replay each public callable below is replaced — functions in
the namespace of the module that *consumes* them, methods on their class —
by a wrapper that records a span: name, start, end, parent span and an
optional tag (job id / pack number).  Spans stay in memory until the child
process writes them out at exit.

A span's self time is its duration minus the durations of its direct
children, so the self times of one replay's tree add up to the root span
exactly; the root's own self time is the wall no wrapped call covers, which
the layer table reports as the explicit residual.
"""

import contextlib
import itertools
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "bench.replay"
#: The load generator's interleaved host burns: recorded so the root's self
#: time excludes them, then left out of the table and of the replay's wall.
CALIBRATION = "host.calibration"

#: Fields of one span record.
NAME, START, END, PARENT, TAG, WORK = range(6)


def _targets() -> List[Tuple[object, str, str, Optional[Callable],
                             Optional[Callable]]]:
    """(owner, attribute, span name, tag(args), work(args)) per wrapped call."""
    import repro.annealer.machine as machine
    from repro.annealer.engine import BlockDiagonalSampler
    from repro.annealer.ice import ICEModel
    from repro.cran.scheduler import EDFBatchScheduler
    from repro.cran.service import ServiceSession
    from repro.cran.workers import WorkerPool
    from repro.decoder.quamax import QuAMaxDecoder
    from repro.transform.reduction import MLToIsingReducer

    def job_id(args):
        return args[1].job_id

    pack_numbers = itertools.count()

    def pack_number(args):
        return next(pack_numbers)

    def spin_updates(args):
        # Computed, not measured: replicas x sweeps x physical spins.
        sampler, temperatures, num_replicas = args[:3]
        return num_replicas * len(temperatures) * sampler.num_variables

    return [
        (ServiceSession, "submit", "cran.service.submit", job_id, None),
        (ServiceSession, "close", "cran.service.close", None, None),
        (EDFBatchScheduler, "submit", "cran.scheduler.submit", None, None),
        (EDFBatchScheduler, "advance", "cran.scheduler.advance", None, None),
        (EDFBatchScheduler, "drain", "cran.scheduler.drain", None, None),
        (WorkerPool, "submit", "cran.workers.submit", pack_number, None),
        (QuAMaxDecoder, "detect_batch", "decoder.quamax.detect_batch",
         None, None),
        (MLToIsingReducer, "reduce", "transform.reduction.reduce", None, None),
        (machine.QuantumAnnealerSimulator, "run_batch",
         "annealer.machine.run_batch", None, None),
        (ICEModel, "perturb", "annealer.ice.perturb", None, None),
        (machine, "embed_ising", "annealer.embedded.embed_ising", None, None),
        (BlockDiagonalSampler, "__init__", "annealer.engine.build",
         None, None),
        (BlockDiagonalSampler, "refresh_values", "annealer.engine.rebind",
         None, None),
        (BlockDiagonalSampler, "anneal", "annealer.engine.anneal",
         None, spin_updates),
        (machine, "unembed_samples", "annealer.unembed.unembed_samples",
         None, None),
        (machine, "aggregate_samples", "ising.solver.aggregate_samples",
         None, None),
    ]


class SpanRecorder:
    """In-memory span store for one single-threaded traced replay."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _open(self, name: str, tag=None, work=0) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  tag, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, function: Callable, name: str, tag=None,
             work=None) -> Callable:
        """*function*, recording one span named *name* per call."""
        def wrapper(*args, **kwargs):
            record = self._open(name, tag(args) if tag else None,
                                work(args) if work else 0)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)
        return wrapper

    @contextlib.contextmanager
    def replay(self):
        """Patch every target and open the root span for one replay."""
        originals = []
        for owner, attribute, name, tag, work in _targets():
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, tag, work))
        root = self._open(ROOT)
        try:
            yield
        finally:
            self._close(root)
            for owner, attribute, original in originals:
                setattr(owner, attribute, original)


def self_times(spans: List[list]) -> List[float]:
    """Self seconds of every span: duration minus its direct children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds and computed work.  The rows'
    self seconds add up to :func:`replay_wall_s`."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if span[NAME] == CALIBRATION:
            continue
        row = table.setdefault(span[NAME],
                               {"calls": 0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["self_s"] += own
        row["work"] += span[WORK]
    return table


def replay_wall_s(spans: List[list]) -> float:
    """The traced replay's wall: its root span less the calibration burns."""
    return sum((span[END] - span[START])
               * (-1.0 if span[NAME] == CALIBRATION else 1.0)
               for span in spans
               if span[PARENT] < 0 or span[NAME] == CALIBRATION)


def export(spans: List[list]) -> List[dict]:
    """JSON-ready spans, times in microseconds from the first span's start."""
    origin = spans[0][START] if spans else 0.0
    return [{"name": span[NAME],
             "start_us": (span[START] - origin) * 1e6,
             "end_us": (span[END] - origin) * 1e6,
             "parent": span[PARENT], "tag": span[TAG]} for span in spans]
