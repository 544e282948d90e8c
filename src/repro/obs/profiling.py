"""Optional wall-time attribution of the compute layer's phases.

The serving trace (:mod:`repro.cran.tracing`) accounts *virtual* time —
where a job's modelled latency went.  This module answers the orthogonal
question: where does the *wall clock* go inside a decode?  Sampler build vs
rebind vs sweep vs unembed, per backend and draw discipline.

One process-global :data:`PROFILER` is threaded through the compute layer
(:mod:`repro.annealer.machine`, :mod:`repro.annealer.engine`,
:mod:`repro.annealer.backends`, :mod:`repro.decoder.quamax`) as ``with
PROFILER.phase("machine.anneal", backend): ...`` blocks.  It is
**off by default**: a disabled profiler hands back a shared no-op context
manager, so the hooks cost one attribute check per phase and nothing else.
Enabling it only ever reads the wall clock — no RNG interaction, no control
flow depends on it — so seeded outputs and golden digests are identical
with profiling on or off.

Worker processes accumulate into their own (process-global) profiler; the
worker pool ships per-pack deltas back with the results and merges them
here, so ``mode="process"`` serving still yields one coherent phase table.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

__all__ = ["PhaseProfiler", "PROFILER"]


class _NoOpPhase:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpPhase":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoOpPhase()


class _Phase:
    """Times one ``with`` block and accumulates into its profiler."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Phase":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._profiler._accumulate(self._name,
                                   time.perf_counter() - self._start)
        return False


class PhaseProfiler:
    """Accumulates ``{phase name: (count, total wall seconds)}``.

    Thread-safe on the accumulation path (worker threads share the global
    instance); the accounting lock is only ever taken while enabled.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._phases: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------------ #
    def enable(self) -> None:
        """Start attributing wall time (phases accumulate from now on)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop attributing wall time (accumulated phases are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every accumulated phase (enabled state unchanged)."""
        with self._lock:
            self._phases.clear()

    # ------------------------------------------------------------------ #
    def phase(self, name: str, *details: object):
        """Context manager timing one phase; no-op while disabled.

        *details* (typically backend / draw discipline) are appended lazily as
        ``name[a/b]`` so disabled call sites never pay for the string
        formatting.
        """
        if not self.enabled:
            return _NOOP
        if details:
            name = f"{name}[{'/'.join(str(item) for item in details)}]"
        return _Phase(self, name)

    def _accumulate(self, name: str, elapsed_s: float) -> None:
        with self._lock:
            count, total = self._phases.get(name, (0, 0.0))
            self._phases[name] = (count + 1, total + elapsed_s)

    def merge(self, phases: Optional[Dict[str, Tuple[int, float]]]) -> None:
        """Fold a shipped ``{name: (count, seconds)}`` delta in (e.g. from a
        worker process); ``None`` merges nothing."""
        if not phases:
            return
        with self._lock:
            for name, (count, total) in phases.items():
                have_count, have_total = self._phases.get(name, (0, 0.0))
                self._phases[name] = (have_count + int(count),
                                      have_total + float(total))

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, total_s, mean_s}}`` of everything accumulated."""
        with self._lock:
            phases = dict(self._phases)
        return {
            name: {
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for name, (count, total) in sorted(phases.items())
        }

    def raw(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (count, total seconds)}`` — the mergeable wire form."""
        with self._lock:
            return dict(self._phases)

    def delta_since(self, baseline: Dict[str, Tuple[int, float]]
                    ) -> Dict[str, Tuple[int, float]]:
        """Phases accumulated since *baseline* (an earlier :meth:`raw`)."""
        delta: Dict[str, Tuple[int, float]] = {}
        for name, (count, total) in self.raw().items():
            base_count, base_total = baseline.get(name, (0, 0.0))
            if count > base_count:
                delta[name] = (count - base_count, total - base_total)
        return delta

    def __repr__(self) -> str:
        return (f"PhaseProfiler(enabled={self.enabled}, "
                f"phases={len(self._phases)})")


#: The process-global profiler every compute-layer hook reports into.
PROFILER = PhaseProfiler()
