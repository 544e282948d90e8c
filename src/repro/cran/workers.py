"""Worker pool draining scheduler flushes through QuAMax decoders.

The pool models the paper's centralized processing pool (Section 7): batches
flushed by the :class:`~repro.cran.scheduler.EDFBatchScheduler` are decoded
through :meth:`~repro.decoder.quamax.QuAMaxDecoder.detect_batch`, which packs
each batch into block-diagonal QA jobs.  It is split the way the deployment
is: a *virtual* plane whose counts drive every decision, and an *actual*
plane that merely executes.

:class:`WorkerPool` is the virtual plane — the accounting core.  It alone
holds the pool lock, and everything that is written under it is written by
it: the submission index, the flush-order reorder buffer, the virtual QA
machines, the parked-failure and error lists, the restart budget, the idle
barrier and the lifecycle log — one append-only row per fact
(:data:`~repro.cran.tracing.ROW_KINDS`), which the results, the shed list
and the telemetry (``pool.telemetry``) are read from and the trace is
exported from (producers — session, ingress gateway — state their facts
through :meth:`WorkerPool.emit` and :meth:`WorkerPool.admit`).  The actual
plane is one of three executors — inline (``num_workers=0``: deterministic,
what simulations and tests use), thread shards, process pool — that know
nothing of that accounting and meet it at one seam: ``offer(pool, index,
batch)`` in, :meth:`WorkerPool.done` / :meth:`WorkerPool.failed` out, one
:func:`decode_pack` underneath.

Backpressure is blocking: an executor holds at most :data:`QUEUE_CAPACITY`
packs, and a submission past that waits for room (the scheduler naturally
holds jobs back).  Shedding is decided above the pool — at the ingress
gateway's admission bound, by brownout and by the retry layer.

Completion times are tracked on a virtual clock: each batch occupies the
earliest-free virtual QA machine from its flush time, for a service time of
one shared per-job overhead (:class:`~repro.annealer.machine.OverheadModel`)
plus the pack's amortised compute time.  Batches are credited to virtual
machines strictly in *submission (flush) order* — out-of-order completions
are buffered until their turn — so the latency and deadline telemetry of a
given offered load is deterministic regardless of executor, worker count or
OS scheduling.  Batching therefore shows up in the latency telemetry exactly
where the paper puts it — the programming / preprocessing overhead is paid
once per *batch* instead of once per *job*.

Decode correctness is independent of all of this: every job consumes its own
private random stream, so results are bit-for-bit those of serial decoding
no matter how jobs were batched, queued or interleaved.

Failure is a first-class outcome with one path (:meth:`WorkerPool.failed`),
and a seeded :class:`~repro.cran.faults.FaultPlan` injects crashes, decode
errors and stragglers deterministically by submission index, so the same
plan produces the same accounting in all three modes.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from collections import deque
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cran.faults import (
    FAULT_CRASH,
    FAULT_DECODE_ERROR,
    FaultPlan,
    InjectedFault,
    WorkerCrash,
)
from repro.cran.jobs import DecodeJob, JobResult
from repro.cran.scheduler import DecodeBatch
from repro.cran.telemetry import TelemetryRecorder
from repro.cran.tracing import (
    EVENT_PACK_FAILED,
    EVENT_WORKER_RESTART,
    ROW_ADMIT,
    ROW_CREDIT,
    ROW_EVENT,
    ROW_FLUSH,
    ROW_SHED,
    TraceEvent,
    trace_events,
)
from repro.annealer.backends import _usable_cpus
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError, WorkerPoolError
from repro.utils.validation import check_integer_in_range

#: Packs an executor holds (queued on its shards, or in flight) before a
#: submission blocks.
QUEUE_CAPACITY = 16

#: Execution modes of a pool with ``num_workers >= 1``.
MODE_THREAD = "thread"
MODE_PROCESS = "process"
MODES = (MODE_THREAD, MODE_PROCESS)


def decode_pack(decoder: QuAMaxDecoder, faults: Optional[FaultPlan],
                index: int, batch: DecodeBatch) -> Tuple[list, float]:
    """Decode pack *index*; returns ``(outcomes, virtual service µs)``.

    The one decode every executor runs, wherever it runs.  The fault a plan
    assigns to *index* takes effect here: ``worker_crash`` raises
    :class:`WorkerCrash` and ``decode_error`` raises :class:`InjectedFault`
    before any work; a ``slow`` fault — a correct decode — only inflates
    the pack's virtual service time.  The scheduler queues each draw
    discipline separately, so the first job's ``rng_mode`` speaks for all.
    """
    fault = faults.pack_fault(index) if faults is not None else None
    if fault is not None and fault.kind == FAULT_CRASH:
        raise WorkerCrash(f"injected worker crash decoding pack {index}")
    if fault is not None and fault.kind == FAULT_DECODE_ERROR:
        raise InjectedFault(f"injected decode error on pack {index}")
    outcomes = decoder.detect_batch(
        [job.channel_use for job in batch.jobs],
        random_states=[job.rng() for job in batch.jobs],
        rng=batch.jobs[0].rng_mode)
    # One shared job overhead per pack, plus every block's amortised
    # compute (the anneal time times its share of the chip, so the sum
    # holds across structures): this is precisely where batching buys
    # latency, and the one accounting model of all three execution modes.
    service_us = (
        decoder.annealer.overheads.total_us(outcomes[0].run.num_anneals)
        + sum(outcome.run.compute_time_us for outcome in outcomes))
    if fault is not None:
        service_us *= fault.factor
    return outcomes, service_us


# --------------------------------------------------------------------------- #
# Process-mode worker side (module level so the pool can address it)
# --------------------------------------------------------------------------- #

#: The per-process decoder replica, built once by the pool initializer.
_WORKER_DECODER: Optional[QuAMaxDecoder] = None

#: The per-process fault plan (``None`` in fault-free pools); decisions are
#: keyed by submission index, so the worker reaches the same verdicts as
#: the parent's accounting.
_WORKER_FAULTS: Optional[FaultPlan] = None

def _process_worker_init(
        payload: Tuple[QuAMaxDecoder, Optional[FaultPlan], int]) -> None:
    """Install this worker process's decoder (and fault plan) from the spec.

    The pool's per-worker CPU budget rides along and caps the CPUs a pack's
    blocks shard over — the oversubscription guard that stops
    ``num_workers`` processes × per-pack block ranges from thrashing the
    machine.
    """
    global _WORKER_DECODER, _WORKER_FAULTS
    decoder, faults, threads = payload
    _usable_cpus(cap=threads)
    _WORKER_DECODER = decoder
    _WORKER_FAULTS = faults


def _process_decode_batch(index: int,
                          batch: DecodeBatch) -> Tuple[bytes, float]:
    """Decode one pack in a worker process: ``(pickled outcomes,
    service_us)``, one pickle per pack back through the result pipe.

    The parent unpickles in its result callback, where a failure fails the
    pack (it would kill the pool's result-handler thread otherwise).  An
    injected crash or decode error raises out of here and reaches the
    parent through the pool's ``error_callback`` (rather than killing the
    OS process, whose ``apply_async`` result would never fire), which keeps
    the pack's accounting deterministic and identical to the threaded mode.
    """
    outcomes, service_us = decode_pack(_WORKER_DECODER, _WORKER_FAULTS,
                                       index, batch)
    return pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL), service_us


# --------------------------------------------------------------------------- #
# Executors: the actual plane
# --------------------------------------------------------------------------- #

class _Executor:
    """What the accounting core asks of an executor.

    An executor starts its workers when it is built from the pool's
    configuration, takes packs through ``offer(pool, index, batch)``
    (blocking while it holds :data:`QUEUE_CAPACITY` of them) and answers
    each one with exactly one ``pool.done(...)`` or ``pool.failed(...)``.
    It keeps no reference to the pool, so a closed pool is freed when its
    owner drops it, not by the cyclic collector.  Three class attributes
    tell the pool's failure path how a *real* (non-injected) error of this
    executor is accounted: the shed stage it is labelled with, whether it
    cost a worker, and whether :meth:`WorkerPool.close` must surface it.
    """

    error_kills_worker = False
    errors_surface_at_close = True

    def __init__(self, pool: "WorkerPool"):
        """Start the workers from *pool*'s configuration."""

    def close(self) -> None:
        """Work off everything accepted, then stop the workers."""

    def shard_counters(self, workers: int) -> Tuple[int, List[int], List[int]]:
        """``(steals, batches routed per shard, current shard depths)`` —
        all zero for executors without shard queues."""
        zeros = [0] * max(1, workers)
        return 0, zeros, list(zeros)


class _InlineExecutor(_Executor):
    """Decodes in the submitting thread, so a real error is raised from the
    ``submit`` call that hit it rather than kept for ``close()``."""

    mode = "inline"
    error_stage = "decode_error"
    errors_surface_at_close = False

    def offer(self, pool: "WorkerPool", index: int,
              batch: DecodeBatch) -> None:
        try:
            outcomes, service_us = decode_pack(pool.decoder, pool.faults,
                                               index, batch)
        except BaseException as error:
            # The slot is released either way, so later batches still
            # credit if the caller treats the failure as transient.
            pool.failed(index, batch, error)
            if isinstance(error, InjectedFault):
                return
            raise
        pool.done(index, batch, outcomes, service_us)


class _ThreadExecutor(_Executor):
    """Per-worker shard queues drained by real threads.

    Wall-clock throughput benefits from NumPy releasing the GIL inside the
    anneals — the Python parts of the decode stack still serialise on it.
    Batches are routed to a *sticky* shard by the structures they hold,
    which keeps one worker's decoder sampler cache hot for each recurring
    mix; an idle worker steals from the longest other shard, so skewed
    mixes never strand capacity.  One bound covers the packs queued on all
    shards.
    """

    mode = MODE_THREAD
    error_stage = "worker_error"
    error_kills_worker = True

    def __init__(self, pool: "WorkerPool"):
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._shards: List["deque[Tuple[int, DecodeBatch]]"] = [
            deque() for _ in range(pool.num_workers)]
        self._route: Dict[Tuple, int] = {}
        self._shard_routed = [0] * pool.num_workers
        self._pending = 0
        self._steals = 0
        self._stop = False
        self._threads: List[threading.Thread] = []
        for shard in range(pool.num_workers):
            self._spawn_worker(pool, shard)

    def _spawn_worker(self, pool: "WorkerPool", shard: int) -> None:
        """Start one draining thread on *shard* (initial start or respawn)."""
        thread = threading.Thread(target=self._worker_loop,
                                  args=(pool, shard),
                                  name=f"cran-worker-{shard}",
                                  daemon=True)
        with self._lock:
            self._threads.append(thread)
        thread.start()

    def close(self) -> None:
        with self._lock:
            self._stop = True
            self._not_empty.notify_all()
        while True:
            # A worker crashing while the backlog drains can spawn a
            # replacement after a join pass; loop until no new thread
            # appeared (replacements observe _stop and exit once their
            # shard is empty).
            with self._lock:
                threads = list(self._threads)
            for thread in threads:
                thread.join()
            with self._lock:
                if len(self._threads) == len(threads):
                    return

    def shard_counters(self, workers: int) -> Tuple[int, List[int], List[int]]:
        with self._lock:
            return (self._steals, list(self._shard_routed),
                    [len(shard) for shard in self._shards])

    def offer(self, pool: "WorkerPool", index: int,
              batch: DecodeBatch) -> None:
        with self._not_full:
            while self._pending >= QUEUE_CAPACITY:
                self._not_full.wait()
            shard = self._shard_for_locked(batch.structures)
            self._shards[shard].append((index, batch))
            self._shard_routed[shard] += 1
            self._pending += 1
            self._not_empty.notify()

    def _shard_for_locked(self, key: Tuple) -> int:
        """Sticky shard of one structure mix (first-seen mixes round-robin).

        Called with the lock held.  Routing by structure rather than by load
        keeps each worker decoding the same problem shapes back to back —
        which is what lets a per-worker decoder's warm sampler cache hit —
        while work stealing (:meth:`_take_locked`) still balances skewed
        mixes.  The round-robin assignment depends only on first-seen order,
        never on ``hash()``, so routing is reproducible across runs.
        """
        shard = self._route.get(key)
        if shard is None:
            shard = self._route[key] = len(self._route) % len(self._shards)
        return shard

    def _take_locked(self, shard: int) -> Optional[Tuple[int, DecodeBatch]]:
        """Pop this worker's next batch, stealing when its shard is empty.

        Called with the lock held.  Own shard first (FIFO), else the oldest
        batch of the *longest* other shard (ties to the lowest index);
        ``None`` when every shard is empty.
        """
        own = self._shards[shard]
        if not own:
            victim, depth = None, 0
            for other, candidate in enumerate(self._shards):
                if other != shard and len(candidate) > depth:
                    victim, depth = other, len(candidate)
            if victim is None:
                return None
            own = self._shards[victim]
            self._steals += 1
        self._pending -= 1
        return own.popleft()

    def _worker_loop(self, pool: "WorkerPool", shard: int) -> None:
        dead = False
        while True:
            with self._not_empty:
                while True:
                    item = self._take_locked(shard)
                    if item is not None:
                        break
                    if self._stop:
                        return
                    self._not_empty.wait()
                self._not_full.notify_all()
            index, batch = item
            if dead:
                # Keep draining so blocked producers never deadlock on a
                # dead worker; the undecoded packs stay accounted and the
                # original error is raised by close().
                pool.failed(index, batch, None)
                continue
            try:
                outcomes, service_us = decode_pack(pool.decoder, pool.faults,
                                                   index, batch)
            except Exception as error:
                # Exception, not BaseException: a KeyboardInterrupt must
                # propagate and kill the worker loudly rather than being
                # folded into the fault accounting.
                if pool.failed(index, batch, error, worker=shard):
                    # Within budget, supervision replaces this worker on
                    # the same shard.
                    self._spawn_worker(pool, shard)
                    return
                dead = pool.kills_worker(error)
            else:
                pool.done(index, batch, outcomes, service_us)


class _ProcessExecutor(_Executor):
    """A persistent :mod:`multiprocessing` pool, bounded in packs in flight.

    The batch's job specs travel pickled, each worker process decodes with
    its own decoder replica, and the outcomes come back as one pickle per
    pack through the result pipe — so NumPy *and* pure Python decode work
    runs truly parallel across cores.
    """

    mode = MODE_PROCESS
    error_stage = "process_error"

    def __init__(self, pool: "WorkerPool"):
        self._space = threading.Condition(threading.Lock())
        self._inflight = 0
        # The platform-default start method is the safe choice: fork on
        # Linux (fast start, decoder inherited without pickling), spawn on
        # macOS/Windows where forking a threaded/BLAS-active parent is
        # unsafe.
        context = multiprocessing.get_context()
        # Each worker holds its own copy of the configured decoder
        # (inherited under fork, unpickled under spawn).  The fault plan
        # rides along so worker-side injection decisions match the parent's
        # accounting.
        self._workers = context.Pool(
            processes=pool.num_workers, initializer=_process_worker_init,
            initargs=((pool.decoder, pool.faults, pool.threads),))

    def close(self) -> None:
        with self._space:
            while self._inflight:
                self._space.wait()
        self._workers.close()
        self._workers.join()

    def offer(self, pool: "WorkerPool", index: int,
              batch: DecodeBatch) -> None:
        with self._space:
            while self._inflight >= QUEUE_CAPACITY:
                self._space.wait()
            self._inflight += 1
        # The callbacks' partials hold the pool until they fire.
        self._workers.apply_async(
            _process_decode_batch, (index, batch),
            callback=partial(self._on_result, pool, index, batch),
            error_callback=partial(self._on_error, pool, index, batch))

    def _on_result(self, pool: "WorkerPool", index: int, batch: DecodeBatch,
                   payload) -> None:
        """Pool callback: unpickle the outcomes, hand the pack over."""
        try:
            pickled, service_us = payload
            outcomes = pickle.loads(pickled)
        except BaseException as error:  # surfaced by close()
            self._on_error(pool, index, batch, error)
            return
        pool.done(index, batch, outcomes, service_us)
        self._landed()

    def _on_error(self, pool: "WorkerPool", index: int, batch: DecodeBatch,
                  error: BaseException) -> None:
        if not isinstance(error, BaseException):
            error = SchedulingError(f"process worker failed: {error!r}")
        pool.failed(index, batch, error)
        self._landed()

    def _landed(self) -> None:
        with self._space:
            self._inflight -= 1
            self._space.notify_all()


# --------------------------------------------------------------------------- #
# The accounting core: the virtual plane
# --------------------------------------------------------------------------- #

class WorkerPool:
    """Bounded-queue pool of QuAMax decode workers with virtual-time accounting.

    The workers start at construction, and :meth:`submit` blocks while the
    executor holds :data:`QUEUE_CAPACITY` packs — summed over all worker
    shards (threaded mode), or in flight (process mode).

    Parameters
    ----------
    decoder:
        Decoder used by the inline path, shared by threaded workers and
        copied into each worker process; a default :class:`QuAMaxDecoder`
        is created when omitted.
    num_workers:
        ``0`` decodes inline at submission (deterministic); ``>= 1`` starts
        that many draining threads or worker processes (see *mode*).
    mode:
        Which executor serves ``num_workers >= 1``: ``"thread"`` (default)
        or ``"process"``, which scales past the GIL and is started with the
        platform's own method — ``fork`` on Linux, ``spawn`` on
        macOS/Windows.  Virtual-time accounting does not depend on it (batches
        credit in flush order either way), so neither does the
        latency/deadline telemetry of a given load and worker count.
    faults:
        Optional :class:`~repro.cran.faults.FaultPlan` injecting worker
        crashes, decode errors and stragglers deterministically by
        submission index (process pools ship the plan to their workers, so
        worker-side decisions match the parent's accounting).  A pack an
        injected fault fails is parked for :meth:`take_failed`.
    restart_budget:
        How many dead workers supervision may respawn over the pool's
        lifetime.  Within budget a crashed thread worker is replaced on its
        shard (``worker.restart`` trace event) instead of draining its
        shard undecoded; inline and process crashes draw on the same budget
        for identical cross-mode accounting (neither has a worker of its
        own to replace).
    threads:
        The number of CPUs a process worker's packs shard their blocks over
        (its cap on the usable CPUs).  Default ``None`` derives it: process
        pools divide this process's usable CPUs (its affinity mask) between
        their workers, ``max(1, usable // num_workers)``, so ``num_workers``
        processes never oversubscribe the CPUs the pool owns.  Inline and
        thread pools report 1 and take no cap: their packs shard over the
        process's usable CPUs.
    """

    def __init__(self, decoder: Optional[QuAMaxDecoder] = None, *,
                 num_workers: int = 0,
                 mode: str = MODE_THREAD,
                 faults: Optional[FaultPlan] = None,
                 restart_budget: int = 0,
                 threads: Optional[int] = None):
        if mode not in MODES:
            raise SchedulingError(
                f"mode must be one of {MODES}, got {mode!r}")
        self.num_workers = check_integer_in_range("num_workers", num_workers,
                                                  minimum=0)
        self.decoder = decoder or QuAMaxDecoder()
        self.faults = faults
        self.restart_budget = check_integer_in_range(
            "restart_budget", restart_budget, minimum=0)
        executor = (_InlineExecutor if not self.num_workers
                    else _ProcessExecutor if mode == MODE_PROCESS
                    else _ThreadExecutor)
        if threads is None:
            # Oversubscription guard: a process pool's workers each shard
            # their packs, so the default budget divides the CPUs this
            # process may use between them.
            threads = (max(1, _usable_cpus() // self.num_workers)
                       if executor is _ProcessExecutor else 1)
        self.threads = check_integer_in_range("threads", threads, minimum=1)

        self._lock = threading.Lock()
        #: The lifecycle log: every fact, one row, in append order.  Its
        #: single write is ``_emit_locked(row)``, under the pool lock.
        self._log: List[tuple] = []
        self._emit_locked = self._log.append
        #: The serving statistics, a fold over the log.
        self.telemetry = TelemetryRecorder(self._log, self._lock,
                                           self.decoder, faults)
        self._errors: List[BaseException] = []
        # Failed packs parked for the retry layer: (submission index,
        # batch, failure stage).
        self._failed: List[Tuple[int, DecodeBatch, str]] = []
        self._restarts_left = self.restart_budget
        # Signalled whenever crediting catches up with submission while a
        # wait_idle() caller (the retry layer's barrier) is registered.
        self._idle = threading.Condition(self._lock)
        self._idle_waiters = 0
        # One virtual QA machine per worker (at least one for inline mode);
        # entry k is the time machine k becomes free.  Batches are credited
        # in submission order: decoded-but-out-of-turn batches wait in
        # ``_decoded`` (``None`` marks a shed or failed slot to skip).
        self._virtual_free = [0.0] * max(1, self.num_workers)
        self._next_submit = 0
        self._next_credit = 0
        self._decoded: Dict[
            int, Optional[Tuple[DecodeBatch, list, float]]] = {}
        self._closed = False
        self._executor = executor(self)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting batches, drain the backlog and join the workers.

        A single recorded worker error is re-raised as-is; two or more are
        aggregated into a :class:`~repro.exceptions.WorkerPoolError` whose
        message lists every one of them, so no failure is masked by
        whichever thread happened to record first.
        """
        if self._closed:
            return
        self._closed = True
        self._executor.close()
        # Failures nobody collected degrade to sheds so every submitted
        # job stays accounted (complete + shed == submitted).
        for index, batch, stage in self.take_failed():
            self.shed(batch.jobs, stage, batch.flush_time_us, index)
        if self._errors:
            if len(self._errors) == 1:
                raise self._errors[0]
            raise WorkerPoolError(self._errors)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The seam: packs in, outcomes and failures back
    # ------------------------------------------------------------------ #
    def submit(self, batch: DecodeBatch) -> None:
        """Hand one flushed batch to the pool, blocking while it is full.

        Inline pools decode before returning.
        """
        if self._closed:
            raise SchedulingError("cannot submit to a closed WorkerPool")
        with self._lock:
            index = self._next_submit
            self._next_submit += 1
            self._emit_locked((ROW_FLUSH, index, batch))
        self._executor.offer(self, index, batch)

    def done(self, index: int, batch: DecodeBatch, outcomes: list,
             service_us: float) -> None:
        """Executor callback: pack *index* decoded; credit it in turn."""
        with self._lock:
            self._decoded[index] = (batch, outcomes, service_us)
            self._credit_ready_locked()

    def kills_worker(self, error: BaseException) -> bool:
        """Whether *error* cost the executor a worker: an injected crash
        does by definition, a real error where the executor says so."""
        return isinstance(error, WorkerCrash) or (
            not isinstance(error, InjectedFault)
            and self._executor.error_kills_worker)

    def failed(self, index: int, batch: DecodeBatch,
               error: Optional[BaseException],
               worker: Optional[int] = None) -> bool:
        """Executor callback, and the one failure path: pack *index* will
        not decode.  Returns whether a replacement worker may be started.

        An injected fault parks the pack for :meth:`take_failed`, and so
        does ``error=None`` — the pack was never tried because its worker
        is dead — when a fault plan is configured (a retry layer is
        listening); anything else sheds it under the executor's stage
        label and keeps the error for whoever surfaces it.  A lost worker
        then spends one slot of the restart budget.
        """
        injected = isinstance(error, InjectedFault)
        with self._lock:
            if injected:
                stage = (FAULT_CRASH if isinstance(error, WorkerCrash)
                         else FAULT_DECODE_ERROR)
            else:
                stage = self._executor.error_stage
                if (error is not None
                        and self._executor.errors_surface_at_close):
                    self._errors.append(error)
            self._release_locked(
                index, batch, stage,
                park=injected or (error is None and self.faults is not None))
            if (error is None or not self.kills_worker(error)
                    or self._restarts_left <= 0):
                return False
            self._restarts_left -= 1
            self._emit_locked((ROW_EVENT, EVENT_WORKER_RESTART,
                               batch.flush_time_us, None, index, worker,
                               {"remaining": self._restarts_left}))
            return True

    def admit(self, job: DecodeJob) -> None:
        """Log *job*'s admission by the session (``job.admit``)."""
        with self._lock:
            self._emit_locked((ROW_ADMIT, job))

    def emit(self, name: str, ts_us: float, *,
             job_id: Optional[int] = None, pack_id: Optional[int] = None,
             worker: Optional[int] = None, **attrs: Any) -> None:
        """Log one fact a producer (session, ingress gateway) states with
        its attrs — ``ingress.admit``, ``job.restamp``, ``job.retry``,
        ``brownout.*``, gateway-level ``job.shed``."""
        with self._lock:
            self._emit_locked((ROW_EVENT, name, ts_us, job_id, pack_id,
                               worker, attrs))

    def shed(self, jobs: Sequence[DecodeJob], stage: str, ts_us: float,
             pack_id: Optional[int] = None) -> None:
        """Drop *jobs* for good: onto the shed list, counted by *stage*, one
        ``job.shed`` event each — the pool's own sheds, and the session's
        (brownout, retry give-up) in the same stream."""
        with self._lock:
            self._shed_locked(jobs, stage, ts_us, pack_id)

    def _shed_locked(self, jobs: Sequence[DecodeJob], stage: str,
                     ts_us: float, pack_id: Optional[int]) -> None:
        self._emit_locked((ROW_SHED, ts_us, pack_id, stage, tuple(jobs)))

    def _release_locked(self, index: int, batch: DecodeBatch, stage: str,
                        park: bool) -> None:
        """Give up pack *index*: free its slot, then shed it or park it.

        A parked pack's jobs stay *unaccounted* (neither completed nor
        shed) until :meth:`take_failed` hands them to the caller — or
        :meth:`close` sheds whatever nobody collected.
        """
        self._decoded[index] = None  # an empty slot: later packs credit
        self._credit_ready_locked()
        if park:
            self._failed.append((index, batch, stage))
            self._emit_locked((ROW_EVENT, EVENT_PACK_FAILED,
                               batch.flush_time_us, None, index, None,
                               {"stage": stage,
                                "job_ids": list(batch.job_ids)}))
        else:
            self._shed_locked(batch.jobs, stage, batch.flush_time_us, index)

    def take_failed(self) -> List[Tuple[int, DecodeBatch, str]]:
        """Drain the parked failures, in submission order.

        Returns ``(submission index, batch, failure stage)`` triples and
        clears the list; the caller owns the jobs from here (requeue, shed,
        ...).  Submission-order sorting keeps the retry layer's
        resubmission stream — and with it every retry stamp — identical
        whatever order concurrent workers recorded the failures in.
        """
        with self._lock:
            failed = sorted(self._failed, key=lambda item: item[0])
            self._failed.clear()
        return failed

    def wait_idle(self) -> None:
        """Block until every submitted pack has been credited or failed.

        The retry layer's barrier: after this, :meth:`take_failed` has
        seen every failure of the packs submitted so far.  Inline pools
        are idle by construction.
        """
        with self._idle:
            self._idle_waiters += 1
            try:
                while self._next_credit < self._next_submit:
                    self._idle.wait()
            finally:
                self._idle_waiters -= 1

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _rows(self, kind: str) -> List[tuple]:
        with self._lock:
            return [row for row in self._log if row[0] == kind]

    def results(self) -> List[JobResult]:
        """Completed job results so far, ordered by job id."""
        return sorted((result for row in self._rows(ROW_CREDIT)
                       for result in row[4]), key=lambda r: r.job.job_id)

    @property
    def shed_jobs(self) -> List[DecodeJob]:
        """Jobs shed for good, in the order they were shed."""
        return [job for row in self._rows(ROW_SHED) for job in row[4]]

    def events(self) -> Tuple[TraceEvent, ...]:
        """The lifecycle log so far, exported as trace events."""
        with self._lock:
            log = list(self._log)
        return trace_events(log)

    def worker_info(self) -> Dict[str, Any]:
        """One-shot snapshot of the pool's worker-level counters.

        ``steal_count``, per-shard routed totals (``shard_batches``) and
        current occupancy (``shard_depths``) — the numbers the service
        surfaces under ``telemetry["workers"]``.  Shard counters stay zero
        for inline and process pools, which have no shard queues.
        """
        steals, routed, depths = self._executor.shard_counters(
            self.num_workers)
        return {
            "mode": self._executor.mode,
            "num_workers": self.num_workers,
            "threads": self.threads,
            "steal_count": steals,
            "shard_batches": routed,
            "shard_depths": depths,
        }

    def _credit_ready_locked(self) -> None:
        """Credit every decoded batch whose submission turn has come.

        Called with the lock held.  Crediting strictly in submission order
        keeps the virtual-machine assignment — and with it every latency and
        deadline statistic — deterministic under threaded execution.
        """
        try:
            self._drain_credits_locked()
        finally:
            if self._idle_waiters and self._next_credit >= self._next_submit:
                self._idle.notify_all()

    def _drain_credits_locked(self) -> None:
        while self._next_credit in self._decoded:
            index = self._next_credit
            entry = self._decoded.pop(index)
            self._next_credit += 1
            if entry is None:  # shed or failed slot: nothing to credit
                continue
            batch, outcomes, service_us = entry
            machine = min(range(len(self._virtual_free)),
                          key=self._virtual_free.__getitem__)
            start_us = max(batch.flush_time_us, self._virtual_free[machine])
            finish_us = start_us + service_us
            self._virtual_free[machine] = finish_us
            results = [
                JobResult(job=job, result=outcome, batch_size=batch.size,
                          flush_reason=batch.reason,
                          flush_time_us=batch.flush_time_us,
                          start_time_us=start_us, finish_time_us=finish_us)
                for job, outcome in zip(batch.jobs, outcomes)
            ]
            self._emit_locked((ROW_CREDIT, index, machine, service_us,
                               results))

    def __repr__(self) -> str:
        workers = ("inline" if not self.num_workers
                   else f"{self.num_workers} {self._executor.mode} workers")
        return f"WorkerPool({workers})"
