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
machines, the result / shed / parked-failure / error lists, the restart
budget, the idle barrier, the telemetry recorder and the trace recorder
(producers — session, ingress gateway — state their events through
:meth:`WorkerPool.emit`).  The actual plane is one of three executors —
inline (``num_workers=0``: deterministic, what simulations and tests use),
thread shards, process pool — that know nothing of that accounting and meet
it at one seam: ``offer(index, batch)`` in, :meth:`WorkerPool.done` /
:meth:`WorkerPool.failed` out, one :func:`decode_pack` underneath.

Backpressure is explicit: the number of packs an executor holds is bounded,
and on overload the pool either **blocks** the producer (default — the
scheduler naturally holds jobs back) or **sheds** the batch (its jobs are
counted and returned as dropped, the right policy when deadlines make late
decodes worthless).

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

import copy
import multiprocessing
import os
import pickle
import threading
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    EVENT_JOB_COMPLETE,
    EVENT_JOB_SHED,
    EVENT_PACK_COMPLETE,
    EVENT_PACK_DISPATCH,
    EVENT_PACK_FAILED,
    EVENT_PACK_FLUSH,
    EVENT_PACK_START,
    EVENT_WORKER_RESTART,
    TraceRecorder,
)
from repro.annealer.backends import _usable_cpus, openmp_teams_run
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import SchedulingError, WorkerPoolError
from repro.utils.validation import check_integer_in_range

#: Overload policies of the bounded submission queue.
POLICY_BLOCK = "block"
POLICY_SHED = "shed"
OVERLOAD_POLICIES = (POLICY_BLOCK, POLICY_SHED)

#: Execution modes of a pool with ``num_workers >= 1``.
MODE_THREAD = "thread"
MODE_PROCESS = "process"
MODES = (MODE_THREAD, MODE_PROCESS)


def _batch_decode_hints(batch: DecodeBatch,
                        default_threads: int) -> Tuple[str, int]:
    """Resolve one pack's ``(rng, threads)`` decode overrides.

    The scheduler queues each draw discipline separately, so the first job
    speaks for all.  The thread count is the largest per-job hint, falling
    back to the worker's budget when no job carries one — and clamped to 1
    under the sequential discipline, whose cext calls spread a pack's
    blocks, or one block's replicas, across cores by themselves.
    """
    rng_mode = batch.jobs[0].rng_mode
    hints = [int(job.threads) for job in batch.jobs
             if job.threads is not None]
    threads = max(hints) if hints else max(1, int(default_threads))
    if rng_mode != "counter":
        threads = 1
    return rng_mode, threads


def _pack_overhead_us(decoder: QuAMaxDecoder, outcomes) -> float:
    """The per-QA-job overhead, paid once for whatever is on the chip."""
    return decoder.annealer.overheads.total_us(outcomes[0].run.num_anneals)


def _pack_service_us(decoder: QuAMaxDecoder, outcomes) -> float:
    """Virtual service time of one decoded pack.

    One shared overhead for the whole pack plus every block's amortised
    compute (the anneal time times its share of the chip, so the sum holds
    across structures) — the accounting model all three execution modes
    share, which is what keeps latency/deadline telemetry identical across
    inline, thread and process serving.
    """
    return (_pack_overhead_us(decoder, outcomes)
            + sum(outcome.compute_time_us for outcome in outcomes))


def decode_pack(decoder: QuAMaxDecoder, faults: Optional[FaultPlan],
                default_threads: int, index: int,
                batch: DecodeBatch) -> Tuple[list, float]:
    """Decode pack *index*; returns ``(outcomes, virtual service µs)``.

    The one decode every executor runs, wherever it runs.  The fault a plan
    assigns to *index* takes effect here: ``worker_crash`` raises
    :class:`WorkerCrash` and ``decode_error`` raises :class:`InjectedFault`
    before any work; a ``slow`` fault — a correct decode — only inflates
    the pack's virtual service time.
    """
    fault = faults.pack_fault(index) if faults is not None else None
    if fault is not None and fault.kind == FAULT_CRASH:
        raise WorkerCrash(f"injected worker crash decoding pack {index}")
    if fault is not None and fault.kind == FAULT_DECODE_ERROR:
        raise InjectedFault(f"injected decode error on pack {index}")
    rng_mode, threads = _batch_decode_hints(batch, default_threads)
    # Default sequential single-threaded packs keep the historical
    # ``detect_batch(channel_uses, random_states=...)`` call shape, so
    # duck-typed decoder stand-ins that predate the rng/threads knobs keep
    # working; only non-default packs pass the overrides — and a decoder
    # that cannot honour those must fail loudly rather than silently decode
    # under the wrong discipline.
    overrides = ({} if rng_mode == "sequential" and threads == 1
                 else {"rng": rng_mode, "threads": threads})
    outcomes = decoder.detect_batch(
        [job.channel_use for job in batch.jobs],
        random_states=[job.rng() for job in batch.jobs], **overrides)
    # One shared job overhead per pack, plus the amortised compute of
    # every block: this is precisely where batching buys latency.
    service_us = _pack_service_us(decoder, outcomes)
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

#: This worker process's kernel-thread budget (set by the initializer).
_WORKER_THREADS: int = 1


def _process_worker_init(
        payload: Tuple[str, object, Optional[FaultPlan], int]) -> None:
    """Build this worker process's decoder (and fault plan) from the spec.

    The pool's per-worker kernel-thread budget rides along: it is exported
    as the ``OMP_NUM_THREADS`` cap *before* the decoder is built (so the
    lazily loaded OpenMP runtime honours it) and caps the CPUs a sequential
    pack's blocks shard over — the oversubscription guard that stops
    ``num_workers`` processes × per-pack teams from thrashing the machine.
    """
    global _WORKER_DECODER, _WORKER_FAULTS, _WORKER_THREADS
    kind, value, faults, threads = payload
    _WORKER_THREADS = max(1, int(threads))
    _usable_cpus(cap=_WORKER_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(_WORKER_THREADS)
    _WORKER_DECODER = value() if kind == "factory" else value
    _WORKER_FAULTS = faults


def _process_decode_batch(index: int, batch: DecodeBatch):
    """Decode one pack in a worker process; results go back via shared memory.

    Returns ``((pickled, shm_name, buffer_sizes), service_us)`` — see
    :func:`_export_outcomes` / :func:`_import_outcomes`.

    An injected crash or decode error raises out of here and reaches the
    parent through the pool's ``error_callback`` (rather than killing the
    OS process, whose ``apply_async`` result would never fire) — the
    :mod:`multiprocessing` pool already maintains its worker set through
    literal deaths, while the exception path keeps the pack's accounting
    deterministic and identical to the threaded mode.
    """
    outcomes, service_us = decode_pack(_WORKER_DECODER, _WORKER_FAULTS,
                                       _WORKER_THREADS, index, batch)
    return _export_outcomes(outcomes), service_us


def _export_outcomes(outcomes) -> Tuple[bytes, Optional[str], list]:
    """Serialise decode outcomes, large arrays out-of-band in shared memory.

    Pickle protocol 5 hands every contiguous ndarray payload (sample
    matrices, energies, embedded couplings, ...) to a buffer callback
    instead of inlining it; those buffers are packed into one
    :class:`multiprocessing.shared_memory.SharedMemory` segment per batch,
    so only the (small) object graph travels through the pool's result
    pipe.  Falls back to inline buffer copies when no shared memory is
    available.
    """
    buffers: list = []
    pickled = pickle.dumps(outcomes, protocol=5,
                           buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    total = sum(view.nbytes for view in views)
    if total == 0:
        return pickled, None, []
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(create=True, size=total)
    except (ImportError, OSError):
        return pickled, None, [bytes(view) for view in views]
    sizes = []
    offset = 0
    for view in views:
        size = view.nbytes
        segment.buf[offset:offset + size] = view
        sizes.append(size)
        offset += size
    segment.close()
    return pickled, segment.name, sizes


def _import_outcomes(pickled: bytes, shm_name: Optional[str],
                     sizes: Sequence) -> list:
    """Reassemble outcomes exported by :func:`_export_outcomes`."""
    if shm_name is None:
        return pickle.loads(pickled, buffers=sizes)
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(name=shm_name)
    views: list = []
    attached = None
    try:
        offset = 0
        for size in sizes:
            views.append(segment.buf[offset:offset + size])
            offset += size
        attached = pickle.loads(pickled, buffers=views)
        # Deep-copy detaches every array from the segment so it can be
        # unlinked immediately instead of living as long as the results.
        outcomes = copy.deepcopy(attached)
    finally:
        # Drop every exported view before closing, or close() would fail;
        # unlink unconditionally so a parent-side failure (unpickling,
        # deep copy) cannot leak the segment.  Each cleanup step is guarded
        # separately: a failed unpickle can leave live views pinning the
        # mapping (close() raises BufferError), and unlink must still run —
        # exactly once — without masking the original error.
        attached = None
        views.clear()
        try:
            segment.close()
        except BufferError:
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
    return outcomes


# --------------------------------------------------------------------------- #
# Executors: the actual plane
# --------------------------------------------------------------------------- #

class _Executor:
    """What the accounting core asks of an executor.

    An executor takes packs through ``offer(index, batch)`` (``False`` = no
    room) and answers each accepted one with exactly one ``pool.done(...)``
    or ``pool.failed(...)``.  It reads the pool's configuration and nothing
    of its accounting.  Three class attributes tell the pool's failure path
    how a *real* (non-injected) error of this executor is accounted: the
    shed stage it is labelled with, whether it cost a worker, and whether
    :meth:`WorkerPool.close` must surface it.
    """

    error_kills_worker = False
    errors_surface_at_close = True

    def __init__(self, pool: "WorkerPool"):
        self.pool = pool
        #: Whether :meth:`start` has launched workers (inline: there are none).
        self.started = False

    def start(self) -> None:
        """Start the workers (idempotent)."""
        if not self.started:
            self.started = True
            self._launch()

    def _launch(self) -> None:
        pass

    def close(self) -> None:
        """Work off everything accepted, then stop the workers."""

    def shard_counters(self) -> Tuple[int, List[int], List[int]]:
        """``(steals, batches routed per shard, current shard depths)`` —
        all zero for executors without shard queues."""
        zeros = [0] * max(1, self.pool.num_workers)
        return 0, zeros, list(zeros)


class _InlineExecutor(_Executor):
    """Decodes in the submitting thread, so a real error is raised from the
    ``submit`` call that hit it rather than kept for ``close()``."""

    mode = "inline"
    error_stage = "decode_error"
    errors_surface_at_close = False

    def offer(self, index: int, batch: DecodeBatch) -> bool:
        pool = self.pool
        try:
            outcomes, service_us = decode_pack(pool.decoder, pool.faults,
                                               pool.threads, index, batch)
        except BaseException as error:
            # The slot is released either way, so later batches still
            # credit if the caller treats the failure as transient.
            pool.failed(index, batch, error)
            if isinstance(error, InjectedFault):
                return True
            raise
        pool.done(index, batch, outcomes, service_us)
        return True


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
        super().__init__(pool)
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

    def _launch(self) -> None:
        for shard in range(self.pool.num_workers):
            self._spawn_worker(shard)

    def _spawn_worker(self, shard: int) -> None:
        """Start one draining thread on *shard* (initial start or respawn)."""
        factory = self.pool._decoder_factory
        decoder = factory() if factory is not None else self.pool.decoder
        thread = threading.Thread(target=self._worker_loop,
                                  args=(decoder, shard),
                                  name=f"cran-worker-{shard}",
                                  daemon=True)
        with self._lock:
            self._threads.append(thread)
        thread.start()

    def close(self) -> None:
        self.start()
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

    def shard_counters(self) -> Tuple[int, List[int], List[int]]:
        with self._lock:
            return (self._steals, list(self._shard_routed),
                    [len(shard) for shard in self._shards])

    def offer(self, index: int, batch: DecodeBatch) -> bool:
        with self._not_full:
            if self._pending >= self.pool.queue_capacity:
                # With nobody draining, waiting for room would never end.
                if (self.pool.overload_policy == POLICY_SHED
                        or not self.started):
                    return False
                while self._pending >= self.pool.queue_capacity:
                    self._not_full.wait()
            shard = self._shard_for_locked(batch.structures)
            self._shards[shard].append((index, batch))
            self._shard_routed[shard] += 1
            self._pending += 1
            self._not_empty.notify()
        return True

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

    def _worker_loop(self, decoder: QuAMaxDecoder, shard: int) -> None:
        pool = self.pool
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
                outcomes, service_us = decode_pack(decoder, pool.faults,
                                                   pool.threads, index, batch)
            except Exception as error:
                # Exception, not BaseException: a KeyboardInterrupt must
                # propagate and kill the worker loudly rather than being
                # folded into the fault accounting.
                if pool.failed(index, batch, error, worker=shard):
                    # Within budget, supervision replaces this worker on
                    # the same shard.
                    self._spawn_worker(shard)
                    return
                dead = pool.kills_worker(error)
            else:
                pool.done(index, batch, outcomes, service_us)


class _ProcessExecutor(_Executor):
    """A persistent :mod:`multiprocessing` pool, bounded in packs in flight.

    The batch's job specs travel pickled, each worker process decodes with
    its own decoder replica, and the bulky result arrays come back through
    a shared-memory segment instead of the result pipe — so NumPy *and*
    pure Python decode work runs truly parallel across cores.
    """

    mode = MODE_PROCESS
    error_stage = "process_error"

    def __init__(self, pool: "WorkerPool"):
        super().__init__(pool)
        self._space = threading.Condition(threading.Lock())
        self._inflight = 0
        self._workers = None

    def _launch(self) -> None:
        # The platform-default start method is the safe choice: fork on
        # Linux (fast start, decoder inherited without pickling), spawn on
        # macOS/Windows where forking a threaded/BLAS-active parent is
        # unsafe.
        context_name = None
        if openmp_teams_run():
            # libgomp's worker threads do not survive fork(): once this
            # process has run a multi-thread OpenMP team (a threaded
            # counter kernel), a fork-context child deadlocks in its first
            # parallel region.  Fall back to spawn, where workers rebuild
            # the decoder from the pickled spec like on macOS/Windows.
            try:
                if (multiprocessing.get_start_method(allow_none=True)
                        in (None, "fork")):
                    context_name = "spawn"
            except ValueError:
                pass
        context = multiprocessing.get_context(context_name)
        try:
            # Start the resource tracker *before* forking the pool, so the
            # workers inherit it: shared-memory segments registered by a
            # worker are then unregistered by the parent's unlink against
            # the same tracker (no leak warnings, and crash cleanup still
            # covers in-flight segments).
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except (ImportError, OSError):
            pass
        # Workers rebuild the decoder from a pickled spec: the factory when
        # one was given (one decoder per process, like the threaded
        # decoder_factory), else the configured decoder itself.  The fault
        # plan rides along so worker-side injection decisions match the
        # parent's accounting.
        pool = self.pool
        payload = (("factory", pool._decoder_factory)
                   if pool._decoder_factory is not None
                   else ("decoder", pool.decoder))
        self._workers = context.Pool(
            processes=pool.num_workers, initializer=_process_worker_init,
            initargs=(payload + (pool.faults, pool.threads),))

    def close(self) -> None:
        self.start()
        with self._space:
            while self._inflight:
                self._space.wait()
        self._workers.close()
        self._workers.join()

    def offer(self, index: int, batch: DecodeBatch) -> bool:
        self.start()
        with self._space:
            if self.pool.overload_policy == POLICY_BLOCK:
                while self._inflight >= self.pool.queue_capacity:
                    self._space.wait()
            elif self._inflight >= self.pool.queue_capacity:
                return False
            self._inflight += 1
        self._workers.apply_async(
            _process_decode_batch, (index, batch),
            callback=partial(self._on_result, index, batch),
            error_callback=partial(self._on_error, index, batch))
        return True

    def _on_result(self, index: int, batch: DecodeBatch, payload) -> None:
        """Pool callback: reattach the shared buffers, hand the pack over."""
        try:
            exported, service_us = payload
            outcomes = _import_outcomes(*exported)
        except BaseException as error:  # surfaced by close()
            self._on_error(index, batch, error)
            return
        self.pool.done(index, batch, outcomes, service_us)
        self._landed()

    def _on_error(self, index: int, batch: DecodeBatch,
                  error: BaseException) -> None:
        if not isinstance(error, BaseException):
            error = SchedulingError(f"process worker failed: {error!r}")
        self.pool.failed(index, batch, error)
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

    Parameters
    ----------
    decoder:
        Decoder used by the inline path and shared by threaded workers when
        no *decoder_factory* is given; a default :class:`QuAMaxDecoder` is
        created when omitted.
    num_workers:
        ``0`` decodes inline at submission (deterministic); ``>= 1`` starts
        that many draining threads or worker processes (see *mode*).
    mode:
        Which executor serves ``num_workers >= 1``: ``"thread"`` (default)
        or ``"process"``, which scales past the GIL and is started with the
        platform's own method — ``fork`` on Linux, ``spawn`` on
        macOS/Windows and wherever this process has already run an OpenMP
        team.  Virtual-time accounting does not depend on it (batches
        credit in flush order either way), so neither does the
        latency/deadline telemetry of a given load and worker count.
    queue_capacity:
        Bound on queued batches summed over all worker shards (threaded
        mode), or on the number of in-flight packs (process mode).
    overload_policy:
        ``"block"`` stalls :meth:`submit` until space frees up; ``"shed"``
        drops the offered batch and records its jobs as shed.
    telemetry:
        Recorder the pool reports completed batches and shed jobs into; a
        private one is created when omitted.
    trace:
        Optional :class:`~repro.cran.tracing.TraceRecorder` the pool stamps
        pack/job lifecycle events into (flush, dispatch, worker pickup,
        completion, sheds) on the same virtual clock as the accounting.
        ``None`` (default) disables tracing at zero cost.
    decoder_factory:
        Optional zero-argument callable building one decoder per worker
        thread or process (e.g. to give each worker its own annealer
        instance).
    autostart:
        Start the workers immediately.  Tests can pass ``False`` to fill
        the queue deterministically before draining; with no worker
        running, a submission past capacity sheds (shed policy) or raises
        (block policy — it would otherwise deadlock the producer).
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
        Per-worker kernel-thread budget applied to packs that carry no
        per-job ``threads`` hint (only effective under
        ``rng_mode="counter"`` jobs — the sequential discipline is
        clamped to 1).  Default ``None`` derives it: process pools get
        ``max(1, cpu_count // num_workers)`` so ``num_workers`` OpenMP
        teams never oversubscribe the machine, every other mode gets 1.
        Process workers also take it as the ``OMP_NUM_THREADS`` cap and
        as the cap on the CPUs a sequential pack's blocks shard over.
    """

    def __init__(self, decoder: Optional[QuAMaxDecoder] = None, *,
                 num_workers: int = 0,
                 mode: str = MODE_THREAD,
                 queue_capacity: int = 16,
                 overload_policy: str = POLICY_BLOCK,
                 telemetry: Optional[TelemetryRecorder] = None,
                 trace: Optional[TraceRecorder] = None,
                 decoder_factory: Optional[Callable[[], QuAMaxDecoder]] = None,
                 autostart: bool = True,
                 faults: Optional[FaultPlan] = None,
                 restart_budget: int = 0,
                 threads: Optional[int] = None):
        if overload_policy not in OVERLOAD_POLICIES:
            raise SchedulingError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, got "
                f"{overload_policy!r}")
        if mode not in MODES:
            raise SchedulingError(
                f"mode must be one of {MODES}, got {mode!r}")
        self.num_workers = check_integer_in_range("num_workers", num_workers,
                                                  minimum=0)
        self.queue_capacity = check_integer_in_range(
            "queue_capacity", queue_capacity, minimum=1)
        self.overload_policy = overload_policy
        self.decoder = decoder or QuAMaxDecoder()
        self._decoder_factory = decoder_factory
        self.telemetry = telemetry if telemetry is not None \
            else TelemetryRecorder()
        self.trace = trace
        self.faults = faults
        self.restart_budget = check_integer_in_range(
            "restart_budget", restart_budget, minimum=0)
        executor = (_InlineExecutor if not self.num_workers
                    else _ProcessExecutor if mode == MODE_PROCESS
                    else _ThreadExecutor)
        if threads is None:
            # Oversubscription guard: a process pool's workers each run
            # their own OpenMP team, so the default budget divides the
            # machine between them; threaded/inline pools share one
            # process (and its GIL) and default to serial kernels.
            threads = (max(1, (os.cpu_count() or 1) // self.num_workers)
                       if executor is _ProcessExecutor else 1)
        self.threads = check_integer_in_range("threads", threads, minimum=1)

        self._lock = threading.Lock()
        self._results: List[JobResult] = []
        self._shed_jobs: List[DecodeJob] = []
        self._errors: List[BaseException] = []
        # Failed packs parked for the retry layer: (submission index,
        # batch, failure stage).
        self._failed: List[Tuple[int, DecodeBatch, str]] = []
        self._restarts_left = self.restart_budget
        # Signalled whenever crediting catches up with submission — the
        # retry layer's wait_idle() barrier.
        self._idle = threading.Condition(self._lock)
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
        if autostart:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the workers (no-op when inline or already started)."""
        self._executor.start()

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
    def submit(self, batch: DecodeBatch) -> bool:
        """Offer one flushed batch to the pool.

        Returns ``True`` when the batch was accepted, ``False`` when the
        overload policy shed it.  Inline pools decode before returning.
        """
        if self._closed:
            raise SchedulingError("cannot submit to a closed WorkerPool")
        with self._lock:
            index = self._next_submit
            self._next_submit += 1
            if self.faults is not None:
                # Parent-side accounting of the fault the plan *assigns* to
                # this submission index — recomputed here (one draw, keyed
                # by index) so the injected-fault telemetry is identical
                # whichever mode actually hits the fault.
                assigned = self.faults.pack_fault(index)
                if assigned is not None:
                    self.telemetry.record_fault(assigned.kind)
            if self.trace is not None:
                self.trace.record(
                    EVENT_PACK_FLUSH, batch.flush_time_us, pack_id=index,
                    reason=batch.reason, size=batch.size,
                    structure=batch.structure_label,
                    job_ids=list(batch.job_ids))
                self.trace.record(EVENT_PACK_DISPATCH, batch.flush_time_us,
                                  pack_id=index)
        if self._executor.offer(index, batch):
            return True
        with self._lock:
            if self.overload_policy == POLICY_SHED:
                self._release_locked(index, batch, "pool", park=False)
                return False
            # A blocking executor only ever declines when nobody is
            # draining it; surface the misuse instead of deadlocking.
            self._skip_locked(index)
        raise SchedulingError(
            "submission queue is full but no worker is running; "
            "call start() before blocking submissions")

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
            self._emit_locked(EVENT_WORKER_RESTART, batch.flush_time_us,
                              None, index, worker,
                              {"remaining": self._restarts_left})
            return True

    def emit(self, name: str, ts_us: float, *,
             job_id: Optional[int] = None, pack_id: Optional[int] = None,
             worker: Optional[int] = None, **attrs: Any) -> None:
        """Record one lifecycle fact: bump its telemetry counter (if it has
        one) and append it to the trace (if one is retained).

        The single write of every fact a producer (session, ingress
        gateway) states — ``job.admit``, ``ingress.admit``, ``job.restamp``,
        ``job.retry``, ``brownout.*``, gateway-level ``job.shed`` — and of
        the pool's own failures, serialised by the pool lock.  Callers that
        would build attrs only for the trace check :attr:`trace` first.
        """
        with self._lock:
            self._emit_locked(name, ts_us, job_id, pack_id, worker, attrs)

    def _emit_locked(self, name: str, ts_us: float, job_id: Optional[int],
                     pack_id: Optional[int], worker: Optional[int],
                     attrs: Dict[str, Any]) -> None:
        self.telemetry.count(name, attrs)
        if self.trace is not None:
            self.trace.record(name, ts_us, job_id=job_id, pack_id=pack_id,
                              worker=worker, **attrs)

    def shed(self, jobs: Sequence[DecodeJob], stage: str, ts_us: float,
             pack_id: Optional[int] = None) -> None:
        """Drop *jobs* for good: onto the shed list, counted by *stage*, one
        ``job.shed`` event each — the pool's own sheds, and the session's
        (brownout, retry give-up) in the same stream."""
        with self._lock:
            self._shed_locked(jobs, stage, ts_us, pack_id)

    def _shed_locked(self, jobs: Sequence[DecodeJob], stage: str,
                     ts_us: float, pack_id: Optional[int]) -> None:
        self._shed_jobs.extend(jobs)
        self.telemetry.record_shed(len(jobs), stage)
        if self.trace is not None:
            for job in jobs:
                self.trace.record(EVENT_JOB_SHED, ts_us, job_id=job.job_id,
                                  pack_id=pack_id, stage=stage)

    def _skip_locked(self, index: int) -> None:
        """Mark slot *index* empty so later packs keep crediting."""
        self._decoded[index] = None
        self._credit_ready_locked()

    def _release_locked(self, index: int, batch: DecodeBatch, stage: str,
                        park: bool) -> None:
        """Give up pack *index*: free its slot, then shed it or park it.

        A parked pack's jobs stay *unaccounted* (neither completed nor
        shed) until :meth:`take_failed` hands them to the caller — or
        :meth:`close` sheds whatever nobody collected.
        """
        self._skip_locked(index)
        if park:
            self._failed.append((index, batch, stage))
            self._emit_locked(EVENT_PACK_FAILED, batch.flush_time_us,
                              None, index, None,
                              {"stage": stage, "job_ids": list(batch.job_ids)})
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
        are idle by construction, and a pool whose workers were never
        started would wait forever — both return immediately.
        """
        if not self._executor.started:
            return
        with self._idle:
            while self._next_credit < self._next_submit:
                self._idle.wait()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def results(self) -> List[JobResult]:
        """Completed job results so far, ordered by job id."""
        with self._lock:
            return sorted(self._results, key=lambda r: r.job.job_id)

    @property
    def shed_jobs(self) -> List[DecodeJob]:
        """Jobs dropped by the shed policy, in submission order."""
        with self._lock:
            return list(self._shed_jobs)

    @property
    def steal_count(self) -> int:
        """Number of batches taken from another worker's shard so far."""
        return self._executor.shard_counters()[0]

    def worker_info(self) -> Dict[str, Any]:
        """One-shot snapshot of the pool's worker-level counters.

        ``steal_count``, per-shard routed totals (``shard_batches``) and
        current occupancy (``shard_depths``) — the numbers the service
        surfaces under ``telemetry["workers"]``.  Shard counters stay zero
        for inline and process pools, which have no shard queues.
        """
        steals, routed, depths = self._executor.shard_counters()
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
            if self._next_credit >= self._next_submit:
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
            self._results.extend(results)
            self.telemetry.record_batch(
                results, _pack_overhead_us(self.decoder, outcomes))
            if self.trace is not None:
                job_ids = [job.job_id for job in batch.jobs]
                self.trace.record(EVENT_PACK_START, start_us, pack_id=index,
                                  worker=machine, job_ids=job_ids)
                # The service split every member shares: the pack's one
                # programming/readout overhead vs its amortised compute.
                overhead_us = service_us - sum(
                    outcome.compute_time_us for outcome in outcomes)
                self.trace.record(EVENT_PACK_COMPLETE, finish_us,
                                  pack_id=index, worker=machine,
                                  job_ids=job_ids, service_us=service_us,
                                  overhead_us=overhead_us,
                                  anneal_us=service_us - overhead_us)
                for result in results:
                    self.trace.record(EVENT_JOB_COMPLETE, finish_us,
                                      job_id=result.job.job_id,
                                      pack_id=index, worker=machine,
                                      deadline_met=result.deadline_met)

    def __repr__(self) -> str:
        workers = ("inline" if not self.num_workers
                   else f"{self.num_workers} {self._executor.mode} workers")
        return (f"WorkerPool({workers}, capacity={self.queue_capacity}, "
                f"policy={self.overload_policy!r})")
