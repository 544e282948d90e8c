"""Compiled sweep-kernel backends for the Metropolis engine.

The engine's sweep kernel (colour-class, see :mod:`repro.annealer.engine`)
is exact single-spin-flip Metropolis dynamics whose *hot loop* is a Python
``for`` over colour classes; embedded (chain-coupled) problems additionally
interleave a cluster-flip sweep — a collective chain-reorientation move —
after every single-spin sweep.  Which implementation runs is a fact about
the box, not a setting:

* ``"cext"`` — a small C kernel compiled on first use with the system C
  compiler and driven through :mod:`ctypes`, wherever it builds and loads
  (:func:`cext_available`, the one probe the sweep and every pack stage
  read).  It draws from the caller's generator through the BitGenerator's
  published ``bitgen_t``, so it consumes the exact draw stream of the
  reference loops;
* ``"numpy"`` — the pure NumPy/Python reference loops in ``engine.py``
  (the behavioural definition of the dynamics), which a box without a C
  compiler runs.

The batch call is the boundary
------------------------------

Every anneal crosses into C as one call of :func:`pack_ice_batches` per
range of blocks: it takes a whole *pack* (the combined ``(R, blocks*P)``
spin matrix of a :class:`~repro.annealer.engine.BlockDiagonalSampler`)
through its ICE batches — no ICE is one noise-free batch — and per batch
and block runs the ICE draws (NumPy's ``random_normal`` from
``libnpyrandom.a``, which the build links), the gathers, the start and the
whole temperature schedule: per temperature and block, one single-spin
sweep followed by one cluster-flip sweep.  A single problem is a pack of
one block, and a sampler without clusters hands over an *empty*
:class:`ClusterDescriptor`, whose cluster pass draws nothing.  A machine
pack is *served* by the same call: before the first draw it programs the
blocks from the logical problems (``embed_pack``'s passes over a
collision-free plan) and after the last batch it reads them out — the
majority vote, the distinct reads and their energy operator (scipy's CSR
product, exactly) — into a :class:`PackReadOut`, so a warm pack crosses
into C once and a process serving on cext never imports scipy.  Each stage
is byte for byte the NumPy pass a box without a compiler runs.  Behind the
call, one large sequential block sweeps as two lane halves
(:func:`_lane_half_call`), else as the one-thread colour routine.

Draw-stream discipline
----------------------

Both backends make identical Metropolis *decisions* from identical draws:
every visited variable's uphill replicas draw one uniform each, in
ascending replica order, as the NumPy loops consume ``rng.random(count)``;
cluster sweeps draw one uniform per uphill (replica, cluster) pair in the
same cluster-major order.  The only possible divergence is a one-ulp
difference between the vectorised ``np.exp`` and libm's ``exp`` flipping
an acceptance whose uniform lands in that window (~1e-16 per uphill draw).
Every local field is summed afresh in the same ascending-column order on
both sides, the cluster flip-energy boundary in a defined member order,
and floating contraction is off in the C build, so the arithmetic matches
op for op.

The C kernels add three *exact* shortcuts, documented in ``_C_SOURCE``: a
squeeze test settles most uphill draws without ``exp``; the kernels sweep
*lane-major* (a block's replicas transposed, every move computing the
fields of all replicas of a spin at once, each lane still the reference
sum); and counter draws are valued in bulk by a vectorised Philox fill
(:func:`philox_lanes`).  No shortcut changes a decision, and each call
reports :class:`SweepWork` counters that guard them without a clock.

Counter mode and the cores
--------------------------

The ``rng=`` knob selects the *draw discipline* (:data:`RNG_MODES`).
``"sequential"`` makes a replica's next draw depend on how many draws
earlier replicas consumed; ``"counter"`` addresses every potential draw by
``(site, sweep, replica, move_tag)`` and values it by Philox4x32-10 under a
per-block key (:mod:`repro.annealer.counter`), which makes replica order
irrelevant.  A block draws from its own generator or key only, so one rule
spreads a pack over the cores, bit for bit, in either discipline: a batch
call of more than :data:`_SPLIT_SPINS` spins is one call per usable CPU
over contiguous block ranges (:func:`_shards`).  One large sequential
block splits its replicas into two lane halves whose uphill counts place
each half's draws in the stream (:func:`_lane_half_call`).

Compile cost
------------

The cext backend pays one ``cc -O2 -shared`` invocation, linking NumPy's
static ``libnpyrandom.a`` (no archive, no artefact).  :func:`warmup`
forces it; the samplers call it at construction, so no timed anneal pays
it.  The shared object is cached on disk keyed by a hash of the C source,
its build line and the archive's identity, so later processes (e.g. the
process-pool serving workers) only pay a ``dlopen``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import AnnealerError

#: Valid values of the ``rng=`` knob of the samplers: the stream-faithful
#: sequential Generator discipline (default, the reference) or the
#: order-independent Philox counter contract, whose draws are addressed.
RNG_MODES = ("sequential", "counter")

# --------------------------------------------------------------------------- #
# Availability probe (cached; monkeypatchable for fallback tests)
# --------------------------------------------------------------------------- #

_CEXT_STATE: Dict[str, object] = {"checked": False, "lib": None}


def cext_available() -> bool:
    """Whether the C artefact loads (a compiler built it, dlopen works): the
    one fact that picks C or NumPy for the sweep and every pack stage."""
    return _load_cext() is not None


def philox_lanes() -> int:
    """Philox evaluations per instruction of the cext counter kernels' draw
    fill on this CPU: 4 (AVX2), 2 (SSE2) or 1 (scalar; also without cext).
    Every width gives the same bits; this names what a timing ran at."""
    lib = _load_cext()
    return max((width for width in (2, 4) if lib is not None  # an empty span
                and lib.philox_fill_probe(width, *[0] * 7, None) == width),
               default=1)


def warmup() -> None:
    """Pay the artefact's one-time cost now: load it, compiling it when no
    cached build is on disk, so that no timed anneal does.  Samplers call
    this at construction; on a box without a compiler there is nothing to
    load."""
    _load_cext()


# --------------------------------------------------------------------------- #
# What crosses the compiled boundary
# --------------------------------------------------------------------------- #

class ClusterDescriptor(NamedTuple):
    """Flattened pack-level cluster metadata handed across the compiled boundary.

    The structure is built once per sampler and the two value matrices
    gathered per batch from the bound values by the batch call, so samplers
    rebound through ``refresh_values`` always sweep the current values.
    The structure arrays are *block-level* (member and edge indices address
    one block's ``(R, P)`` spin view) and shared by every block of the
    pack; ``data`` / ``edge_values`` stack the blocks' coupling values row
    per block.  A sampler without clusters hands over the *empty* descriptor
    (``cluster_starts == [0]``, ``(blocks, 0)`` value matrices): the kernels
    then run a zero-iteration cluster pass that draws nothing, so "no
    clusters" needs no entry point of its own.
    """

    #: Cluster members, cluster-major: ``members[cluster_starts[c]:
    #: cluster_starts[c+1]]`` are cluster ``c``'s variable indices.
    members: np.ndarray
    #: Ragged cluster delimiters, ``int64[C+1]``.
    cluster_starts: np.ndarray
    #: CSR triple of the stacked member local-field rows: row ``k`` maps a
    #: block's spins to the coupling field of ``members[k]`` (same values, in
    #: the same ascending-column order, as the reference cluster operators);
    #: ``data`` is the ``(blocks, nnz)`` value matrix over that structure.
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    #: Cluster-internal coupling edges (both endpoints in one cluster),
    #: cluster-major with ``edge_starts`` delimiting; their field
    #: contributions are double-counted through both endpoints and must be
    #: subtracted from the flip energy.
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_starts: np.ndarray
    #: Every block's coupling value of every internal edge, ``(blocks, E)``.
    edge_values: np.ndarray


class SweepWork(NamedTuple):
    """Work counts of one cext sweep dispatch: they repeat exactly for a
    seeded call, so tests guard the kernels' shortcuts without a clock."""

    #: Single-spin visits plus cluster flip offers.
    proposals: int
    #: Uniforms drawn (one per uphill proposal) — the stream length.
    draws: int
    #: Draws the squeeze test could not settle, which paid a libm ``exp``.
    exp_calls: int


def _ptr(array: np.ndarray) -> int:
    # A plain int is what a c_void_p parameter takes; the caller keeps alive.
    try:  # writable and C-contiguous: its buffer's address, 4x as quick
        return _address(_first_byte(array))
    except (TypeError, ValueError):  # read-only, strided or empty
        return array.ctypes.data


_address, _first_byte = ctypes.addressof, ctypes.c_char.from_buffer


#: ``PyCapsule_GetPointer``, bound privately (``ctypes.pythonapi``'s own
#: attribute is shared by the whole process); raises on a foreign capsule.
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))


def _rng_pointer_arrays(rngs):
    """The per-block ``bitgen_t *`` array of a sequential pack call: what
    each generator's BitGenerator publishes in ``.capsule`` for C and
    Cython extensions (``numpy/random/bitgen.h``) — state plus
    ``next_double`` / ``next_uint32``, which is all ``_C_SOURCE`` reads.
    The structs live in the BitGenerators; the caller keeps those alive."""
    return (ctypes.c_void_p * len(rngs))(*[
        _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")
        for rng in rngs])


def _lane_layout(num_replicas: int, size: int,
                 members: int) -> Tuple[int, int]:
    """``(lanes, doubles)`` of a cext colour call's lane scratch.  A block's
    replicas are one lane group padded to :data:`_LANE_WIDTH`, which takes
    ``size + 1 + 2 * members`` rows of ``lanes``: the transposed spins, the
    cluster boundaries, and the terms and prepared uniforms of a class as
    wide as all *members*."""
    lanes = -(-num_replicas // _LANE_WIDTH) * _LANE_WIDTH
    return lanes, (size + 1 + 2 * members) * lanes


#: CPUs this process may sweep a pack on (:func:`_usable_cpus`).
_USABLE_CPUS: Optional[int] = None
#: The helper-thread pool of sharded calls; a forked child starts its own.
_HELPERS: Dict[str, object] = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPERS.clear)


def _usable_cpus(cap: Optional[int] = None) -> int:
    """CPUs a pack shards over: the affinity mask (else
    ``os.cpu_count()``), read once; a *cap* lowers it for good."""
    global _USABLE_CPUS
    if _USABLE_CPUS is None:
        affinity = getattr(os, "sched_getaffinity", None)
        _USABLE_CPUS = len(affinity(0)) if affinity else os.cpu_count() or 1
    if cap is not None:
        _USABLE_CPUS = max(1, min(_USABLE_CPUS, cap))
    return _USABLE_CPUS


def _cext_colour_arguments(workspace: dict, buffers: tuple, structure: tuple,
                           lo: int, hi: int, rows=slice(None)) -> tuple:
    """The colour words of an argument block (``colour_call`` in
    ``_C_SOURCE``) over blocks ``[lo, hi)`` and spin *rows* of a batch call's
    *buffers* and *structure* (:func:`prepare_batches`), and its work
    out-array.

    The per-structure words live in *workspace*, a dict the caller keeps
    for as long as it keeps the structure arrays (a sampler's lifetime):
    ``row_of``, which maps a variable to its row of the class CSR, the
    addresses of every structure array, the work out-array, and — reused
    while large enough — the lane scratch (:func:`_lane_layout`).
    """
    spins, fields, values, class_data, edge_values, _ = buffers
    members, class_starts, indices, indptr, clusters, *_, temperatures = \
        structure
    num_blocks, size = hi - lo, fields.size // values.shape[0]
    spins = spins[rows, lo * size:hi * size]
    num_replicas = spins.shape[0]
    kept = workspace.get("structure")
    if kept is None:
        row_of = np.full(size, -1, dtype=np.int64)
        row_of[members] = np.arange(members.size)
        if clusters.members.size and row_of[clusters.members].min() < 0:
            raise AnnealerError(
                "every cluster member must belong to a colour class")
        work = np.empty(3, dtype=np.int64)
        kept = workspace["structure"] = (
            (_ptr(members), _ptr(class_starts), class_starts.size - 1),
            (_ptr(indices), _ptr(indptr), _ptr(row_of), indices.size),
            (_ptr(clusters.members), _ptr(clusters.cluster_starts),
             _ptr(clusters.edge_i), _ptr(clusters.edge_j),
             _ptr(clusters.edge_starts)),
            clusters.cluster_starts.size - 1, work,
            # The pointers above are only as alive as these.
            (members, class_starts, indices, indptr, row_of, clusters))
    classes, csr, cluster_arrays, num_clusters, work, _ = kept
    lanes, doubles = _lane_layout(num_replicas, size, members.size)
    scratch = workspace.get("lanes")
    if scratch is None or scratch[0].size < doubles:
        array = np.empty(doubles)
        scratch = workspace["lanes"] = (array, _ptr(array))
    return (
        *_row_strided(spins), num_replicas, num_blocks, size,
        _ptr(fields[lo * size:hi * size]), *classes, _ptr(class_data[lo:hi]),
        *csr, scratch[1], lanes, *cluster_arrays,
        _ptr(edge_values[lo:hi]), num_clusters, edge_values.shape[1],
        _ptr(temperatures), temperatures.size), work


def _helper_pool():
    """The helper pool of this process (a forked child starts its own)."""
    if not _HELPERS:
        from concurrent.futures import ThreadPoolExecutor
        _HELPERS.setdefault("pool", ThreadPoolExecutor(_usable_cpus() - 1))
    return _HELPERS["pool"]


def _helpers(workspace: dict, count: int) -> list:
    """*count* sub-workspaces of *workspace*, for the calls helpers run."""
    spaces = workspace.setdefault("shards", [])
    spaces += [{} for _ in range(count - len(spaces))]
    return spaces[:count]


#: Spins (blocks × block size × replicas) above which a batch call goes
#: to two or more threads, as block ranges or, one block, lane halves:
#: below it, handing work to a helper costs more than the second core buys.
#: Sharded ÷ one-thread time per call, blocks × block size × 25 replicas:
#: 4 × 4 0.73×, 4 × 6 0.85×, 4 × 8 0.93×, 8 × 6 0.88×, 4 × 18 1.12×; lane
#: halves of Chimera BPSK decodes: 48 × 25 0.89×, 80 × 25 1.13× (ungated,
#: ``batch1_qpsk``, 18 × 25, fell 1598 → 1232 jobs/s).
_SPLIT_SPINS = 1500
#: Nanoseconds a half may yield away, past its spins, in one call: waiting
#: for its helper at the caller's first handshake (then a decline) or for
#: the other half's counts (then a stall, the split aborted).  Beside a busy
#: thread (an unpinned OpenBLAS worker) a split without it took 60-80 ms
#: where one thread takes 5.
_STALL_BUDGET = 2_000_000
#: Calls the second stall in a row stands down: 8, four times as many each
#: time up to 512 while stalls go on, 8 again after 4 clean splits in a row
#: (:func:`_note_split`).  A quiet host's noise rarely triggers twice.
_STAND_DOWN_CALLS, _STAND_DOWN_RESET = (8, 512), 4
_STALL = {"clean": _STAND_DOWN_RESET, "rest": _STAND_DOWN_CALLS[0]}
#: What became of eligible one-block calls: counts any process can print.
#: It and ``_STALL`` are the process's, shared by every worker thread.
LANE_SPLITS: Dict[str, int] = dict.fromkeys(
    ("splits", "stalls", "declines", "stand_downs", "resting"), 0)
_SPLIT_LOCK = threading.Lock()
#: ``sync`` words, what a call's claim can end as and the batch call's sweep
#: modes (``_C_SOURCE``'s enums).
_CLAIM, _BUDGET, _WORDS = 0, 1, 24
_WHOLE, _ABORTED, _COMMITTED = 2, 3, 4
_SWEEP_START, _SWEEP_DRAWN, _SWEEP_ALL, _SWEEP_HALF = 0, 1, 2, 3
_OUTCOMES = {_WHOLE: "declines", _ABORTED: "stalls", _COMMITTED: "splits"}


def _lane_cut(num_replicas: int) -> int:
    """The follower's first replica.  The follower takes whole lane vectors,
    about half the replicas, the leader the rest and the pad lanes: a
    slightly heavier leader never waits for the follower (25 replicas: cut
    13 1.47×, 12 1.46×, 16 1.36× the one-thread call)."""
    follower = num_replicas // (2 * _LANE_WIDTH) * _LANE_WIDTH
    return max(1, min(num_replicas - 1, num_replicas - follower))


def _note_split(outcome: int) -> None:
    """Count a split by its claim's *outcome*: committed, a stall (aborted)
    or a decline (taken whole).  The last two say a core was busy: one
    right after another stands the next eligible calls down, four times as
    many each time, until enough clean splits in a row say the cores are
    free."""
    stalled = outcome != _COMMITTED
    with _SPLIT_LOCK:
        LANE_SPLITS[_OUTCOMES[outcome]] += 1
        rest = _STALL["rest"]
        if stalled and not _STALL["clean"]:
            LANE_SPLITS["resting"] = rest
            rest = min(4 * rest, _STAND_DOWN_CALLS[1])
        clean = 0 if stalled else _STALL["clean"] + 1
        _STALL.update(clean=clean, rest=_STAND_DOWN_CALLS[0]
                      if clean >= _STAND_DOWN_RESET else rest)


def _lane_half_call(lib, blocks: np.ndarray, rng, arguments: tuple) -> bool:
    """A drawn one-block sequential batch swept as two lane halves, one
    ``pack_ice_batches`` call (*arguments* after the block) over each of the
    ``(2, words)`` *blocks* (:func:`_lane_half_blocks`) with fresh sync
    words: replicas ``[0, cut)`` on this thread, the rest on a helper, each
    from a copy of *rng*'s PCG64 that C jumps to the half's draw offsets;
    *rng* is left where the one-thread call leaves it, as are the spins,
    rows and :class:`SweepWork`.  False (make the one-thread call) when the
    call stands down, no helper had started by the caller's first handshake
    or a half waited past its budget."""
    with _SPLIT_LOCK:
        if LANE_SPLITS["resting"]:
            LANE_SPLITS["resting"] -= 1
            LANE_SPLITS["stand_downs"] += 1
            return False
    state = rng.bit_generator.state
    pcg = state["state"]
    raw = np.zeros(blocks.size + 40, dtype=np.int64)
    halves = raw[:blocks.size].reshape(blocks.shape)
    halves[:] = blocks
    sync = raw[blocks.size:]
    sync = sync[(-sync.ctypes.data % 64) // 8:][:32]  # on cache-line bounds
    halves[:, -2] = _ptr(sync)
    sync[_BUDGET] = _STALL_BUDGET
    words = sync[_WORDS:_WORDS + 4].view(np.uint64)
    words[:] = [pcg["state"] >> 64, pcg["state"] & 2**64 - 1,
                pcg["inc"] >> 64, pcg["inc"] & 2**64 - 1]
    # The follower's block is a .ctypes, which holds raw, its sync words
    # included: a helper that starts after the caller took the call whole
    # must still read its own claim.  Its future goes unread: its arguments
    # are the caller's kinds, so a conversion error raises in the caller's
    # own call, and C cannot fail.
    _helper_pool().submit(lib.pack_ice_batches, halves[1].ctypes, *arguments)
    lib.pack_ice_batches(_ptr(halves[0]), *arguments)
    outcome = int(sync[_CLAIM])
    _note_split(outcome)
    if outcome != _COMMITTED:
        return False
    pcg["state"] = int(words[0]) << 64 | int(words[1])
    rng.bit_generator.state = state
    return True


def _shards(spins, blocks: int) -> int:
    """Block ranges of a cext colour call, either discipline: ``min(blocks,
    usable CPUs)`` over :data:`_SPLIT_SPINS` spins, else 1."""
    return min(blocks, _usable_cpus()) if spins.size > _SPLIT_SPINS else 1


# --------------------------------------------------------------------------- #
# The NumPy path's two starts
#
# A box without the artefact starts a batch from one of these, then sweeps
# it through the engine's loops (one sweep for both disciplines): the
# reference the batch call reproduces bit for bit.  Under the counter
# discipline uniforms come from the Philox counter contract of
# repro.annealer.counter instead of a shared Generator, so replicas are
# independent and their draws addressed, whatever order they sweep in.
# --------------------------------------------------------------------------- #

def sequential_initial_spins(rngs, num_replicas: int, size: int
                             ) -> np.ndarray:
    """The sequential discipline's initial ``(R, blocks*P)`` spin matrix:
    block ``b``'s columns are ``2 * rngs[b].integers(0, 2, (R, P)) - 1``
    (the stream ``Generator.choice([-1, 1])`` consumes).  The artefact's
    ``sequential_initial_spins`` draws the same bits through each
    generator's ``next_uint32``, inside the batch call."""
    spins = np.empty((num_replicas, len(rngs) * size))
    for b, rng in enumerate(rngs):
        spins[:, b * size:(b + 1) * size] = rng.integers(
            0, 2, size=(num_replicas, size))
    spins *= 2.0
    spins -= 1.0
    return spins


def counter_initial_spins(keys, num_replicas: int, size: int) -> np.ndarray:
    """The counter discipline's initial ``(R, blocks*P)`` spin matrix: block
    ``b``'s columns are :func:`repro.annealer.counter.counter_initial_spins`
    under ``keys[b]``.  The artefact values the same matrix with its
    kernels' Philox fill, inside the batch call."""
    from repro.annealer.counter import counter_initial_spins as block
    return np.concatenate([block(key, num_replicas, size) for key in keys],
                          axis=1)


class PackReadOut:
    """A pack's read-out in arrays its owner keeps, and the artefact's
    argument block over them (``serve_call`` in ``_C_SOURCE``, which says
    what each array holds): for ``B`` problems of ``L < 64`` variables and
    ``S`` samples, the ``(B, S, L)`` logical spins ``values``, ``counts``
    (broken chains, then ties), and per problem *b* its ``found[b]``
    distinct reads at slots ``b * S`` on of ``first`` and ``occurrences``,
    with their operator product (byte for byte scipy's ``csr_matrix @
    D_b.T`` over *template*) at ``b * S * L`` of ``products``.  A served
    pack adds its programming: the collision-free *plan*, *settings*
    ``(base scale, coupler range, field range)`` and the ``(B, P)``
    *fields* and ``(B, E)`` *couplers* the batch call writes.
    """

    def __init__(self, template, values: np.ndarray, plan=None,
                 settings=(0.0, (0.0, 0.0), (0.0, 0.0)), fields=None,
                 couplers=None):
        problems, samples, variables = values.shape
        self.values = values
        self.counts = np.zeros((2, problems), dtype=np.int64)
        self.first, self.occurrences = np.empty((2, problems * samples),
                                                dtype=np.int64)
        self.found = np.empty(problems, dtype=np.int64)
        self.products = np.empty(problems * samples * variables)
        #: Words of the read-out's scratch, per thread that runs one.
        self.scratch_words = (4 + variables) * samples
        self._scratch = np.empty(self.scratch_words, dtype=np.int64)
        self.sources = (0, 0)  # the logical fields' and couplings' addresses
        self.physical = 0 if plan is None else plan.num_physical
        plan_words = (0, 0, 0, 0, 0, 0) if plan is None else (
            plan.num_physical, _ptr(plan.logical_index),
            _ptr(plan.chain_lengths), plan.num_chain_couplers,
            _ptr(plan.chain_members), _ptr(plan.chain_bounds))
        words = np.array([
            problems, variables, template.indices.size // 2, *plan_words[:4],
            *[0] * 5, 0 if fields is None else _ptr(fields),
            0 if couplers is None else _ptr(couplers), *plan_words[4:],
            *map(_ptr, template), samples, *map(_ptr, (
                values, self.counts, self.first, self.occurrences,
                self.found, self.products))], dtype=np.int64)
        base, (coupler_min, coupler_max), (field_min, field_max) = settings
        words[7:12].view(np.float64)[:] = (base, coupler_min, coupler_max,
                                           field_min, field_max)
        self.words = _ptr(words)
        # The addresses above are only as alive as these.
        self._kept = (words, template, plan, fields, couplers)

    def read(self, physical: Optional[np.ndarray] = None) -> int:
        """The read-out of the whole pack in one call: the vote of the
        ``(S, B * P)`` *physical* samples first, unless ``None`` (``values``
        then hold the logical spins); then, without ties, the distinct
        reads and their products.  0 when done, 1 when a chain tied (after
        the vote), -1 when a read is not all spins."""
        problems, samples, _ = self.values.shape
        if physical is not None and not (
                physical.dtype == np.int8 and physical.flags.c_contiguous
                and physical.shape == (samples, problems * self.physical)):
            raise AnnealerError("read needs contiguous (S, B * P) int8 spins")
        return _load_cext().pack_read_out(
            self.words, None if physical is None else _ptr(physical),
            self.sources[1], _ptr(self._scratch), 0, len(self.found))


def read_out(template, raw: np.ndarray,
             values: np.ndarray) -> Optional[PackReadOut]:
    """The read-out of a ``(problems, reads, L)`` ``int8`` array of logical
    spins, ``0 < L < 64``, against the ``(problems, K)`` coupling *values*
    over *template*, one artefact call; ``None`` when a read is not all
    ``±1``."""
    raw = np.ascontiguousarray(raw, dtype=np.int8)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if (raw.ndim != 3 or not 0 < raw.shape[2] < 64
            or template.indptr.size != raw.shape[2] + 1
            or values.shape != (raw.shape[0], template.indices.size // 2)):
        raise AnnealerError(
            "read_out needs (problems, reads, L) spins, 0 < L < 64, over "
            "an L-variable template and (problems, K) values over its keys")
    out = PackReadOut(template, raw)
    out.sources = (0, _ptr(values))
    out._kept += (values,)
    return out if out.read() == 0 else None


# --------------------------------------------------------------------------- #
# A pack's ICE batches: one cext call per range of blocks
# --------------------------------------------------------------------------- #

def _batch_buffers(blocks: int, size: int, batch: int, values: int,
                   class_nnz: int, edges: int) -> tuple:
    """What :func:`pack_ice_batches` fills per batch, one set per prepared
    call: the spins, perturbed fields and couplings, gathered class and
    internal-edge values, and the counter keys."""
    return (np.empty((batch, blocks * size)), np.empty(blocks * size),
            np.empty((blocks, values)), np.empty((blocks, class_nnz)),
            np.empty((blocks, edges)), np.empty(blocks, dtype=np.uint64))


def _batch_block(space: dict, buffers: tuple, lo: int, hi: int,
                 counter: bool, structure: tuple, settings: tuple) -> tuple:
    """Range ``[lo, hi)``'s argument block of ``pack_ice_batches`` (the C
    ``batch_call``) — over the *buffers*, the *structure* and the
    *settings*: the ICE array (or ``None``), the zero check and the served
    pack's :class:`PackReadOut` (or ``None``) — as ``(words, work
    out-array, what must outlive the block)``."""
    ice, check_zero, serve = settings
    spins, _, values, _, _, keys = buffers
    class_edges, internal_edges = structure[5:7]
    colour, work = _cext_colour_arguments(space, buffers, structure, lo, hi)
    scratch = None if serve is None else np.empty(serve.scratch_words,
                                                  dtype=np.int64)
    words = np.array([
        *colour, spins.shape[0], values.shape[1], _ptr(class_edges),
        _ptr(internal_edges), _ptr(values[lo:hi]), spins.shape[1],
        _ptr(keys[lo:hi]) if counter else 0, _ptr(work), lo,
        0 if ice is None else _ptr(ice), check_zero,
        0 if serve is None else serve.words,
        0 if scratch is None else _ptr(scratch), 0, 0], dtype=np.int64)
    return words, work, (buffers, space["lanes"], structure, settings, scratch)


def _lane_half_blocks(workspace: dict, words: np.ndarray, buffers: tuple,
                      structure: tuple, rows: int) -> tuple:
    """A one-block batch of *rows* replicas as two lane halves cut at
    :func:`_lane_cut`: the range's block *words* over each half's spin rows
    and lane scratch, and which half (the sync words' address is a split's
    own, :func:`_lane_half_call`) — as ``((2, words) blocks, what must
    outlive them)``."""
    cut = _lane_cut(rows)
    blocks = np.tile(words, (2, 1))
    spaces = [workspace, *_helpers(workspace, 1)]
    for half, (space, part) in enumerate(zip(spaces, (slice(cut),
                                                      slice(cut, rows)))):
        colour, _ = _cext_colour_arguments(space, buffers, structure, 0, 1,
                                           part)
        blocks[half, :len(colour)] = colour
        blocks[half, -1] = half
    return blocks, [space["lanes"] for space in spaces]


def pack_ice_batches(prepared: tuple, physical: np.ndarray,
                     linear: np.ndarray, values: np.ndarray, rngs,
                     fallback) -> Optional[SweepWork]:
    """A pack's anneals as ICE batches, every batch in C: one call of the
    artefact's ``pack_ice_batches`` per range of blocks (:func:`_shards`),
    each running all of its batches on its own thread, as *prepared*
    (:func:`prepare_batches`).  *linear* and *values* are the
    ``(blocks*P,)`` fields and ``(blocks, E)`` couplings; batch *k* is
    rows ``k * batch_size`` on of the ``int8`` *physical*.  Per batch
    every block draws from its generator of *rngs*: its field then
    coupling ICE shifts, counter key, start and sweeps —
    ``ICEModel.perturb_pack`` then one ``anneal``.  A batch of a lane-half
    block is one call for its draws and start, then one per half
    (:func:`_lane_half_call`), else one for its sweep.  With the zero check
    a batch whose perturbed couplings hold an exact zero is not swept:
    ``fallback(fields, couplings, blocks, rows, rngs)`` anneals that slice
    problem by problem (copy the buffers it gets) into its rows, and the
    range resumes.  Returns the last swept batch's :class:`SweepWork`,
    summed over the ranges (zeros for a range that swept none).

    A served pack (*prepared* holds its :class:`PackReadOut`) is programmed
    from the logical ``(B, L)`` *linear* and ``(B, K)`` *values* before the
    first draw (or ``None`` returns, nothing drawn, when a coupling scales
    to ``0.0``) and read out by the call that sweeps a range's last batch,
    else (a fallback last) by one :meth:`PackReadOut.read`.
    """
    buffers, halves, ranges, _, out, batch_size = prepared
    lib, num_anneals = _load_cext(), physical.shape[0]
    generators = _rng_pointer_arrays(rngs)
    _, fields, perturbed, *_ = buffers
    sources = (_ptr(linear), _ptr(values))
    if out is not None:
        out.sources = sources
    size = fields.size // len(rngs)
    batches = -(-num_anneals // batch_size)
    target = _ptr(physical)

    def call(block: int, batch: int, stop: int,
             sweep: int = _SWEEP_ALL) -> int:
        return lib.pack_ice_batches(block, *sources, target, num_anneals,
                                    batch, stop, sweep, generators)

    def halved(block: int, batch: int, stop: int) -> int:
        for first in range(batch, stop):
            pair = halves[first + 1 == batches]
            done = call(block, first, first + 1,
                        _SWEEP_ALL if pair is None else _SWEEP_START)
            if done <= first:
                return done
            if pair is not None and not _lane_half_call(
                    lib, pair[0], rngs[0], (*sources, target, num_anneals,
                                            first, done, _SWEEP_HALF,
                                            generators)):
                call(block, first, done, _SWEEP_DRAWN)
        return stop

    run = call if halves is None else halved

    def cancelled(lo: int, hi: int, batch: int) -> None:
        start = batch * batch_size
        rows = min(batch_size, num_anneals - start)
        physical[start:start + rows, lo * size:hi * size] = fallback(
            fields[lo * size:hi * size].reshape(hi - lo, size),
            perturbed[lo:hi], slice(lo, hi), rows, rngs)

    for *_, work in ranges:  # the C call writes a batch's work it sweeps
        work.fill(0)
    pool = _helper_pool() if len(ranges) > 1 else None  # not kept: forks
    rest = [pool.submit(run, block, 0, batches)
            for _, _, block, _ in ranges[1:]]
    try:
        stops = [run(ranges[0][2], 0, batches)]
    finally:
        stops += [future.result() for future in rest]
    if stops[0] < 0:  # every range found the coupling that scales to 0.0
        return None
    read = True
    for (lo, hi, block, _), stop in zip(ranges, stops):
        while stop < batches:
            cancelled(lo, hi, stop)
            stop += 1
            if stop < batches:
                stop = run(block, stop, batches)
            else:
                read = False
    if out is not None and not read:
        out.read(physical)
    work = ranges[0][3] if len(ranges) == 1 else sum(
        work for *_, work in ranges)
    return SweepWork(*work.tolist())


def _lane_halves(spins, rows: int, counter: bool, rngs) -> bool:
    """Whether a one-block batch of *rows* replicas sweeps as lane halves
    (:func:`_lane_half_call`): sequential, PCG64, over the split size."""
    return (not counter and len(rngs) == 1 < rows
            and _shards(spins[:rows], 2) > 1
            and type(rngs[0].bit_generator) is np.random.PCG64)


def prepare_batches(workspace: dict, shape: Tuple[int, int],
                    num_values: int, structure: tuple, rngs,
                    batch_size: int, ice, rng_mode: str,
                    out=None) -> tuple:
    """What :func:`pack_ice_batches` decides once per pack shape — the
    ``(anneals, blocks*P)`` *shape* of its out-array: its buffers, a
    one-block pack's lane halves (:func:`_lane_half_blocks`) of a whole
    batch and of the last batch — each ``None`` where that batch stays on
    one thread — or ``None``, the block ranges ``(lo, hi, argument block,
    work)`` (:func:`_shards`), what they point to, *out* (a served pack's
    :class:`PackReadOut`) and the batch size.  *structure* is
    ``(members, class_starts, indices, indptr, clusters, class_edges,
    internal_edges, temperatures)``: the colour structure, the columns of
    the ``(blocks, num_values)`` values its slots hold, and the contiguous
    float64 schedule; *ice* is the :class:`~repro.annealer.ice.ICEModel`
    (``None``: no zero check).  The caller keeps it (a sampler's route,
    :meth:`BlockDiagonalSampler._route`) with *workspace*."""
    class_edges, internal_edges = structure[5:7]
    check_zero, counter = ice is not None, rng_mode == "counter"
    ice = None if ice is None or not ice.enabled else (
        ice.linear_mean, ice.linear_std, ice.quadratic_mean, ice.quadratic_std)
    (num_anneals, width), blocks = shape, len(rngs)
    # Two blocks sharing a bit generator draw in block order: one call.
    shared = blocks > 1 and len(set(_rng_pointer_arrays(rngs))) < blocks
    buffers = _batch_buffers(blocks, width // blocks, batch_size, num_values,
                             class_edges.size, internal_edges.size)
    spins = buffers[0]
    settings = (None if ice is None else np.array(ice, dtype=np.float64),
                check_zero, out)
    rows = min(batch_size, num_anneals)
    split = _lane_halves(spins, rows, counter, rngs)
    shards = 1 if shared or split else _shards(spins[:rows], blocks)
    bounds = [blocks * k // shards for k in range(shards + 1)]
    spaces = _helpers(workspace, shards - 1) if shards > 1 else []
    made = [(lo, hi, _batch_block(space, buffers, lo, hi, counter, structure,
                                  settings))
            for space, lo, hi in zip([workspace, *spaces], bounds, bounds[1:])]
    halves = None
    if split:  # one range, whose block the halves copy
        words = made[0][2][0]
        last = num_anneals - (num_anneals - 1) // batch_size * batch_size
        pairs = {count: _lane_half_blocks(workspace, words, buffers,
                                          structure, count)
                 if _lane_halves(spins, count, counter, rngs) else None
                 for count in {rows, last}}
        halves = pairs[rows], pairs[last]
    return (buffers, halves,
            [(lo, hi, _ptr(words), work) for lo, hi, (words, work, _) in made],
            [block for *_, block in made], out, batch_size)


# --------------------------------------------------------------------------- #
# cext backend: C source, on-disk compile cache, ctypes bindings
# --------------------------------------------------------------------------- #

#: Replicas per lane vector of the C colour kernels (``LANE_WIDTH`` there);
#: lane groups are padded to a multiple of it.  4 doubles are two SSE2 or
#: one AVX2 register; 2 and 8 measured 10-28% slower.
_LANE_WIDTH = 4

_C_SOURCE = f"#define LANE_WIDTH {_LANE_WIDTH}" + r"""
#include <math.h>
#include <sched.h>
#include <stdbool.h>
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <time.h>

/* The per-move functions below are inlined into each of the batch call's
   sweeps, one per draw source, so their work counters and loop invariants
   live in registers.  A lane half's sweep stays a function of its own:
   inlined into pack_ice_batches, a 624-qubit block's decode ran ~3 %
   slower (interleaved in-process pairs). */
#ifdef __GNUC__
#define MOVE static inline __attribute__((always_inline))
#define OUT_OF_LINE static __attribute__((noinline))
#else
#define MOVE static inline
#define OUT_OF_LINE static
#endif

/* ------------------------------------------------------------------------ *
 * The draw seam: the only place the two disciplines differ.
 *
 * Sequential kernels draw through the next_double of the bitgen_t a
 * block's BitGenerator publishes in `.capsule` (NumPy's extension point
 * for C), advancing the caller's Generator in place: exactly its
 * rng.random() stream.  Counter kernels value every potential draw by
 * Philox4x32-10 addressed by (site, sweep, replica, move_tag) under a
 * per-block key (repro/annealer/counter.py), so replicas share no state
 * and may run in parallel.  Every move is written once, against a
 * draw_source.  A lane move *prepares* its draws — every (site, lane)
 * Philox uniform valued at once, a vector register's slots at a time; a
 * no-op for a Generator — then reads them.  A third source, a lane half's own PCG64 (below), prepares
 * by finding out where its draws start.
 * ------------------------------------------------------------------------ */
typedef double (*next_double_fn)(void *state);

/* numpy/random/bitgen.h, the struct NumPy publishes for C extensions. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    next_double_fn next_double;
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* The ten Philox4x32-10 rounds, written once for every T that keeps each
   32-bit counter word in the low half of a 64-bit slot: uint64_t, or a
   vector of them.  MUL(word, m) is the 64-bit product of the slot's low
   half and m and reads nothing else (pmuludq's contract), so what the xors
   leave in the high halves is never seen; the output words are the low
   halves of c0 and c1.  keys[2r], keys[2r + 1] are round r's: they do not
   depend on the counter, so a fill expands them once. */
#define PHILOX_SPLAT(T, word) ((T){0} + (word))
#define PHILOX_KEYS(T, keys, k0, k1)                                        \
    T keys[20];                                                             \
    _Pragma("GCC unroll 10")                                                \
    for (uint32_t r_ = 0; r_ < 10; ++r_) {                                  \
        keys[2 * r_] = PHILOX_SPLAT(T, (k0) + r_ * 0x9E3779B9u);            \
        keys[2 * r_ + 1] = PHILOX_SPLAT(T, (k1) + r_ * 0xBB67AE85u);        \
    }
#define PHILOX_ROUNDS(T, MUL, c0, c1, c2, c3, keys)                         \
    _Pragma("GCC unroll 10")                                                \
    for (int r_ = 0; r_ < 10; ++r_) {                                       \
        const T p0_ = MUL(c0, 0xD2511F53u), p1_ = MUL(c2, 0xCD9E8D57u);     \
        c0 = (p1_ >> 32) ^ c1 ^ keys[2 * r_];                               \
        c1 = p1_;                                                           \
        c2 = (p0_ >> 32) ^ c3 ^ keys[2 * r_ + 1];                           \
        c3 = p0_;                                                           \
    }
#define PHILOX_MUL_1(word, m) ((uint64_t)(uint32_t)(word) * (m))

static inline double philox_uniform(uint32_t site, uint32_t sweep,
                                    uint32_t replica, uint32_t tag,
                                    uint32_t k0, uint32_t k1)
{
    uint64_t c0 = site, c1 = sweep, c2 = replica, c3 = tag;
    PHILOX_KEYS(uint64_t, keys, k0, k1)
    PHILOX_ROUNDS(uint64_t, PHILOX_MUL_1, c0, c1, c2, c3, keys)
    const uint64_t bits = (c0 << 32) | (uint32_t)c1;
    return (double)(bits >> 11) * (1.0 / 9007199254740992.0);
}

/* A fill values out[(site - begin) * lanes + lane] = philox_uniform(site,
   sweep, first_replica + lane, tag, k0, k1) over the sites [begin, end);
   lanes is a multiple of LANE_WIDTH, out need not be aligned. */
typedef struct {
    uint32_t begin, end, sweep, first_replica, tag, k0, k1;
    int64_t lanes;
} philox_span;

static void philox_fill_1(const philox_span *span, double *out)
{
    for (uint32_t site = span->begin; site < span->end; ++site)
        for (int64_t l = 0; l < span->lanes; ++l)
            *out++ = philox_uniform(site, span->sweep,
                                    span->first_replica + (uint32_t)l,
                                    span->tag, span->k0, span->k1);
}

/* The fill N slots wide.  uint64 -> [0, 1) exactly as above: each word
   enters the mantissa of 2^52 (`exponent`) and leaves as a double,
   x0 * 2^21 + (x1 >> 11) is an integer below 2^53, the scale a power of 2. */
#define PHILOX_FILL(NAME, TARGET, N, MUL)                                   \
TARGET static void NAME(const philox_span *span, double *out)               \
{                                                                           \
    typedef uint64_t uvec __attribute__((vector_size(8 * N)));              \
    typedef double dvec __attribute__((vector_size(8 * N)));                \
    const uvec exponent = PHILOX_SPLAT(uvec, 0x4330000000000000u);          \
    uvec iota;                                                              \
    for (int i = 0; i < N; ++i)                                             \
        iota[i] = i;                                                        \
    PHILOX_KEYS(uvec, keys, span->k0, span->k1)                             \
    for (uint32_t site = span->begin; site < span->end; ++site)             \
        for (int64_t l = 0; l < span->lanes; l += N, out += N) {            \
            uvec c0 = PHILOX_SPLAT(uvec, site);                             \
            uvec c1 = PHILOX_SPLAT(uvec, span->sweep);                      \
            uvec c2 = iota + (span->first_replica + (uint32_t)l);           \
            uvec c3 = PHILOX_SPLAT(uvec, span->tag);                        \
            PHILOX_ROUNDS(uvec, MUL, c0, c1, c2, c3, keys)                  \
            const dvec x0 = (dvec)((c0 & 0xFFFFFFFFu) | exponent) - 0x1p52; \
            const dvec x1 = (dvec)((c1 & 0xFFFFFFFFu) >> 11 | exponent)     \
                            - 0x1p52;                                       \
            const dvec u = (x0 * 0x1p21 + x1) * 0x1p-53;                    \
            memcpy(out, &u, sizeof(u));                                     \
        }                                                                   \
}

/* Two slots with SSE2 (the x86-64 baseline), four behind target("avx2") on
   a CPU that has it (the compiler runtime's once-per-process probe, so one
   artefact runs on any x86-64); elsewhere the scalar loop. */
#if defined(__SSE2__) && defined(__GNUC__)
#include <immintrin.h>
#define PHILOX_MUL_2(words, m) \
    ((uvec)_mm_mul_epu32((__m128i)(words), _mm_set1_epi64x(m)))
#define PHILOX_MUL_4(words, m) \
    ((uvec)_mm256_mul_epu32((__m256i)(words), _mm256_set1_epi64x(m)))
PHILOX_FILL(philox_fill_2, , 2, PHILOX_MUL_2)
PHILOX_FILL(philox_fill_4, __attribute__((target("avx2"))), 4, PHILOX_MUL_4)
#define PHILOX_WIDTH (__builtin_cpu_supports("avx2") ? 4 : 2)
#define SPIN_PAUSE() _mm_pause()
#else
#define PHILOX_WIDTH 1
#define SPIN_PAUSE() ((void)0)
#define philox_fill_2 philox_fill_1  /* never selected: names for below */
#define philox_fill_4 philox_fill_1
#endif

static inline void philox_fill(const philox_span *span, double *out)
{
    (PHILOX_WIDTH == 4 ? philox_fill_4
     : PHILOX_WIDTH == 2 ? philox_fill_2 : philox_fill_1)(span, out);
}

/* Test hook: the fill at a caller-chosen width; -1 for a width this build
   or CPU cannot run (the kernels use the widest that can). */
int64_t philox_fill_probe(int64_t width, int64_t begin, int64_t end,
                          int64_t sweep, int64_t first_replica, int64_t tag,
                          uint64_t key, int64_t lanes, double *out)
{
    const philox_span span = {
        (uint32_t)begin, (uint32_t)end, (uint32_t)sweep,
        (uint32_t)first_replica, (uint32_t)tag, (uint32_t)key,
        (uint32_t)(key >> 32), lanes};
    if ((width != 1 && width != 2 && width != 4) || width > PHILOX_WIDTH)
        return -1;
    (width == 4 ? philox_fill_4
     : width == 2 ? philox_fill_2 : philox_fill_1)(&span, out);
    return width;
}

/* ------------------------------------------------------------------------ *
 * One block on two threads: lane halves (sequential discipline).
 *
 * Inside a move a block's draws are lane-major and every lane's delta is
 * known before the first decision.  So the leader, half 0 (lanes [0, cut)),
 * takes each move's first draws and the follower, half 1, the rest; each
 * decides on its own thread, in its own scratch, from its own copy of the
 * block's PCG64 (NumPy's 128-bit LCG with XSL-RR output, whose next_double
 * never touches the buffered half-word) jumped to where its draws start.
 * They share `sync`: line 0 the claim and the wait budget, line 1 + h
 * half h's move count and last RING counts, line 3 the PCG64 words {state
 * high, state low, inc high, inc low} — the follower's final state once it
 * is done — the done flag and the follower's work.  The claim settles the
 * call: the helper claims it (SPLIT) or the caller, finding no helper at
 * its first handshake, takes it WHOLE; a half out of wait budget ABORTS it
 * unless the other half has COMMITTED it, finished, to the spins.
 * ------------------------------------------------------------------------ */
enum { SYNC_LINE = 8, CLAIM = 0, BUDGET = 1, PUBLISHED = 0,
       COUNTS = 1, RING = 4, WORDS = 3 * SYNC_LINE, DONE = WORDS + 4,
       FOLLOWER_WORK = DONE + 1, SPIN_LIMIT = 1 << 12 };
enum { CLAIM_OPEN, CLAIM_SPLIT, CLAIM_WHOLE, CLAIM_ABORTED, CLAIM_COMMITTED };

#ifdef __SIZEOF_INT128__
#define LANE_HALVES 1
typedef unsigned __int128 pcg128_t;
#define PCG128(high, low) (((pcg128_t)(high) << 64) | (uint64_t)(low))
#define PCG64_MULTIPLIER PCG128(0x2360ED051FC65DA4ULL, 0x4385DF649FCCF645ULL)

static inline double pcg64_next_double(pcg128_t *state, pcg128_t inc)
{
    const pcg128_t s = *state = *state * PCG64_MULTIPLIER + inc;
    const uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    const unsigned rot = (unsigned)(s >> 122);
    return (double)(((x >> rot) | (x << (-rot & 63u))) >> 11)
           * (1.0 / 9007199254740992.0);
}

/* The state `delta` steps on, in O(log delta) (Brown's LCG jump-ahead). */
static pcg128_t pcg64_advance(pcg128_t state, pcg128_t inc, uint64_t delta)
{
    pcg128_t multiplier = PCG64_MULTIPLIER, total_multiplier = 1;
    pcg128_t total_increment = 0;
    for (; delta; delta >>= 1, inc *= multiplier + 1, multiplier *= multiplier)
        if (delta & 1) {
            total_multiplier *= multiplier;
            total_increment = total_increment * multiplier + inc;
        }
    return total_multiplier * state + total_increment;
}
#else  /* no 128-bit integers: every split call is taken whole (below) */
#define LANE_HALVES 0
typedef uint64_t pcg128_t;
#define PCG128(high, low) ((pcg128_t)(low))
#define pcg64_next_double(state, inc) ((double)(*(state) + (inc)))
#define pcg64_advance(state, inc, delta) ((state) + (inc) + (delta))
#endif

typedef struct {
    int64_t *sync, half, moves, budget;  /* ns left to yield away */
    int claimed, stop;  /* the caller's first handshake made; half stopped */
    pcg128_t state, inc;
} lane_half;

static int64_t now_ns(void)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return now.tv_sec * 1000000000 + now.tv_nsec;
}

/* Wait for *word >= target: SPIN_LIMIT pauses, then sched_yield, the time
   spent yielding taken from *budget (ns; no bound when negative); 0 once
   the budget is gone, the word there or not. */
static int half_wait(int64_t *word, int64_t target, int64_t *budget)
{
    int64_t start = -1;
    for (int64_t spins = 0; __atomic_load_n(word, __ATOMIC_ACQUIRE) < target;
         ++spins) {
        if (spins < SPIN_LIMIT) {
            SPIN_PAUSE();
            continue;
        }
        if (*budget >= 0 && start < 0)
            start = now_ns();
        if (*budget >= 0 && now_ns() - start >= *budget)
            return *budget = 0, 0;
        sched_yield();
    }
    if (start >= 0 && (*budget -= now_ns() - start) <= 0)
        return *budget = 0, 0;
    return 1;
}

/* Move the claim from `from` to `to`; whether it now reads `to`. */
static int half_settle(lane_half *h, int64_t from, int64_t to)
{
    return __atomic_compare_exchange_n(h->sync + CLAIM, &from, to, 0,
                                       __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)
           || from == to;
}

/* Whether the half sweeps on: not once stopped, nor a caller whose helper
   had not claimed its half within budget at the first handshake. */
static int half_claimed(lane_half *h)
{
    if (!h->claimed) {
        h->claimed = 1;
        h->stop = !half_wait(h->sync + CLAIM, CLAIM_SPLIT, &h->budget)
                  && half_settle(h, CLAIM_OPEN, CLAIM_WHOLE);
    }
    return !h->stop;
}

/* A half's prepare step over the deltas -2 * terms of `rows` x `live`
   lanes: count its uphill lanes, publish the count, learn the one it needs
   (the leader the follower's previous move, the follower the leader's this
   move), jump.  Out of budget, it aborts the split — unless the other half
   committed it, having published every count — and either half stops. */
static void half_prepare(lane_half *h, const double *terms, int64_t rows,
                         int64_t lanes, int64_t live)
{
    int64_t *mine = h->sync + (1 + h->half) * SYNC_LINE;
    int64_t *theirs = h->sync + (2 - h->half) * SYNC_LINE;
    const int64_t needed = h->moves + h->half;  /* their moves before mine */
    int64_t uphill = 0;
    if (h->stop || (h->stop = __atomic_load_n(h->sync + CLAIM,
                                              __ATOMIC_RELAXED)
                              == CLAIM_ABORTED))
        return;
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t l = 0; l < live; ++l)
            uphill += !(-2.0 * terms[r * lanes + l] <= 0.0);
    mine[COUNTS + h->moves % RING] = uphill;
    __atomic_store_n(mine + PUBLISHED, ++h->moves, __ATOMIC_RELEASE);
    if (needed == 0 || !half_claimed(h))
        return;
    while (!half_wait(theirs + PUBLISHED, needed, &h->budget))
        if ((h->stop = half_settle(h, CLAIM_SPLIT, CLAIM_ABORTED)))
            return;
    h->state = pcg64_advance(h->state, h->inc,
                             (uint64_t)theirs[COUNTS + (needed - 1) % RING]);
}

/* Test hook: `delta` steps, then `count` next_doubles into out, from and
   back to words = {state high, state low, inc high, inc low}. */
void pcg64_probe(uint64_t *words, uint64_t delta, int64_t count, double *out)
{
    const pcg128_t inc = PCG128(words[2], words[3]);
    pcg128_t state = pcg64_advance(PCG128(words[0], words[1]), inc, delta);
    for (int64_t i = 0; i < count; ++i)
        out[i] = pcg64_next_double(&state, inc);
    words[0] = (uint64_t)(state >> (LANE_HALVES * 64));
    words[1] = (uint64_t)state;
}

/* `kind` is a literal at every sweep (sweep_blocks' two call sites,
   sweep_half) and the moves are inlined into them, so each sweep
   compiles to its own discipline's draw. */
enum { DRAW_GENERATOR, DRAW_PHILOX, DRAW_HALF };
typedef struct {
    int kind;
    next_double_fn next_double;  /* generator: the block's Generator */
    void *state;
    uint32_t sweep, replica, k0, k1;  /* counter: Philox address and key */
    lane_half *half;                  /* half: its PCG64 and handshake */
} draw_source;

/* The lane moves' draw: draw_prepare fills `uniforms` for the sites
   [begin, end) and the replicas first_replica + lane (see philox_span), or
   readies a lane half's PCG64; draw_uniform is then the next draw of the
   Generator or the half's PCG64, or that slot. */
static inline void draw_prepare(const draw_source *draw, int64_t begin,
                                int64_t end, uint32_t first_replica,
                                uint32_t tag, int64_t lanes, int64_t live,
                                const double *terms, double *uniforms)
{
    const philox_span span = {(uint32_t)begin, (uint32_t)end, draw->sweep,
                              first_replica, tag, draw->k0, draw->k1, lanes};
    if (draw->kind == DRAW_PHILOX)
        philox_fill(&span, uniforms);
    if (draw->kind == DRAW_HALF)
        half_prepare(draw->half, terms, end - begin, lanes, live);
}

static inline double draw_uniform(const draw_source *draw,
                                  const double *uniforms, int64_t slot)
{
    if (draw->kind == DRAW_HALF)
        return pcg64_next_double(&draw->half->state, draw->half->inc);
    return draw->kind == DRAW_PHILOX ? uniforms[slot]
                                     : draw->next_double(draw->state);
}

/* Not a stopped lane half: sweep on; and, for a half whose claim still
   stands, commit the split — both halves write back. */
static inline int draw_live(const draw_source *draw)
{
    return draw->kind != DRAW_HALF || !draw->half->stop;
}

static inline int draw_commit(const draw_source *draw)
{
    return draw->kind != DRAW_HALF
           || (half_claimed(draw->half)
               && half_settle(draw->half, CLAIM_SPLIT, CLAIM_COMMITTED));
}

/* Deterministic work counters every sweep reports (int64[3]); each
   loop nest counts into a local array, so the counts stay in registers. */
enum { PROPOSALS, DRAWS, EXP_CALLS, NUM_WORK };

/* Exact Metropolis acceptance of an uphill move (delta > 0) on the uniform
   u: the value of `u < exp(-delta / temperature)`, usually without the
   division or the exp.  With x = delta / T, the degree-4 Taylor polynomial
   q(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 is strictly below e^x for x > 0, so
   u * q(x) >= 1 implies u > e^-x: a certain rejection.  The 2^-30 slack
   dwarfs every rounding error in play (x taken as delta * (1/T), Horner's
   q, libm's <1 ulp exp of a rounded argument: together below 2^-40
   relative), so a squeeze rejection is exactly the decision the reference
   expression makes; anything else — including the NaN of u == 0 times an
   overflowed q — falls through to that expression untouched. */
static inline int metropolis_accept(double delta, double temperature,
                                    double inv_temperature, double u,
                                    int64_t *work)
{
    const double x = delta * inv_temperature;
    const double q = 1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0
                                                     + x * (1.0 / 24.0))));
    ++work[DRAWS];
    if (u * q >= 1.0 + 0x1p-30)
        return 0;
    ++work[EXP_CALLS];
    return u < exp(-delta / temperature);
}

/* Test hook: metropolis_accept on caller-chosen (delta, T, u). */
int64_t metropolis_accept_probe(double delta, double temperature, double u)
{
    int64_t work[NUM_WORK] = {0, 0, 0};
    return metropolis_accept(delta, temperature, 1.0 / temperature, u, work);
}

/* The ragged cluster (chain) lists of one block and the cluster-internal
   couplings, whose field contributions are double counted through both
   endpoints and subtracted edge by edge. */
typedef struct {
    const int64_t *members, *starts;
    const int64_t *edge_i, *edge_j, *edge_starts;
    double *edge_values;
} cluster_set;

/* ------------------------------------------------------------------------ *
 * Colour kernel moves, lane-major: replicas are the vector axis.
 *
 * A lane group is up to `lanes` replicas of one block, held transposed as
 * st[v * lanes + lane] (lanes a multiple of LANE_WIDTH; the `live` leading
 * lanes are replicas, the pad lanes hold 0.0, are never offered a draw and
 * never written back).  Every move works on all lanes of one spin at once:
 * the field arithmetic of different replicas is independent, so it runs
 * LANE_WIDTH replicas per instruction while each lane still performs the
 * reference sum — the CSR row accumulated from 0.0 in ascending-column
 * order — and only the decisions, which consume draws, walk the lanes in
 * the discipline's order.  data/indices/indptr are the CSR arrays of the
 * stacked per-class local-field operators (row k -> coupling field of
 * class member k); the cluster pass reads the same rows through row_of[v],
 * v's CSR row — same values, same order, as the reference cluster
 * operators' row of v.
 * ------------------------------------------------------------------------ */
typedef struct {
    const double *data;
    const int64_t *indices, *indptr, *row_of;
} lane_csr;

/* s_v * (coupling field of v + bias) of every lane, where row is v's CSR
   row: what flipping v costs is -2 times it.  Stored to out, or added to it
   (accumulate, a constant at every call site). */
static inline void lane_terms(const lane_csr *csr, int64_t row,
                              const double *st, int64_t lanes, int64_t v,
                              double bias, double *restrict out,
                              int accumulate)
{
    const double *sv = st + v * lanes;
    for (int64_t l = 0; l < lanes; l += LANE_WIDTH) {
        double acc[LANE_WIDTH] = {0.0};
        for (int64_t jj = csr->indptr[row]; jj < csr->indptr[row + 1]; ++jj) {
            const double weight = csr->data[jj];
            const double *column = st + csr->indices[jj] * lanes + l;
            for (int i = 0; i < LANE_WIDTH; ++i)
                acc[i] += weight * column[i];
        }
        for (int i = 0; i < LANE_WIDTH; ++i)
            out[l + i] = (accumulate ? out[l + i] : 0.0)
                         + sv[l + i] * (acc[i] + bias);
    }
}

/* The class rows [begin, end) offered to every lane: all (row, lane) terms
   first — class members never interact, so this is the reference loop's
   compute-all-fields-then-flip update — then the decisions lane-major, row
   ascending: the reference loops' draw order (and, the counter draws being
   addressed by (row, sweep, replica) and valued beforehand, as good as any
   under that discipline). */
MOVE void lane_class_move(double *restrict st, int64_t lanes, int64_t live,
                          uint32_t first_replica, double *restrict terms,
                          double *restrict uniforms,
                          const double *linear, const int64_t *members,
                          int64_t begin, int64_t end, const lane_csr *csr,
                          double temperature, double inv_temperature,
                          const draw_source *draw, int64_t *work)
{
    for (int64_t row = begin; row < end; ++row)
        lane_terms(csr, row, st, lanes, members[row], linear[members[row]],
                   terms + (row - begin) * lanes, 0);
    draw_prepare(draw, begin, end, first_replica, 0u, lanes, live, terms,
                 uniforms);
    work[PROPOSALS] += (end - begin) * live;
    for (int64_t l = 0; l < live; ++l) {
        for (int64_t row = begin; row < end; ++row) {
            const int64_t slot = (row - begin) * lanes + l;
            const double d = -2.0 * terms[slot];
            if (d <= 0.0
                || metropolis_accept(d, temperature, inv_temperature,
                                     draw_uniform(draw, uniforms, slot),
                                     work)) {
                double *spin = st + members[row] * lanes + l;
                *spin = -*spin;
            }
        }
    }
}

/* Cluster c's collective flip offered to every lane: boundary[lane] summed
   in ascending member order (the reference loop's defined order), internal
   edges subtracted, then the lanes decided in order. */
MOVE void lane_cluster_move(double *restrict st, int64_t lanes, int64_t live,
                            uint32_t first_replica,
                            double *restrict boundary,
                            double *restrict uniforms, const double *linear,
                            const cluster_set *cl, int64_t c,
                            const lane_csr *csr, double temperature,
                            double inv_temperature, const draw_source *draw,
                            int64_t *work)
{
    const int64_t begin = cl->starts[c];
    const int64_t end = cl->starts[c + 1];
    memset(boundary, 0, (size_t)lanes * sizeof(double));
    for (int64_t k = begin; k < end; ++k) {
        const int64_t m = cl->members[k];
        lane_terms(csr, csr->row_of[m], st, lanes, m, linear[m], boundary, 1);
    }
    for (int64_t e = cl->edge_starts[c]; e < cl->edge_starts[c + 1]; ++e) {
        const double weight = cl->edge_values[e];
        const double *si = st + cl->edge_i[e] * lanes;
        const double *sj = st + cl->edge_j[e] * lanes;
        for (int64_t l = 0; l < lanes; ++l)
            boundary[l] -= 2.0 * weight * si[l] * sj[l];
    }
    draw_prepare(draw, c, c + 1, first_replica, 1u, lanes, live, boundary,
                 uniforms);
    work[PROPOSALS] += live;
    for (int64_t l = 0; l < live; ++l) {
        const double d = -2.0 * boundary[l];
        if (!(d <= 0.0)
            && !metropolis_accept(d, temperature, inv_temperature,
                                  draw_uniform(draw, uniforms, l), work))
            continue;
        for (int64_t k = begin; k < end; ++k) {
            double *spin = st + cl->members[k] * lanes + l;
            *spin = -*spin;
        }
    }
}

/* One lane group — replicas [first, first + live) of the block whose spin
   rows start at bspins — through the whole schedule: transpose in, sweep,
   transpose out.  scratch holds the group's st (size rows of lanes), its
   cluster boundaries (one row), its class terms and the prepared uniforms
   of a move (as many rows each as there are class members). */
MOVE void lane_group_run(double *bspins, int64_t sld, int64_t first,
                         int64_t live, int64_t lanes, int64_t size,
                         double *scratch, const double *linear,
                         const int64_t *members, const int64_t *class_starts,
                         int64_t num_classes, const lane_csr *csr,
                         const cluster_set *cl, int64_t num_clusters,
                         const double *temperatures, int64_t num_sweeps,
                         draw_source *draw, int64_t *work)
{
    double *st = scratch;
    double *boundary = st + size * lanes;
    double *terms = boundary + lanes;
    double *uniforms = terms + class_starts[num_classes] * lanes;
    for (int64_t v = 0; v < size; ++v)
        for (int64_t l = 0; l < lanes; ++l)
            st[v * lanes + l] = l < live ? bspins[(first + l) * sld + v] : 0.0;
    for (int64_t t = 0; t < num_sweeps && draw_live(draw); ++t) {
        const double temperature = temperatures[t];
        const double inv_temperature = 1.0 / temperature;
        draw->sweep = (uint32_t)t;
        for (int64_t c = 0; c < num_classes; ++c)
            lane_class_move(st, lanes, live, (uint32_t)first, terms,
                            uniforms, linear, members, class_starts[c],
                            class_starts[c + 1], csr, temperature,
                            inv_temperature, draw, work);
        for (int64_t c = 0; c < num_clusters; ++c)
            lane_cluster_move(st, lanes, live, (uint32_t)first, boundary,
                              uniforms, linear, cl, c, csr, temperature,
                              inv_temperature, draw, work);
    }
    if (!draw_commit(draw))
        return;
    for (int64_t l = 0; l < live; ++l)
        for (int64_t v = 0; v < size; ++v)
            bspins[(first + l) * sld + v] = st[v * lanes + l];
}

/* ------------------------------------------------------------------------ *
 * The colour sweep: one per batch of a batch call (a single problem is a
 * pack of one block; without clusters num_clusters == 0 and the cluster
 * pass draws nothing).  Per temperature the single-spin sweep runs first,
 * then the cluster sweep.  All blocks share one CSR structure, so
 * per-block values travel as stacked block-major matrices (row b = block
 * b's data).
 *
 * Blocks never interact and each draws from its own source — a bitgen_t
 * pointer (sequential) or a key (counter) per block — so they evolve one
 * after the other through the whole schedule, each in the reference loops'
 * draw order.  The caller spreads a large pack over the cores as block
 * ranges, one call per range on its own thread, and one large block as two
 * lane halves.
 *
 * The sweep takes the lane workspace: row_of (int64[size]) and scratch,
 * (size + 1 + 2 * members) rows of `lanes` doubles (st, boundary, and a
 * class's terms and uniforms).  colour_call is the head of every argument
 * block (batch_call, below).
 * ------------------------------------------------------------------------ */
typedef struct {
    double *spins;
    int64_t sld, num_replicas, num_blocks, size;
    double *linear;
    const int64_t *members, *class_starts;
    int64_t num_classes;
    double *data;
    const int64_t *indices, *indptr, *row_of;
    int64_t class_nnz;
    double *scratch;
    int64_t lanes;
    cluster_set clusters;  /* edge_values: block 0's row */
    int64_t num_clusters, num_edges;
    const double *temperatures;
    int64_t num_sweeps;
} colour_call;

/* A block's replicas are one lane group (lanes >= num_replicas), so its
   draws are consumed in the reference loops' order.  `kind` is a literal
   at each call site (DRAW_GENERATOR: generators; DRAW_PHILOX: keys). */
MOVE void sweep_blocks(const colour_call *c, int kind,
                       const bitgen_t *const *generators,
                       const uint64_t *keys, int64_t *work_out)
{
    int64_t work[NUM_WORK] = {0, 0, 0};
    for (int64_t b = 0; b < c->num_blocks; ++b) {
        cluster_set cl = c->clusters;
        cl.edge_values += b * c->num_edges;
        const lane_csr csr = {c->data + b * c->class_nnz, c->indices,
                              c->indptr, c->row_of};
        draw_source draw = {kind, NULL, NULL, 0u, 0u, 0u, 0u, NULL};
        if (kind == DRAW_GENERATOR) {
            draw.next_double = generators[b]->next_double;
            draw.state = generators[b]->state;
        } else {
            draw.k0 = (uint32_t)keys[b];
            draw.k1 = (uint32_t)(keys[b] >> 32);
        }
        lane_group_run(c->spins + b * c->size, c->sld, 0, c->num_replicas,
                       c->lanes, c->size, c->scratch, c->linear + b * c->size,
                       c->members, c->class_starts, c->num_classes, &csr, &cl,
                       c->num_clusters, c->temperatures, c->num_sweeps,
                       &draw, work);
    }
    memcpy(work_out, work, sizeof(work));
}

/* Sequential, one lane half of one block: c over the half's spin rows,
   sync the halves' words, half which one.  Half 1, on a helper, claims the
   call or finds it taken whole and touches nothing; half 0, the caller,
   returns once the follower is done (at once if WHOLE) with both halves'
   work in work_out.  Whether the split COMMITTED (half 0; half 1: 0): only
   a committed split has written its spins. */
OUT_OF_LINE int sweep_half(const colour_call *c, int64_t *sync,
                           int64_t half, int64_t *work_out)
{
    int64_t work[NUM_WORK] = {0, 0, 0};
    uint64_t *words = (uint64_t *)(sync + WORDS);
    int64_t unbounded = -1;
    lane_half me = {sync, half, 0, sync[BUDGET], (int)half, 0,
                    PCG128(words[0], words[1]), PCG128(words[2], words[3])};
    const lane_csr csr = {c->data, c->indices, c->indptr, c->row_of};
    draw_source draw = {DRAW_HALF, NULL, NULL, 0u, 0u, 0u, 0u, &me};
    if (!LANE_HALVES
        || (half == 1 && !half_settle(&me, CLAIM_OPEN, CLAIM_SPLIT))) {
        if (half == 0)
            sync[CLAIM] = CLAIM_WHOLE;
        return 0;
    }
    lane_group_run(c->spins, c->sld, 0, c->num_replicas, c->lanes, c->size,
                   c->scratch, c->linear, c->members, c->class_starts,
                   c->num_classes, &csr, &c->clusters, c->num_clusters,
                   c->temperatures, c->num_sweeps, &draw, work);
    if (half == 1) {
        words[0] = (uint64_t)(me.state >> (LANE_HALVES * 64));
        words[1] = (uint64_t)me.state;
        memcpy(sync + FOLLOWER_WORK, work, sizeof(work));
        __atomic_store_n(sync + DONE, 1, __ATOMIC_RELEASE);
        return 0;
    }
    if (__atomic_load_n(sync + CLAIM, __ATOMIC_ACQUIRE) == CLAIM_WHOLE)
        return 0;
    half_wait(sync + DONE, 1, &unbounded);  /* follower off its scratch */
    for (int k = 0; k < NUM_WORK; ++k)
        work_out[k] = work[k] + sync[FOLLOWER_WORK + k];
    return sync[CLAIM] == CLAIM_COMMITTED;
}

/* The counter discipline's initial configuration of a pack whose spin rows
   are sld apart: -1.0 where the uniform at (variable, 0, replica, TAG_INIT
   = 2) under the block's key is below 0.5, else 1.0 — valued LANE_WIDTH
   replicas by 64 variables at a time into a stack tile. */
static void philox_start(double *spins, int64_t sld, int64_t num_replicas,
                         int64_t num_blocks, int64_t size,
                         const uint64_t *keys)
{
    double tile[64 * LANE_WIDTH];
    for (int64_t b = 0; b < num_blocks; ++b)
        for (int64_t first = 0; first < num_replicas; first += LANE_WIDTH)
            for (int64_t begin = 0; begin < size; begin += 64) {
                const int64_t end = begin + 64 < size ? begin + 64 : size;
                const philox_span span = {
                    (uint32_t)begin, (uint32_t)end, 0u, (uint32_t)first, 2u,
                    (uint32_t)keys[b], (uint32_t)(keys[b] >> 32), LANE_WIDTH};
                philox_fill(&span, tile);
                for (int64_t r = first; r < first + LANE_WIDTH
                                        && r < num_replicas; ++r)
                    for (int64_t v = begin; v < end; ++v)
                        spins[r * sld + b * size + v] =
                            tile[(v - begin) * LANE_WIDTH + r - first] < 0.5
                            ? -1.0 : 1.0;
            }
}

/* The same, spins being the contiguous (num_replicas, num_blocks * size)
   matrix. */
void counter_initial_spins(double *spins, int64_t num_replicas,
                           int64_t num_blocks, int64_t size,
                           const uint64_t *keys)
{
    philox_start(spins, num_blocks * size, num_replicas, num_blocks, size,
                 keys);
}

/* The sequential discipline's initial configuration of a pack, block by
   block from each block's own generator: Generator.integers(0, 2, (R, size))
   mapped to 2x - 1.  NumPy's bounded draw for a range of 2 is Lemire's
   multiply-shift of one next_uint32, whose rejection threshold is
   2^32 mod 2 = 0 — the word's top bit, nothing rejected — so this consumes
   exactly the stream (buffered half-word included) that call would. */
void sequential_initial_spins(double *spins, int64_t sld,
                              int64_t num_replicas, int64_t num_blocks,
                              int64_t size,
                              const bitgen_t *const *generators)
{
    static const double spin_of[2] = {-1.0, 1.0};  /* no coin-flip branch */
    for (int64_t b = 0; b < num_blocks; ++b) {
        const bitgen_t *generator = generators[b];
        for (int64_t r = 0; r < num_replicas; ++r) {
            double *row = spins + r * sld + b * size;
            for (int64_t v = 0; v < size; ++v)
                row[v] = spin_of[generator->next_uint32(generator->state)
                                 >> 31];
        }
    }
}

/* ------------------------------------------------------------------------ *
 * A served pack's programming and read-out: embed_pack over a
 * collision-free plan, unembed_pack's vote, aggregate_pack's distinct
 * reads and their coupling-operator products.  Each is integer work, a
 * max, or one rounded operation per element (no contraction), so each is
 * the NumPy pass it stands in for, bit for bit.  The argument block
 * (serve_call, 64-bit words, one per pack shape) holds B problems of L
 * logical variables and K couplings, P qubits each; the plan's field
 * spread and chains; the compile settings; the sampler's bound fields
 * (B, P) and couplers (B, E = chain couplers + K), which the programming
 * writes; the energy CSR over the logical keys (slot jj holds key
 * edges[jj]); and the out-arrays of S samples a problem: values (B, S, L)
 * int8, counts (broken chains [B], then ties [B]), and per problem b its
 * found[b] distinct reads in np.unique(axis=0) order at slots b * S on of
 * first (rows of the (B * S, L) values) and occurrences, with their
 * C-contiguous (L, found[b]) operator product at products + b * S * L.
 * ------------------------------------------------------------------------ */
typedef struct {
    int64_t num_problems, num_logical, num_keys, num_physical;
    const int64_t *logical_of;
    const double *chain_lengths;
    int64_t num_chain_couplers;
    double base_scale, coupler_min, coupler_max, field_min, field_max;
    double *fields, *couplers;
    const int64_t *members, *bounds;
    const int64_t *edges, *indices, *indptr;
    int64_t num_samples;
    int8_t *values;
    int64_t *counts, *first, *occurrences, *found;
    double *products;
} serve_call;
_Static_assert(sizeof(serve_call) == 26 * sizeof(int64_t),
               "serve_call is 26 words");

/* max |x[i]| from 0.0, NaN sticking once seen, as np.max does. */
static double max_abs(const double *x, int64_t count)
{
    double largest = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        const double a = fabs(x[i]);
        largest = a > largest || a != a ? a : largest;
    }
    return largest;
}

/* x clipped into [lo, hi] the way np.clip does (NaN and -0.0 kept). */
static inline double clip(double x, double lo, double hi)
{
    return x < lo ? lo : x > hi ? hi : x;
}

/* Program problems [lo, hi) of the (B, L) linear and (B, K) values: the
   scale is base_scale over the largest |coupling| (none: |field|) if that
   is positive; fields spread as (linear * scale) / chain length onto the
   qubits (logical_of), chain couplers hold coupler_min, crossing couplers
   the scaled couplings, each clipped into its range.  1 when a scaled
   coupling of ANY problem is 0.0 (every range sees it, nothing drawn): it
   is unprogrammed, which the NumPy path decides. */
static int program_pack(const serve_call *s, const double *linear,
                        const double *values, int64_t lo, int64_t hi)
{
    const int64_t width = s->num_chain_couplers + s->num_keys;
    for (int64_t b = 0; b < s->num_problems; ++b) {
        const double *lin = linear + b * s->num_logical;
        const double *val = values + b * s->num_keys;
        const int mine = lo <= b && b < hi;
        double *row = s->couplers + b * width;
        double *out = s->fields + b * s->num_physical;
        double scale = s->base_scale, reference = max_abs(val, s->num_keys);
        if (reference == 0.0)
            reference = max_abs(lin, s->num_logical);
        if (reference > 0.0)
            scale = s->base_scale / reference;
        for (int64_t e = 0; e < s->num_keys; ++e) {
            const double v = val[e] * scale;
            if (v == 0.0)
                return 1;
            if (mine)
                row[s->num_chain_couplers + e] =
                    clip(v, s->coupler_min, s->coupler_max);
        }
        for (int64_t c = 0; mine && c < s->num_chain_couplers; ++c)
            row[c] = s->coupler_min;
        for (int64_t p = 0; mine && p < s->num_physical; ++p) {
            const int64_t i = s->logical_of[p];
            out[p] = clip(lin[i] * scale / s->chain_lengths[i], s->field_min,
                          s->field_max);
        }
    }
    return 0;
}

/* Problem b's vote over its P columns of physical (rows pld apart): each
   chain's sign, 0 on a tie; counts get the broken chains and the ties. */
static int64_t vote_problem(const serve_call *s, const int8_t *physical,
                            int64_t pld, int64_t b)
{
    int64_t broken = 0, ties = 0;
    for (int64_t r = 0; r < s->num_samples; ++r) {
        const int8_t *row = physical + r * pld;
        int8_t *out = s->values + (b * s->num_samples + r) * s->num_logical;
        for (int64_t i = 0; i < s->num_logical; ++i) {
            int64_t sum = 0;
            for (int64_t k = s->bounds[i]; k < s->bounds[i + 1]; ++k)
                sum += row[s->members[k]];
            broken += (sum < 0 ? -sum : sum) != s->bounds[i + 1] - s->bounds[i];
            ties += sum == 0;
            out[i] = (int8_t)((sum > 0) - (sum < 0));
        }
    }
    s->counts[b] = broken;
    s->counts[s->num_problems + b] = ties;
    return ties;
}

/* Problem b's distinct reads, L < 64: bit L - 1 - v of a read's key is set
   where v is +1, so ascending keys are np.unique(axis=0)'s order; (key,
   read) pairs merge-sort stably (scratch: 4 * S words), a run of equal keys
   is one read.  -1 when a read is not all spins. */
static int64_t distinct_problem(const serve_call *s, uint64_t *scratch,
                                int64_t b)
{
    const int64_t reads = s->num_samples, variables = s->num_logical;
    const int8_t *spins = s->values + b * reads * variables;
    uint64_t *key = scratch, *read = scratch + reads;
    uint64_t *key_to = read + reads, *read_to = key_to + reads;
    int64_t found = 0;
    for (int64_t r = 0; r < reads; ++r) {
        uint64_t bits = 0;
        for (int64_t v = 0; v < variables; ++v) {
            const int8_t spin = spins[r * variables + v];
            if (spin != 1 && spin != -1)
                return -1;
            bits = bits << 1 | (spin > 0);
        }
        key[r] = bits;
        read[r] = (uint64_t)r;
    }
    for (int64_t width = 1; width < reads; width *= 2) {
        for (int64_t lo = 0; lo < reads; lo += 2 * width) {
            const int64_t mid = lo + width < reads ? lo + width : reads;
            const int64_t hi = mid + width < reads ? mid + width : reads;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                const int64_t from = key[j] < key[i] ? j++ : i++;
                key_to[k] = key[from];
                read_to[k++] = read[from];
            }
            for (; i < mid; ++i, ++k)
                key_to[k] = key[i], read_to[k] = read[i];
            for (; j < hi; ++j, ++k)
                key_to[k] = key[j], read_to[k] = read[j];
        }
        uint64_t *swap = key;
        key = key_to, key_to = swap;
        swap = read, read = read_to, read_to = swap;
    }
    for (int64_t r = 0; r < reads; ++found) {
        int64_t end = r + 1;
        while (end < reads && key[end] == key[r])
            ++end;
        s->first[b * reads + found] = b * reads + (int64_t)read[r];
        s->occurrences[b * reads + found] = end - r;
        r = end;
    }
    return s->found[b] = found;
}

/* A_b @ D_b^T of problem b's distinct reads D_b, exactly as scipy's
   csr_matvecs computes it: each element from 0.0 in CSR entry order, run
   lane_terms' way (LANE_WIDTH reads an accumulator) over a transposed copy
   of D_b in columns, which keeps it level with scipy's axpy at 48 x 200. */
static void product_problem(const serve_call *s, const double *values,
                            double *restrict columns, int64_t b)
{
    const int64_t size = s->num_logical, count = s->found[b];
    const int64_t *first = s->first + b * s->num_samples;
    const double *weights = values + b * s->num_keys;
    double *restrict y = s->products + b * s->num_samples * size;
    for (int64_t k = 0; k < count; ++k)
        for (int64_t v = 0; v < size; ++v)
            columns[v * count + k] = s->values[first[k] * size + v];
    for (int64_t i = 0; i < size; ++i, y += count) {
        int64_t k = 0;
        for (; k + LANE_WIDTH <= count; k += LANE_WIDTH) {
            double acc[LANE_WIDTH] = {0.0};
            for (int64_t jj = s->indptr[i]; jj < s->indptr[i + 1]; ++jj) {
                const double weight = weights[s->edges[jj]];
                const double *column = columns + s->indices[jj] * count + k;
                for (int l = 0; l < LANE_WIDTH; ++l)
                    acc[l] += weight * column[l];
            }
            memcpy(y + k, acc, sizeof(acc));
        }
        for (; k < count; ++k) {
            double acc = 0.0;
            for (int64_t jj = s->indptr[i]; jj < s->indptr[i + 1]; ++jj)
                acc += weights[s->edges[jj]] * columns[s->indices[jj] * count
                                                       + k];
            y[k] = acc;
        }
    }
}

/* Problems [lo, hi)'s read-out, physical (block lo's columns) voted first
   unless NULL (values hold the spins).  0 when done; 1 when a chain tied
   (the caller draws the ties, then reads out without a vote); -1 when a
   read is not all spins. */
static int64_t read_out_pack(const serve_call *s, const int8_t *physical,
                             int64_t pld, const double *values,
                             int64_t *scratch, int64_t lo, int64_t hi)
{
    int64_t ties = 0;
    for (int64_t b = lo; physical && b < hi; ++b)
        ties += vote_problem(s, physical + (b - lo) * s->num_physical, pld, b);
    if (ties)
        return 1;
    for (int64_t b = lo; b < hi; ++b) {
        if (distinct_problem(s, (uint64_t *)scratch, b) < 0)
            return -1;
        product_problem(s, values, (double *)(scratch + 4 * s->num_samples),
                        b);
    }
    return 0;
}

/* The read-out on its own over the (S, B * P) physical (or NULL): for a
   cancelled last batch, a tie and aggregate_pack's reads. */
int64_t pack_read_out(const int64_t *words, const int8_t *physical,
                      const double *values, int64_t *scratch, int64_t lo,
                      int64_t hi)
{
    serve_call s;
    memcpy(&s, words, sizeof(s));
    return read_out_pack(&s, physical ? physical + lo * s.num_physical : NULL,
                         s.num_problems * s.num_physical, values, scratch, lo,
                         hi);
}

/* ------------------------------------------------------------------------ *
 * A pack's ICE batches in one call.
 *
 * The machine redraws its intrinsic control error between batches of
 * anneals, so a QA run is a loop over batches, and per batch and block:
 * the ICE draws, added to the programmed fields, then to the couplings in
 * key order (NumPy's random_normal through the block's bitgen_t: the
 * values and stream of Generator.normal); under the counter discipline the
 * block key (random_bounded_uint64_fill: Generator.integers(0, 2**64,
 * dtype=uint64)); the start; the sweep.  A block draws from its own
 * generator only, so all ICE first, then keys and starts, then sweeps, is
 * each block's own order.  A call over a range of blocks runs batches
 * [batch, stop) and writes each batch's rows, as int8, into physical (rows
 * pld apart; batch k starts at row k * batch_size, the last batch is what
 * is left of num_anneals).
 *
 * The caller writes one argument block per range, lane half and pack shape
 * (batch_call: the colour call, then the fields below); per call it hands
 * over the sources, physical and the generators, all at block 0 (the call
 * offsets them by first_block), and the sweep mode.  Each batch writes the
 * perturbed fields to linear, the perturbed couplings to values and their
 * gathers (class_edges, internal_edges) to data and edge_values.  ice is
 * {field mean, field std, coupling mean, coupling std}, or NULL for no
 * draws.  With check_zero, a batch with a perturbed coupling at exactly
 * zero is not swept: the call returns its index, for the caller to anneal
 * problem by problem from the buffers and resume; otherwise it returns
 * stop.  keys is NULL under the sequential discipline, the counter keys'
 * room (one per block) under the counter one.  work holds the last swept
 * batch's counts.  Without serve the sources are the programmed (B, P)
 * fields and (B, E) couplings; with serve the logical (B, L) and (B, K)
 * ones: a drawing call at batch 0 programs its blocks first, or returns -1,
 * nothing drawn, and the call that sweeps the last batch reads its blocks
 * out (read_scratch: (4 + L) * S words).
 *
 * The sweep modes: SWEEP_ALL draws and sweeps each batch.  A one-block
 * batch on two threads is a SWEEP_START call — its draws and start, then
 * batch + 1 — and a SWEEP_HALF call per lane half (a half's block: its
 * spin rows and scratch, sync and half), on two threads; half 0 returns
 * stop once the split committed, else batch, and the caller sweeps the
 * drawn batch on one thread with SWEEP_DRAWN.
 * ------------------------------------------------------------------------ */
double random_normal(bitgen_t *bitgen_state, double loc, double scale);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);

enum { SWEEP_START, SWEEP_DRAWN, SWEEP_ALL, SWEEP_HALF };

typedef struct {
    colour_call call;  /* num_replicas: a lane half's own, else per batch */
    int64_t batch_size, num_values;
    const int64_t *class_edges, *internal_edges;
    double *values;
    int64_t pld;
    uint64_t *keys;
    int64_t *work;
    int64_t first_block;
    const double *ice;
    int64_t check_zero;
    const int64_t *serve;
    int64_t *read_scratch;
    int64_t *sync, half;  /* a lane half's */
} batch_call;
_Static_assert(sizeof(batch_call) == 41 * sizeof(int64_t),
               "batch_call is 41 words");

/* A batch of `rows` replicas' draws over c's blocks: the ICE shifts of the
   programmed fields, then couplings; the counter keys and the gathers; the
   start.  1, nothing more drawn, when check_zero finds a perturbed coupling
   at exactly zero. */
static int draw_batch(const batch_call *c, const double *programmed_linear,
                      const double *programmed_values,
                      const bitgen_t *const *generators, int64_t rows)
{
    const colour_call *call = &c->call;
    const int64_t size = call->size;
    int zero = 0;
    for (int64_t b = 0; b < call->num_blocks; ++b) {
        bitgen_t *generator = (bitgen_t *)generators[b];
        const double *from = programmed_linear + b * size;
        double *to = call->linear + b * size;
        for (int64_t v = 0; v < size; ++v)
            to[v] = c->ice ? from[v] + random_normal(generator, c->ice[0],
                                                     c->ice[1])
                           : from[v];
        from = programmed_values + b * c->num_values;
        to = c->values + b * c->num_values;
        for (int64_t e = 0; e < c->num_values; ++e) {
            to[e] = c->ice ? from[e] + random_normal(generator, c->ice[2],
                                                     c->ice[3])
                           : from[e];
            zero |= to[e] == 0.0;
        }
    }
    if (c->check_zero && zero)
        return 1;
    for (int64_t b = 0; b < call->num_blocks; ++b) {
        const double *from = c->values + b * c->num_values;
        if (c->keys)
            random_bounded_uint64_fill((bitgen_t *)generators[b], 0,
                                       UINT64_MAX, 1, false, c->keys + b);
        for (int64_t k = 0; k < call->class_nnz; ++k)
            call->data[b * call->class_nnz + k] = from[c->class_edges[k]];
        for (int64_t e = 0; e < call->num_edges; ++e)
            call->clusters.edge_values[b * call->num_edges + e] =
                from[c->internal_edges[e]];
    }
    if (c->keys)
        philox_start(call->spins, call->sld, rows, call->num_blocks, size,
                     c->keys);
    else
        sequential_initial_spins(call->spins, call->sld, rows,
                                 call->num_blocks, size, generators);
    return 0;
}

int64_t pack_ice_batches(const int64_t *words, const double *source_linear,
                         const double *source_values, int8_t *physical,
                         int64_t num_anneals, int64_t batch, int64_t stop,
                         int64_t sweep, const bitgen_t *const *generators)
{
    batch_call c;
    serve_call s;
    memcpy(&c, words, sizeof(c));
    memset(&s, 0, sizeof(s));
    if (c.serve)
        memcpy(&s, c.serve, sizeof(s));
    colour_call *call = &c.call;
    const int draws = sweep == SWEEP_ALL || sweep == SWEEP_START;
    const int64_t size = call->size, width = call->num_blocks * size;
    const int64_t lo = c.first_block, hi = lo + call->num_blocks;
    const double *programmed_linear =
        (c.serve ? s.fields : source_linear) + lo * size;
    const double *programmed_values =
        (c.serve ? s.couplers : source_values) + lo * c.num_values;
    physical += lo * size;
    generators += lo;
    if (c.serve && batch == 0 && draws
        && program_pack(&s, source_linear, source_values, lo, hi))
        return -1;
    for (; batch < stop; ++batch) {
        const int64_t first = batch * c.batch_size;
        const int64_t rows = num_anneals - first < c.batch_size
                             ? num_anneals - first : c.batch_size;
        if (draws && draw_batch(&c, programmed_linear, programmed_values,
                                generators, rows))
            return batch;
        if (sweep == SWEEP_START)
            return batch + 1;
        if (sweep == SWEEP_HALF) {
            if (!sweep_half(call, c.sync, c.half, c.work))
                return batch;
        } else {
            call->num_replicas = rows;
            if (c.keys)
                sweep_blocks(call, DRAW_PHILOX, NULL, c.keys, c.work);
            else
                sweep_blocks(call, DRAW_GENERATOR, generators, NULL, c.work);
        }
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t v = 0; v < width; ++v)
                physical[(first + r) * c.pld + v] =
                    (int8_t)call->spins[r * call->sld + v];
    }
    if (c.serve && stop * c.batch_size >= num_anneals)
        read_out_pack(&s, physical, c.pld, source_values, c.read_scratch, lo,
                      hi);
    return stop;
}
"""

#: Compiler candidates tried in order for the cext backend.
_COMPILERS = ("cc", "gcc", "clang")

#: The build line.  ``-ffp-contract=off``: no FMA contraction, so the kernel
#: arithmetic matches the numpy loops op for op.  ``-O3``, ``-march=native``
#: and the kernel restructurings measured against it are in ROADMAP.md
#: ("Measured and rejected").
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro_backends"
    try:
        return Path.home() / ".cache" / "repro_backends"
    except RuntimeError:  # no HOME and no passwd entry: an arbitrary uid
        import tempfile

        # A shared directory: load only from a subdirectory that is ours.
        root = Path(tempfile.gettempdir()) / f"repro_backends-{os.getuid()}"
        root.mkdir(mode=0o700, exist_ok=True)
        if root.stat().st_uid != os.getuid():
            raise PermissionError(f"{root} belongs to another user")
        return root


def _npyrandom() -> Optional[Tuple[str, str]]:
    """NumPy's static ``libnpyrandom.a`` — the ``random_normal`` and
    ``random_bounded_uint64_fill`` behind ``Generator.normal`` and
    ``Generator.integers``, which ``pack_ice_batches`` links in — as
    ``(path, identity)``: path, size and modification time, so another
    NumPy's archive names another build.  ``None`` when this NumPy ships
    none: then there is no artefact, as without a compiler."""
    path = Path(np.random.__file__).parent / "lib" / "libnpyrandom.a"
    try:
        stat = path.stat()
    except OSError:
        return None
    return str(path), f"{path}:{stat.st_size}:{stat.st_mtime_ns}"


def _cext_target() -> Path:
    """Cache path of the build: named by source, build line AND the NumPy
    archive it links, so two builds never answer to one name."""
    archive = _npyrandom()
    digest = hashlib.sha256("\0".join(
        (_C_SOURCE, *_CFLAGS, archive[1] if archive else "")
    ).encode()).hexdigest()[:16]
    return _cache_dir() / f"metropolis_{digest}.so"


def _build_cext(target: Path) -> bool:
    """Compile the build and publish it as *target*; whether it is there.

    Concurrent-compile discipline (process-pool workers all warming a cold
    cache at once): every process compiles into its *own* temporary
    directory inside the cache and publishes with one atomic
    :func:`os.replace`, so racing processes each install a byte-equivalent
    artifact — last writer wins and every ``dlopen`` sees a complete file,
    never a half-written one.  When this process's own attempt fails (cache
    directory not writable, compiler racing on resource limits, no compiler
    at all) but a concurrent process has published the target in the
    meantime, that artifact is used instead of reporting failure.
    """
    import subprocess  # a process that finds the cached artefact
    import tempfile    # never needs either

    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent) as workdir:
            source = Path(workdir) / "metropolis.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            built = Path(workdir) / "metropolis.so"
            for compiler in _COMPILERS:
                try:
                    subprocess.run(
                        [compiler, *_CFLAGS, "-o", str(built),
                         str(source), _npyrandom()[0], "-lm"],
                        check=True, capture_output=True, timeout=120)
                except (OSError, subprocess.SubprocessError):
                    continue
                # Atomic publish so concurrent processes race benignly.
                os.replace(built, target)
                return True
    except OSError:
        pass
    return target.exists()


def _compile_cext() -> Optional[Path]:
    """The cached shared object, built when it is not on disk yet (a warm
    cache costs one ``exists()``); ``None`` when it cannot be built.
    Without NumPy's ``libnpyrandom.a`` there is nothing to build, as
    without a compiler."""
    if _npyrandom() is None:
        return None
    target = _cext_target()
    return target if target.exists() or _build_cext(target) else None


def _cext_signatures() -> Dict[str, Tuple[object, list]]:
    """``(restype, argtypes)`` of every function ``_C_SOURCE`` exports."""
    # The per-block draw source: one bitgen_t pointer array.
    generators = ctypes.POINTER(ctypes.c_void_p)
    return {
        "pcg64_probe": (None, [ctypes.c_void_p, ctypes.c_uint64,
                               ctypes.c_int64, ctypes.c_void_p]),
        "pack_ice_batches": (ctypes.c_int64, [
            ctypes.c_void_p,       # the range's or lane half's argument block
            ctypes.c_void_p, ctypes.c_void_p,  # source fields, couplings
            ctypes.c_void_p,                   # physical
            *[ctypes.c_int64] * 4,     # anneals, batch, stop, sweep
            generators]),
        "pack_read_out": (ctypes.c_int64, [
            ctypes.c_void_p, ctypes.c_void_p,  # serve block, physical
            ctypes.c_void_p, ctypes.c_void_p,  # logical couplings, scratch
            ctypes.c_int64, ctypes.c_int64]),  # problems [lo, hi)
        "counter_initial_spins": (None, [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p]),         # spins, R, blocks, size, keys
        "sequential_initial_spins": (None, [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, generators]),  # spins, ld, R, blocks, size
        "metropolis_accept_probe": (ctypes.c_int64, [ctypes.c_double] * 3),
        "philox_fill_probe": (ctypes.c_int64, [
            *[ctypes.c_int64] * 6,     # width, begin, end, sweep, first, tag
            ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p]),  # key, lanes
    }


def _load_cext() -> Optional[ctypes.CDLL]:
    """Compile/load the C backend once per process; None when unavailable."""
    if _CEXT_STATE["checked"]:
        return _CEXT_STATE["lib"]
    _CEXT_STATE["checked"] = True
    try:
        path = _compile_cext()
        if path is None:
            return None
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _cext_signatures().items():
            function = getattr(lib, name)
            function.restype = restype
            function.argtypes = argtypes
    except OSError:
        return None
    _CEXT_STATE["lib"] = lib
    return lib


def _row_strided(array: np.ndarray) -> Tuple[int, int]:
    """(base pointer, row stride in doubles) of a row-strided float64 view."""
    if array.dtype != np.float64 or array.ndim != 2:
        raise AnnealerError("compiled kernels need 2-D float64 arrays")
    if array.strides[1] != array.itemsize:
        raise AnnealerError(
            "compiled kernels need unit column stride (row-strided views of "
            "a C-contiguous matrix)")
    return array.ctypes.data, array.strides[0] // array.itemsize
