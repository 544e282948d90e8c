"""Vectorised stochastic sampling engine for the annealer simulator.

This module is the *single* Metropolis core of the repository: the annealer
simulator, the classical :class:`~repro.ising.solver.SimulatedAnnealingSolver`
baseline and the batched OFDM decode path all sample through it.

One "anneal" of the simulated machine is one Metropolis trajectory over the
embedded Ising problem, following the temperature profile produced by the
:class:`~repro.annealer.schedule.AnnealSchedule`.  To make a whole QA run
(hundreds to thousands of anneals) affordable in pure NumPy, all anneals of a
batch are evolved simultaneously as replica rows of a spin matrix, and
variables are updated one graph-colour class at a time: within a colour class
no two variables interact, so the simultaneous vectorised flips are exact
single-spin-flip Metropolis dynamics.  Per-class coupling operators are kept
sparse because hardware-embedded problems have qubit degree at most six.

:class:`BlockDiagonalSampler` evolves ``num_blocks`` structurally identical
problems laid out as one block-diagonal problem, and :class:`IsingSampler` is
its one-block special case.  There is one sweep kernel, the colour-class
kernel: it updates one independent set at a time through sparse per-class
operators — the shape of hardware-embedded problems, whose qubit degree of
at most six keeps the class count small.  A dense *logical* problem (the
QuAMax ML reduction couples nearly every variable pair) colours into
singletons, and the same kernel then sweeps it one variable at a time in
class order: exact sequential single-spin-flip dynamics, just less
parallel.  Two levels of reuse amortise setup cost across repeated runs:

* :meth:`BlockDiagonalSampler.refresh_values` rebinds a sampler to new
  problems with the *same* coupling structure (e.g. successive ICE
  perturbations of one embedded problem): the sampler holds the pack's
  coefficients as one ``(blocks, E)`` value matrix
  (:class:`~repro.ising.model.IsingPack`) and every kernel layout is a
  gather from it through slot→edge maps derived once per structure, so a
  rebind swaps the matrix instead of re-deriving colour classes and
  re-slicing operators;
* a multi-block sampler packs several structurally identical problems (e.g.
  the subcarriers of an OFDM symbol, Section 5.5 of the paper) into one
  anneal that shares every sparse operation, while drawing each block's
  randomness from its own generator so the trajectories are bit-for-bit
  those of independent per-problem anneals.

The ``backend=`` knob selects the *implementation* of the kernel's inner
loop: ``"numpy"`` runs the reference loops in this module, while ``"cext"``
runs the compiled translation from :mod:`repro.annealer.backends`, which
consumes the exact same per-variable Metropolis draw stream (``"auto"``,
the default, is cext and falls back to numpy).  Because each block draws
from its own generator and blocks never interact, the compiled kernels
evolve blocks one at a time through the whole schedule without changing any
block's stream.  Every sampler shape reaches them through one backend
dispatch per anneal: a single problem is a pack of one block, and a sampler
without cluster (chain-flip) moves hands over an empty flattened cluster
descriptor (:meth:`BlockDiagonalSampler._cluster_pack_descriptor`), so
embedded and logical problems, single jobs and serving packs all run the
same fused single-spin+cluster kernel of their draw discipline.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.annealer import backends, counter
from repro.exceptions import AnnealerError
from repro.ising.model import (
    Coupling,
    IsingModel,
    IsingPack,
    symmetric_csr_template,
)
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range

if TYPE_CHECKING:  # only the numpy reference operators are scipy's
    from scipy import sparse


def colour_classes(ising: IsingModel) -> List[np.ndarray]:
    """Partition variables into independent sets of the coupling graph.

    Largest-first greedy colouring — variables in order of descending
    degree (ties in index order), each given the smallest colour no
    neighbour holds; the classes are exactly those of networkx's
    ``greedy_color(strategy="largest_first")``, which every seeded stream
    was frozen under.  Chimera-embedded problems need only a handful of
    colours, while a fully-connected logical problem degenerates to one
    variable per class (still correct, just less parallel).
    """
    neighbours: List[List[int]] = [[] for _ in range(ising.num_variables)]
    for i, j in ising.coupling_keys:
        neighbours[i].append(j)
        neighbours[j].append(i)
    colours = [-1] * ising.num_variables  # -1: not coloured yet
    for node in sorted(range(ising.num_variables), reverse=True,
                       key=lambda node: len(neighbours[node])):
        taken = {colours[other] for other in neighbours[node]}
        colours[node] = next(colour for colour in range(len(taken) + 1)
                             if colour not in taken)
    classes: List[List[int]] = [[] for _ in range(max(colours) + 1)]
    for node, colour in enumerate(colours):
        classes[colour].append(node)
    return [np.array(nodes, dtype=np.intp) for nodes in classes]


def sparse_coupling_matrix(ising: IsingModel) -> sparse.csr_matrix:
    """Symmetric sparse coupling matrix (zero diagonal) of an Ising problem.

    Alias of :meth:`repro.ising.model.IsingModel.coupling_operator`, kept as
    the engine-level name the sampler machinery historically exposed.
    """
    return ising.coupling_operator()


class _RowCsr(NamedTuple):
    """Block-local CSR structure of some rows of the symmetric coupling
    matrix, with the map that fills it: slot *s* holds the value of edge
    ``edges[s]`` (a column of the sampler's value matrix), so a whole pack's
    ``(blocks, nnz)`` data is the single gather ``values[:, edges]``."""

    indptr: np.ndarray
    indices: np.ndarray
    edges: np.ndarray

    def rows(self, rows: np.ndarray) -> "_RowCsr":
        """The structure of *rows* stacked in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        slots = (np.arange(indptr[-1], dtype=np.int64)
                 + np.repeat(self.indptr[rows] - indptr[:-1], lengths))
        return _RowCsr(indptr, np.ascontiguousarray(self.indices[slots]),
                       np.ascontiguousarray(self.edges[slots]))

    def segment(self, start: int, stop: int) -> "_RowCsr":
        """The structure of the contiguous row range ``[start, stop)``."""
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        return _RowCsr(self.indptr[start:stop + 1] - lo,
                       self.indices[lo:hi], self.edges[lo:hi])


class _ReferenceOperators(NamedTuple):
    """The scipy spelling of a sampler's operators, over the combined
    block-diagonal variables: what the numpy reference loops multiply
    through and what :attr:`BlockDiagonalSampler.coupling_matrix` exposes.
    Compiled anneals never build it."""

    matrix: sparse.csr_matrix
    #: Combined colour classes: block-major concatenation, so block ``b``'s
    #: members form the contiguous column segment ``[b*m, (b+1)*m)`` of
    #: every per-class array.
    classes: List[np.ndarray]
    #: Per-class operators mapping the combined spin vector to the local
    #: fields of the class members: shape (blocks*|class|, N).
    class_operators: List[sparse.csr_matrix]
    cluster_columns: List[np.ndarray]
    cluster_operators: List[sparse.csr_matrix]
    #: Per cluster, the combined endpoints of its internal edges,
    #: ``(edges, blocks)`` each.
    cluster_int_i: List[np.ndarray]
    cluster_int_j: List[np.ndarray]
    #: Every operator above with the value-matrix columns its ``.data``
    #: is the block-major gather of.
    bindings: List[Tuple[sparse.csr_matrix, np.ndarray]]


class BlockDiagonalSampler:
    """Replica-batched Metropolis sampler over one or more identical-structure
    Ising problems.

    The blocks are laid out as a block-diagonal problem: block ``b`` occupies
    variables ``[b*P, (b+1)*P)`` and there are no cross-block couplings, so
    the combined trajectory factorises exactly into the blocks' independent
    trajectories.  Every sparse matvec, energy difference and acceptance mask
    is computed on the combined arrays (amortising the NumPy dispatch
    overhead over all blocks — the Section 5.5 multi-subcarrier
    parallelization), while each block's Metropolis randomness is drawn from
    its *own* generator in exactly the order a one-block sampler with that
    generator would draw it.  Because the per-block draw order (initial
    spins, then per-class uphill draws, then per-cluster draws, per sweep)
    never depends on the other blocks, a multi-block anneal is bit-for-bit
    the per-block serial anneals.

    Parameters
    ----------
    isings:
        The problems, all with the same variable count and coupling key set
        (values are free to differ — that is the point): any sequence of
        :class:`~repro.ising.model.IsingModel`, or an
        :class:`~repro.ising.model.IsingPack`, which is taken as is.
    clusters:
        Optional *block-level* groups of variables (e.g. the physical chains
        of an embedded problem), replicated across every block and offered
        collective flip moves in addition to single-spin flips.  Quantum
        annealers reorient logical chains through tunnelling; a purely
        single-spin-flip classical sampler cannot, so cluster moves are what
        keep the simulator's chain dynamics representative.
    backend:
        Implementation of the kernel's inner loop: ``"numpy"`` (the
        reference loops in this module), ``"cext"`` (the compiled
        translation consuming the same draw stream, see
        :mod:`repro.annealer.backends`) or ``"auto"`` (default: cext,
        falling back to numpy).  Explicitly requesting an unavailable
        ``"cext"`` raises :class:`AnnealerError` at construction; the C
        artefact is loaded (compiled, on a cold cache) here so first-anneal
        timings stay clean.
    rng:
        Draw discipline: ``"sequential"`` (default) consumes each block's
        generator in the reference loops' order — bit-reproducible, and on
        cext spread over the CPUs by itself, bit for bit (a pack's blocks,
        or one large block's replicas); ``"counter"`` derives every uniform
        from a Philox counter addressed by ``(site, sweep, replica,
        move_tag)`` under a per-block key drawn once per anneal from the
        block's generator (see
        :mod:`repro.annealer.counter`) — reproducible under its own
        discipline, identical across backends *and* thread counts.
    threads:
        The counter discipline's replica-level knob: threads for its
        compiled kernels (OpenMP in the cext); > 1 needs ``rng="counter"``.
        The numpy backend ignores it (reference loops are vectorised over
        replicas already).  The thread count never changes results.

    A sampler keeps per-structure kernel workspaces between anneals, so one
    instance serves one :meth:`anneal` call at a time (the machine's warm
    cache hands samplers out by checkout for that reason).
    """

    def __init__(self, isings: Sequence[IsingModel],
                 clusters: Optional[List[np.ndarray]] = None,
                 backend: str = "auto", rng: str = "sequential",
                 threads: int = 1):
        if rng not in backends.RNG_MODES:
            raise AnnealerError(
                f"rng must be one of {backends.RNG_MODES}, got {rng!r}")
        self.backend = backend
        #: Draw discipline (named ``rng_mode`` internally: ``rng`` stays the
        #: conventional local name for generator instances).
        self.rng_mode = rng
        self.threads = check_integer_in_range("threads", threads, minimum=1)
        if self.threads > 1 and self.rng_mode != "counter":
            raise AnnealerError(
                "threads > 1 requires rng='counter': a sequential cext "
                "call spreads a pack's blocks, or one block's replicas, "
                "across cores by itself")
        # Unknown names and an unavailable explicit backend fail loudly
        # here, and the one-time compile cost is paid at construction
        # instead of inside the first timed anneal.
        backends.warmup(backend)
        problems = IsingPack.stack(isings)
        if problems is None:
            raise AnnealerError(
                "the sampler needs at least one problem, and all blocks of a "
                "BlockDiagonalSampler must share one coupling structure")
        self._edge_keys: Tuple[Coupling, ...] = problems.keys
        self.num_blocks = len(problems)
        self.block_size = problems.num_variables
        self._bind(problems)
        self.block_classes = colour_classes(problems[0])
        self._class_widths = [group.size for group in self.block_classes]
        self._edge_pairs = np.array(self._edge_keys, dtype=np.int64).reshape(
            len(self._edge_keys), 2)
        #: Block-local CSR structure of the whole coupling matrix (slots in
        #: row-major, ascending-column order: the summation order of every
        #: local field); every kernel layout below is a row selection of it.
        edges, indices, indptr, _ = symmetric_csr_template(self.block_size,
                                                           self._edge_keys)
        self._csr = _RowCsr(*(np.asarray(part, dtype=np.int64)
                              for part in (indptr, indices, edges)))
        self._class_members = np.ascontiguousarray(
            np.concatenate(self.block_classes), dtype=np.int64)
        self._class_starts = np.concatenate(
            [[0], np.cumsum(self._class_widths)]).astype(np.int64)
        #: Row ``k`` maps a block's spins to the local field of
        #: ``_class_members[k]`` (same values, in the same ascending-column
        #: summation order, as the reference per-class operators).
        self._class_csr = self._csr.rows(self._class_members)

        self.block_clusters: List[np.ndarray] = [
            members for members in (np.asarray(cluster, dtype=np.intp)
                                    for cluster in clusters or ())
            if members.size]
        self._cluster_lengths = [members.size
                                 for members in self.block_clusters]
        cluster_members = np.concatenate(
            [np.empty(0, dtype=np.int64), *self.block_clusters]
        ).astype(np.int64)
        # Cluster-internal edges (both endpoints in one cluster), per
        # cluster in edge-key order.
        internal = [np.nonzero(np.isin(self._edge_pairs[:, 0], members)
                               & np.isin(self._edge_pairs[:, 1], members))[0]
                    for members in self.block_clusters]
        self._cluster_internal_edges = np.concatenate(
            [np.empty(0, dtype=np.int64), *internal]).astype(np.int64)
        self._cluster_csr = self._csr.rows(cluster_members)
        #: The pack's flattened cluster descriptor, structure filled in and
        #: values left for :meth:`_cluster_pack_descriptor` to gather.
        self._cluster_structure = backends.ClusterDescriptor(
            members=cluster_members,
            cluster_starts=np.concatenate(
                [[0], np.cumsum(self._cluster_lengths)]).astype(np.int64),
            data=None,
            indices=self._cluster_csr.indices,
            indptr=self._cluster_csr.indptr,
            edge_i=np.ascontiguousarray(
                self._edge_pairs[self._cluster_internal_edges, 0]),
            edge_j=np.ascontiguousarray(
                self._edge_pairs[self._cluster_internal_edges, 1]),
            edge_starts=np.concatenate(
                [[0], np.cumsum([edges.size for edges in internal])]
            ).astype(np.int64),
            edge_values=None,
        )
        # Built by the first numpy-loop anneal or coupling_matrix read.
        self._reference: Optional[_ReferenceOperators] = None
        #: What the backend keeps between calls over this structure (the
        #: cext argument block); travels with the sampler.
        self._kernel_workspace: Dict[str, object] = {}
        self._validated_temperatures: Optional[np.ndarray] = None
        self._last_sweep_work: Optional[backends.SweepWork] = None

    # ------------------------------------------------------------------ #
    # Structure bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def num_variables(self) -> int:
        """Total variable count of the combined block-diagonal problem."""
        return self.num_blocks * self.block_size

    @property
    def coupling_matrix(self) -> sparse.csr_matrix:
        """Symmetric CSR coupling matrix of the combined problem.

        For a one-block sampler this is exactly
        :meth:`repro.ising.model.IsingModel.coupling_operator` of the bound
        problem, so callers aggregating the sampler's own output can pass it
        to :func:`repro.ising.solver.aggregate_samples` instead of
        re-densifying the couplings.  ``refresh_values`` rewrites it in
        place, so the reference stays valid across rebinds.
        """
        return self._reference_operators().matrix

    @property
    def classes(self) -> List[np.ndarray]:
        """Combined (block-major) colour classes of the reference loops."""
        return self._reference_operators().classes

    @property
    def class_operators(self) -> List[sparse.csr_matrix]:
        """Combined per-class local-field operators of the reference loops."""
        return self._reference_operators().class_operators

    @property
    def selected_backend(self) -> str:
        """The concrete backend the ``backend=`` knob resolves to.

        Resolved per call rather than frozen at construction so that
        availability probes (monkeypatched in fallback tests) take effect
        without rebuilding the sampler; resolution itself is a cached
        dictionary lookup.  The resolved backend runs every pack shape, one
        whole-schedule dispatch per anneal.
        """
        return backends.resolve_backend(self.backend)

    @property
    def last_sweep_work(self) -> Optional[backends.SweepWork]:
        """Work counters of the latest :meth:`anneal` call's kernel dispatch
        (proposals, uniforms drawn, ``exp`` calls); ``None`` before the
        first call and on the numpy backend."""
        return self._last_sweep_work

    def __getstate__(self) -> Dict[str, object]:
        # The workspace holds ctypes pointers into this process; a copy
        # (a process worker's decoder) starts with an empty one.
        return {**self.__dict__, "_kernel_workspace": {}}

    def _bind(self, problems: IsingPack) -> None:
        """Point the sampler at *problems* (same structure, key order)."""
        self.isings = problems
        #: The pack's coupling values, ``(blocks, E)`` in edge-key order.
        self._values = problems.values
        self.linear = problems.linear.reshape(-1)

    def _combined_operator(self, csr: _RowCsr) -> sparse.csr_matrix:
        """Block-major stack of a block-local row CSR as one scipy operator
        over the combined variables (its data is bound by the caller)."""
        from scipy import sparse

        blocks = self.num_blocks
        offsets = np.arange(blocks, dtype=np.int64) * self.block_size
        counts = np.diff(csr.indptr)
        return sparse.csr_matrix(
            (np.empty(blocks * csr.indices.size),
             (csr.indices[None, :] + offsets[:, None]).ravel(),
             np.concatenate([[0], np.cumsum(np.tile(counts, blocks))])),
            shape=(blocks * counts.size, blocks * self.block_size))

    def _reference_operators(self) -> _ReferenceOperators:
        """The scipy operators, built on first use from the bound values."""
        if self._reference is None:
            offsets = np.arange(self.num_blocks,
                                dtype=np.intp) * self.block_size
            class_csrs = [self._class_csr.segment(start, stop)
                          for start, stop in zip(self._class_starts[:-1],
                                                 self._class_starts[1:])]
            cluster_starts = self._cluster_structure.cluster_starts
            cluster_csrs = [self._cluster_csr.segment(start, stop)
                            for start, stop in zip(cluster_starts[:-1],
                                                   cluster_starts[1:])]

            def combined_edges(ends: np.ndarray) -> List[np.ndarray]:
                starts = self._cluster_structure.edge_starts
                return [ends[start:stop, None] + offsets[None, :]
                        for start, stop in zip(starts[:-1], starts[1:])]

            bindings = [(self._combined_operator(csr), csr.edges)
                        for csr in (self._csr, *class_csrs, *cluster_csrs)]
            operators = [operator for operator, _ in bindings]
            self._reference = _ReferenceOperators(
                matrix=operators[0],
                classes=[(group[None, :] + offsets[:, None]).ravel()
                         for group in self.block_classes],
                class_operators=operators[1:1 + len(class_csrs)],
                cluster_columns=[
                    (members[None, :] + offsets[:, None]).ravel()
                    for members in self.block_clusters],
                cluster_operators=operators[1 + len(class_csrs):],
                cluster_int_i=combined_edges(self._cluster_structure.edge_i),
                cluster_int_j=combined_edges(self._cluster_structure.edge_j),
                bindings=bindings)
            self._bind_reference()
        return self._reference

    def _bind_reference(self) -> None:
        """Rewrite the scipy operators' data from the bound value matrix
        (and re-slice the per-cluster ``(edges, blocks)`` internal-edge
        values the reference cluster sweep subtracts)."""
        for operator, edges in self._reference.bindings:
            operator.data[:] = self._values[:, edges].ravel()
        starts = self._cluster_structure.edge_starts
        internal = self._values[:, self._cluster_internal_edges]
        self._cluster_int_v = [internal[:, start:stop].T
                               for start, stop in zip(starts[:-1], starts[1:])]

    def matches_structure(self, isings: Sequence[IsingModel]) -> bool:
        """Whether *isings* (any number of them) have this sampler's block
        size and sparsity, i.e. whether :meth:`refresh_values` takes them."""
        problems = IsingPack.stack(isings, self._edge_keys)
        return (problems is not None
                and problems.num_variables == self.block_size)

    def refresh_values(self, isings: Sequence[IsingModel]) -> None:
        """Rebind the sampler to new same-structure problems in place —
        as many of them as there are: the block count follows the pack.

        Swaps in the problems' value matrix (stacked in this sampler's key
        order; an :class:`~repro.ising.model.IsingPack` already in that
        order is taken as is); colour classes, cluster membership and all
        sparsity bookkeeping are block-level and reused unchanged.  Only
        the scipy reference operators span the combined blocks: when they
        have been built their ``.data`` is rewritten in place, or, after a
        change of block count, they are dropped for the next numpy-loop
        anneal to rebuild.  Raises :class:`AnnealerError` when the coupling
        structure differs (build a new sampler instead).
        """
        problems = IsingPack.stack(isings, self._edge_keys)
        if problems is None or not self.matches_structure(problems):
            raise AnnealerError(
                "refresh_values requires the same block size and coupling "
                "structure; construct a new sampler instead"
            )
        if len(problems) != self.num_blocks:
            self.num_blocks = len(problems)
            self._reference = None
        self._bind(problems)
        if self._reference is not None:
            self._bind_reference()

    def split_samples(self, samples: np.ndarray) -> List[np.ndarray]:
        """Split combined ``(R, blocks*P)`` samples into per-block matrices."""
        size = self.block_size
        return [samples[:, b * size:(b + 1) * size]
                for b in range(self.num_blocks)]

    # ------------------------------------------------------------------ #
    # The Metropolis sweep kernel
    # ------------------------------------------------------------------ #
    def _cluster_pack_descriptor(self) -> backends.ClusterDescriptor:
        """Flattened cluster descriptor of the pack for the backend kernels.

        The ragged member/internal-edge structure arrays are shared between
        blocks and derived once per sampler; ``data`` (the member
        local-field rows, same values in the same ascending-column
        summation order as the reference cluster operators) and
        ``edge_values`` are every block's values as ``(blocks, nnz)`` /
        ``(blocks, E)`` rows, one gather each from the bound value matrix,
        so rebound samplers always sweep the current values.  Without
        clusters this is the empty descriptor — "no clusters" is a
        zero-iteration cluster pass, not another entry point.
        """
        return self._cluster_structure._replace(
            data=np.take(self._values, self._cluster_csr.edges, axis=1),
            edge_values=np.take(self._values, self._cluster_internal_edges,
                                axis=1))

    def _cluster_sweep(self, spins: np.ndarray, temperature: float,
                       rngs: Sequence[np.random.Generator]) -> None:
        """Offer every cluster of every block a collective flip.

        Flipping all spins of a cluster leaves its internal couplings
        unchanged, so the energy difference only involves the cluster's
        coupling to the rest of the system and its linear fields.
        """
        num_replicas = spins.shape[0]
        blocks = self.num_blocks
        reference = self._reference_operators()
        for columns, operator, length, int_i, int_j, int_v in zip(
                reference.cluster_columns, reference.cluster_operators,
                self._cluster_lengths, reference.cluster_int_i,
                reference.cluster_int_j, self._cluster_int_v):
            cluster_fields = (operator @ spins.T).T + self.linear[columns]
            terms = (spins[:, columns] * cluster_fields).reshape(
                num_replicas, blocks, length)
            # Accumulate the member sum in explicit ascending-member order:
            # for clusters of fewer than 8 members this is bit-for-bit what
            # ``terms.sum(axis=2)`` computes (NumPy reduces short contiguous
            # runs sequentially), and it *defines* the summation order for
            # longer chains, so the compiled cluster kernels can reproduce
            # every boundary exactly regardless of NumPy's pairwise/SIMD
            # reduction strategy.
            boundary = np.zeros((num_replicas, blocks))
            for m in range(length):
                boundary += terms[:, :, m]
            for t in range(int_i.shape[0]):
                # Subtract the internal couplings, which were double counted
                # through the fields of both endpoints.
                boundary -= (2.0 * int_v[t] * spins[:, int_i[t]]
                             * spins[:, int_j[t]])
            delta = -2.0 * boundary
            accept = delta <= 0.0
            uphill = ~accept
            for b, rng in enumerate(rngs):
                uphill_b = uphill[:, b]
                count = int(np.count_nonzero(uphill_b))
                if count:
                    # delta > 0 here, acceptance probability exp(-delta / T).
                    accept[:, b][uphill_b] = (
                        rng.random(count)
                        < np.exp(-delta[:, b][uphill_b] / temperature))
            if np.any(accept):
                flips = np.where(np.repeat(accept, length, axis=1), -1.0, 1.0)
                spins[:, columns] *= flips

    def _dispatch_colour(self, spins: np.ndarray, temperatures: np.ndarray,
                         backend: str, rngs: Sequence[np.random.Generator],
                         keys: Optional[List[int]]
                         ) -> Optional[backends.SweepWork]:
        """Colour-class sweeps, whole pack and schedule in one dispatch.

        Blocks never interact and each has its own draw source, so the
        backend kernel evolves the pack block by block through the whole
        schedule — one dispatch per anneal instead of one per (block,
        sweep) — without changing any block's draw stream relative to the
        reference loops.  The two draw disciplines share every structural
        argument and differ only in the draw source: per-block generators
        (*keys* is ``None``) or per-block Philox *keys* plus
        ``self.threads``, whose numpy branch is the reference
        implementation of counter mode.  The ``(blocks, nnz)`` per-class
        local-field values are one gather from the bound value matrix per
        call, so samplers rebound through :meth:`refresh_values` always
        sweep the current values; the structure arrays are the sampler's
        own, which is what lets the backend keep its argument block in
        ``_kernel_workspace``.
        """
        shared = (backend, spins, self.linear, self._class_members,
                  self._class_starts,
                  np.take(self._values, self._class_csr.edges, axis=1),
                  self._class_csr.indices, self._class_csr.indptr,
                  self._cluster_pack_descriptor(), temperatures)
        if keys is None:
            return backends.pack_fused_colour_cluster_sweep(
                *shared, rngs, workspace=self._kernel_workspace)
        return backends.counter_pack_fused_colour_cluster_sweep(
            *shared, keys, threads=self.threads,
            workspace=self._kernel_workspace)

    def _anneal(self, temperatures: Sequence[float], num_replicas: int,
                rngs: Sequence[np.random.Generator],
                initial_spins: Optional[np.ndarray]) -> np.ndarray:
        """Run the replica-batched Metropolis trajectories of all blocks."""
        num_replicas = check_integer_in_range("num_replicas", num_replicas,
                                              minimum=1)
        temperatures = np.asarray(temperatures, dtype=float)
        if temperatures is not self._validated_temperatures:
            if temperatures.ndim != 1 or temperatures.size == 0:
                raise AnnealerError(
                    "temperatures must be a non-empty 1-D sequence")
            if np.any(temperatures <= 0):
                raise AnnealerError("temperatures must be strictly positive")
            # A read-only profile (the schedules' memoised ones) cannot
            # change after this check, so identity vouches for it next time.
            self._validated_temperatures = (
                None if temperatures.flags.writeable else temperatures)

        n = self.num_variables
        size = self.block_size
        counter_keys: Optional[List[int]] = None
        if self.rng_mode == "counter":
            # One Philox key per block, drawn from the block's generator
            # BEFORE any other use: seeding still flows from random_state,
            # and successive anneal calls (ICE batches) key fresh streams.
            counter_keys = [counter.block_key(rng) for rng in rngs]
        backend = self.selected_backend
        if initial_spins is not None:
            spins = np.asarray(initial_spins, dtype=np.float64).copy()
            if spins.shape != (num_replicas, n):
                raise AnnealerError(
                    f"initial_spins must have shape ({num_replicas}, {n}), "
                    f"got {spins.shape}"
                )
        elif counter_keys is not None:
            # Counter discipline: the initial configuration is a pure
            # function of the block keys, identical for every backend and
            # thread count.
            spins = backends.counter_initial_spins(backend, counter_keys,
                                                   num_replicas, size)
        else:
            # The annealer's initial superposition collapses to an unbiased
            # configuration under thermal sampling; each block draws its
            # own, from its own generator.
            spins = backends.sequential_initial_spins(
                backend, rngs, num_replicas, size, self._kernel_workspace)

        self._last_sweep_work = None
        if counter_keys is not None or backend != "numpy":
            # Every compiled backend, and the counter discipline on every
            # backend (its numpy reference lives behind the same entry
            # points): one backend dispatch per anneal.
            self._last_sweep_work = self._dispatch_colour(
                spins, temperatures, backend, rngs, counter_keys)
            return spins.astype(np.int8)

        reference = self._reference_operators()
        for temperature in temperatures:
            for group, operator, width in zip(reference.classes,
                                              reference.class_operators,
                                              self._class_widths):
                # Local field of every variable in the group, per replica:
                # (N x R) -> (blocks*|class| x R), then transpose.
                fields = (operator @ spins.T).T + self.linear[group]
                delta = -2.0 * spins[:, group] * fields
                accept = delta <= 0.0
                uphill = ~accept
                for b, rng in enumerate(rngs):
                    segment = slice(b * width, (b + 1) * width)
                    uphill_b = uphill[:, segment]
                    count = int(np.count_nonzero(uphill_b))
                    if count:
                        # delta > 0 on the uphill subset, acceptance
                        # probability exp(-delta / T).
                        accept[:, segment][uphill_b] = (
                            rng.random(count)
                            < np.exp(-delta[:, segment][uphill_b]
                                     / temperature))
                flips = np.where(accept, -1.0, 1.0)
                spins[:, group] *= flips
            if self.block_clusters:
                self._cluster_sweep(spins, temperature, rngs)

        return spins.astype(np.int8)

    def anneal(self, temperatures: Sequence[float], num_replicas: int,
               random_states: Sequence[RandomState],
               initial_spins: Optional[np.ndarray] = None) -> np.ndarray:
        """Anneal all blocks simultaneously, one generator per block.

        Parameters
        ----------
        temperatures:
            One temperature per Monte Carlo sweep (shared by all blocks).
        num_replicas:
            Independent trajectories per block (rows of the result).
        random_states:
            One randomness source per block; each block consumes draws from
            its own generator exactly as a one-block sampler with that
            generator would.
        initial_spins:
            Optional ``(num_replicas, blocks*P)`` starting configuration.

        Returns
        -------
        numpy.ndarray
            Combined final configurations, shape ``(num_replicas, blocks*P)``,
            entries ±1; use :meth:`split_samples` to separate the blocks.
        """
        rngs = [ensure_rng(state) for state in random_states]
        if len(rngs) != self.num_blocks:
            raise AnnealerError(
                f"need one random state per block: expected {self.num_blocks}, "
                f"got {len(rngs)}"
            )
        return self._anneal(temperatures, num_replicas, rngs, initial_spins)


class IsingSampler(BlockDiagonalSampler):
    """Reusable Metropolis sampler bound to one Ising problem.

    The one-block case of :class:`BlockDiagonalSampler` with a single-problem
    interface: ``anneal`` takes one randomness source, and
    ``matches_structure`` / ``refresh_values`` take one problem.  Precomputes
    the colour classes and per-class sparse coupling operators so that
    repeated runs (e.g. the batches of a QA job, or parameter sweeps on the
    same embedded problem) avoid re-deriving the graph structure; when only
    the coefficient *values* change between runs (ICE perturbations redraw
    every coefficient but never the sparsity pattern), ``refresh_values``
    rebinds the sampler in place.
    """

    def __init__(self, ising: IsingModel,
                 clusters: Optional[List[np.ndarray]] = None,
                 backend: str = "auto", rng: str = "sequential",
                 threads: int = 1):
        super().__init__([ising], clusters=clusters, backend=backend,
                         rng=rng, threads=threads)
        self.ising = ising
        #: Cluster member arrays (same as the block-level clusters).
        self.clusters = self.block_clusters

    def matches_structure(self, ising) -> bool:
        """Whether *ising* has this sampler's variable count and sparsity."""
        if isinstance(ising, IsingModel):
            ising = [ising]
        return super().matches_structure(ising)

    def refresh_values(self, ising: IsingModel) -> None:
        """Rebind the sampler to a same-structure problem with new values."""
        super().refresh_values([ising])
        self.ising = ising

    def anneal(self, temperatures: Sequence[float], num_replicas: int,
               random_state: RandomState = None,
               initial_spins: Optional[np.ndarray] = None) -> np.ndarray:
        """Run *num_replicas* simultaneous Metropolis trajectories.

        Parameters
        ----------
        temperatures:
            One temperature per Monte Carlo sweep.
        num_replicas:
            Number of independent trajectories (rows of the returned matrix).
        initial_spins:
            Optional ``(num_replicas, N)`` starting configuration; uniform
            random when omitted.

        Returns
        -------
        numpy.ndarray
            Final spin configurations, shape ``(num_replicas, N)``, entries ±1.
        """
        return self._anneal(temperatures, num_replicas,
                            [ensure_rng(random_state)], initial_spins)
