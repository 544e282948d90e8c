"""Vectorised stochastic sampling engine for the annealer simulator.

This module is the *single* Metropolis core of the repository: the annealer
simulator, the classical :class:`~repro.ising.solver.SimulatedAnnealingSolver`
baseline and the batched OFDM decode path all sample through it.

One "anneal" of the simulated machine is one Metropolis trajectory over the
embedded Ising problem, following the temperature profile of its
:class:`~repro.annealer.schedule.AnnealSchedule`.  All anneals of a batch
evolve simultaneously as replica rows of a spin matrix, and variables are
updated one graph-colour class at a time: no two variables of a class
interact, so the simultaneous flips are exact single-spin-flip dynamics.
A dense *logical* problem colours into singletons, which the same kernel
sweeps one variable at a time in class order.

:class:`BlockDiagonalSampler` evolves ``num_blocks`` structurally identical
problems laid out as one block-diagonal problem (the subcarriers of an OFDM
symbol, Section 5.5 of the paper), each block drawing its randomness from
its own generator so the trajectories are bit for bit those of independent
per-problem anneals; :class:`IsingSampler` is its one-block case.  The
sampler holds the pack's coefficients as one ``(blocks, E)`` value matrix
(:class:`~repro.ising.model.IsingPack`) and every kernel layout is a gather
from it through slot→edge maps derived once per structure, so
:meth:`BlockDiagonalSampler.refresh_values` rebinds a warm sampler to new
same-structure problems by swapping the matrix.

The box, not a setting, picks the implementation of the inner loop: the
compiled translation from :mod:`repro.annealer.backends` wherever the C
artefact loads (:func:`~repro.annealer.backends.cext_available`), else the
reference loops in this module; both consume the exact same draw stream.
Every anneal is one call of the ICE-batch loop — before each batch every
block perturbs the bound values from its own generator; no ICE is one
noise-free batch — through :meth:`BlockDiagonalSampler.anneal`: on the
artefact one call per range of blocks
(:func:`~repro.annealer.backends.pack_ice_batches`), which also programs
and reads out a served machine pack (``program=``); the NumPy path
perturbs, rebinds and anneals batch by batch, its oracle.
"""

from __future__ import annotations

from itertools import chain
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.annealer import backends, counter
from repro.annealer.ice import ICEModel
from repro.exceptions import AnnealerError
from repro.ising.model import (Coupling, IsingModel, IsingPack,
                               symmetric_csr_template)
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range

if TYPE_CHECKING:  # only the numpy reference operators are scipy's
    from scipy import sparse


def colour_classes(ising) -> List[np.ndarray]:
    """Partition variables into independent sets of the coupling graph of
    an :class:`~repro.ising.model.IsingModel` or of an
    :class:`~repro.ising.model.IsingPack`'s one structure.

    Largest-first greedy colouring — variables in order of descending
    degree (ties in index order), each given the smallest colour no
    neighbour holds; the classes are exactly those of networkx's
    ``greedy_color(strategy="largest_first")``, which every seeded stream
    was frozen under.  Chimera-embedded problems need only a handful of
    colours, while a fully-connected logical problem degenerates to one
    variable per class (still correct, just less parallel).
    """
    neighbours: List[List[int]] = [[] for _ in range(ising.num_variables)]
    for i, j in (ising.keys if isinstance(ising, IsingPack)
                 else ising.coupling_keys):
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
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
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

    Block ``b`` occupies variables ``[b*P, (b+1)*P)`` with no cross-block
    couplings, so the combined trajectory factorises exactly into the
    blocks' own.  Every sparse matvec, energy difference and acceptance
    mask is computed on the combined arrays (the Section 5.5
    multi-subcarrier parallelization), while each block draws from its
    *own* generator in exactly the order a one-block sampler would, so a
    multi-block anneal is bit for bit the per-block serial anneals.

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
    rng:
        Draw discipline: ``"sequential"`` (default) consumes each block's
        generator in the reference loops' order; ``"counter"`` values every
        uniform by a Philox counter addressed by ``(site, sweep, replica,
        move_tag)`` under a per-block key drawn once per batch from the
        block's generator (:mod:`repro.annealer.counter`), identical across
        backends *and* CPU counts.  A cext call of either discipline
        shards the pack's blocks over the usable CPUs by itself.

    A sampler keeps per-structure kernel workspaces between anneals, so one
    instance serves one :meth:`anneal` call at a time (the machine's warm
    cache hands samplers out by checkout for that reason).
    """

    def __init__(self, isings: Sequence[IsingModel],
                 clusters: Optional[List[np.ndarray]] = None,
                 rng: str = "sequential"):
        if rng not in backends.RNG_MODES:
            raise AnnealerError(
                f"rng must be one of {backends.RNG_MODES}, got {rng!r}")
        #: Draw discipline (named ``rng_mode`` internally: ``rng`` stays the
        #: conventional local name for generator instances).
        self.rng_mode = rng
        # The artefact's one-time compile cost is paid at construction
        # instead of inside the first timed anneal.
        backends.warmup()
        problems = IsingPack.stack(isings)
        if problems is None:
            raise AnnealerError(
                "the sampler needs at least one problem, and all blocks of a "
                "BlockDiagonalSampler must share one coupling structure")
        self._edge_keys: Tuple[Coupling, ...] = problems.keys
        self.num_blocks = len(problems)
        self.block_size = problems.num_variables
        self._bind(problems)
        self.block_classes = colour_classes(problems)
        self._class_widths = [group.size for group in self.block_classes]
        self._edge_pairs = np.fromiter(
            chain.from_iterable(self._edge_keys), dtype=np.int64,
            count=2 * len(self._edge_keys)).reshape(-1, 2)
        #: Block-local CSR structure of the whole coupling matrix (slots in
        #: row-major, ascending-column order: the summation order of every
        #: local field); every kernel layout below is a row selection of it.
        edges, indices, indptr = symmetric_csr_template(self.block_size,
                                                        self._edge_keys)
        self._csr = _RowCsr(*(np.asarray(part, dtype=np.int64)
                              for part in (indptr, indices, edges)))
        self._class_members = np.ascontiguousarray(
            np.concatenate(self.block_classes), dtype=np.int64)
        self._class_starts = np.cumsum([0, *self._class_widths],
                                       dtype=np.int64)
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
        # cluster in edge-key order: the row-major nonzeros of a
        # (clusters, edges) membership test.
        inside = np.zeros((len(self.block_clusters), self.block_size),
                          dtype=bool)
        inside[np.repeat(np.arange(len(self.block_clusters)),
                         self._cluster_lengths), cluster_members] = True
        owner, internal = np.nonzero(inside[:, self._edge_pairs[:, 0]]
                                     & inside[:, self._edge_pairs[:, 1]])
        self._cluster_internal_edges = internal.astype(np.int64)
        self._cluster_csr = self._csr.rows(cluster_members)
        #: The pack's flattened cluster descriptor, structure filled in and
        #: values left to the batch call to gather per batch.
        self._cluster_structure = backends.ClusterDescriptor(
            members=cluster_members,
            cluster_starts=np.cumsum([0, *self._cluster_lengths],
                                     dtype=np.int64),
            data=None,
            indices=self._cluster_csr.indices,
            indptr=self._cluster_csr.indptr,
            edge_i=np.ascontiguousarray(
                self._edge_pairs[self._cluster_internal_edges, 0]),
            edge_j=np.ascontiguousarray(
                self._edge_pairs[self._cluster_internal_edges, 1]),
            edge_starts=np.cumsum([0, *np.bincount(
                owner, minlength=len(self.block_clusters))], dtype=np.int64),
            edge_values=None,
        )
        #: The batch call's structure arguments, schedule aside.
        self._batch_structure = (
            self._class_members, self._class_starts, self._class_csr.indices,
            self._class_csr.indptr, self._cluster_structure,
            self._class_csr.edges, self._cluster_internal_edges)
        # Built by the first numpy-loop anneal or coupling_matrix read.
        self._reference: Optional[_ReferenceOperators] = None
        #: What the backend keeps between calls over this structure (the
        #: cext argument block); travels with the sampler.
        self._kernel_workspace: Dict[str, object] = {}
        #: One prepared batch call per pack size (:meth:`_route`).
        self._routes: Dict[int, tuple] = {}
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
        """Which implementation sweeps: ``"cext"`` wherever the C artefact
        loads (:func:`~repro.annealer.backends.cext_available`, the probe
        every pack stage reads too), else ``"numpy"``.

        Read per call rather than frozen at construction, so one sampler
        serves either path; the probe itself is a cached lookup.  The
        selected implementation runs every pack shape, one batch call per
        anneal.
        """
        return "cext" if backends.cext_available() else "numpy"

    @property
    def last_sweep_work(self) -> Optional[backends.SweepWork]:
        """Work counters of the latest :meth:`anneal` call's last swept
        batch (proposals, uniforms drawn, ``exp`` calls, summed over its
        ranges); ``None`` on the NumPy path and unless there is one."""
        work = self._last_sweep_work
        return work if work is None or work.proposals else None

    def __getstate__(self) -> Dict[str, object]:
        # Both hold ctypes pointers: a copy (a process worker's) starts bare.
        return {**self.__dict__, "_kernel_workspace": {}, "_routes": {}}

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
    def _cluster_sweep(self, spins: np.ndarray, temperature: float,
                       sweep: int, uniforms) -> None:
        """Offer every cluster of every block a collective flip, drawing
        from *uniforms* (:meth:`_anneal`'s draw source; a cluster's counter
        site is its index).

        Flipping all spins of a cluster leaves its internal couplings
        unchanged, so the energy difference only involves the cluster's
        coupling to the rest of the system and its linear fields.
        """
        num_replicas = spins.shape[0]
        blocks = self.num_blocks
        reference = self._reference_operators()
        for c, (columns, operator, length, int_i, int_j, int_v) in enumerate(
                zip(reference.cluster_columns, reference.cluster_operators,
                    self._cluster_lengths, reference.cluster_int_i,
                    reference.cluster_int_j, self._cluster_int_v)):
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
            for b in range(blocks):
                segment = slice(b, b + 1)  # one column: counter site c + 0
                uphill_b = uphill[:, segment]
                count = int(np.count_nonzero(uphill_b))
                if count:
                    # delta > 0 here, acceptance probability exp(-delta / T).
                    accept[:, segment][uphill_b] = (
                        uniforms(b, uphill_b, count, c, sweep,
                                 counter.TAG_CLUSTER)
                        < np.exp(-delta[:, segment][uphill_b] / temperature))
            if np.any(accept):
                flips = np.where(np.repeat(accept, length, axis=1), -1.0, 1.0)
                spins[:, columns] *= flips

    def _checked_temperatures(self, temperatures: Sequence[float]
                              ) -> np.ndarray:
        """*temperatures* as a contiguous float array (the compiled calls
        keep its address), checked non-empty, 1-D and strictly positive."""
        temperatures = np.ascontiguousarray(temperatures, dtype=float)
        if temperatures is not self._validated_temperatures:
            if temperatures.ndim != 1 or temperatures.size == 0:
                raise AnnealerError(
                    "temperatures must be a non-empty 1-D sequence")
            if np.any(temperatures <= 0):
                raise AnnealerError("temperatures must be strictly positive")
            # A read-only profile (a schedule's, which a machine keeps) cannot
            # change after this check, so identity vouches for it next time.
            self._validated_temperatures = (
                None if temperatures.flags.writeable else temperatures)
        return temperatures

    def _anneal(self, temperatures: np.ndarray, num_replicas: int,
                rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One batch on the NumPy path: the replica-batched Metropolis
        trajectories of all blocks from a drawn start — the reference loops
        the artefact's batch call reproduces, one sweep for both draw
        disciplines.

        They differ only in the draw source ``uniforms``, as in the C
        kernel: the *count* uniforms of block ``b``'s ``uphill`` entries
        come from ``rngs[b]`` in loop order (sequential), or from the Philox
        counter at ``(site + column, sweep, replica, tag)`` under the
        block's key, in any order (counter).
        """
        size = self.block_size
        keys = None
        if self.rng_mode == "counter":
            # One Philox key per block, drawn from the block's generator
            # BEFORE any other use: seeding still flows from random_state,
            # and successive batches key fresh streams.  The start is a pure
            # function of the keys.
            keys = [counter.block_key(rng) for rng in rngs]
            spins = backends.counter_initial_spins(keys, num_replicas, size)
        else:
            # The annealer's initial superposition collapses to an unbiased
            # configuration under thermal sampling; each block draws its
            # own, from its own generator.
            spins = backends.sequential_initial_spins(rngs, num_replicas, size)

        def uniforms(b, uphill, count, site, sweep, tag):
            if keys is None:
                return rngs[b].random(count)
            replicas, columns = np.nonzero(uphill)
            return counter.philox_uniform(site + columns, sweep, replicas,
                                          tag, keys[b])

        reference = self._reference_operators()
        for sweep, temperature in enumerate(temperatures):
            for group, operator, width, start in zip(
                    reference.classes, reference.class_operators,
                    self._class_widths, self._class_starts):
                # Local field of every variable in the group, per replica:
                # (N x R) -> (blocks*|class| x R), then transpose.
                fields = (operator @ spins.T).T + self.linear[group]
                delta = -2.0 * spins[:, group] * fields
                accept = delta <= 0.0
                uphill = ~accept
                for b in range(self.num_blocks):
                    segment = slice(b * width, (b + 1) * width)
                    uphill_b = uphill[:, segment]
                    count = int(np.count_nonzero(uphill_b))
                    if count:
                        # delta > 0 on the uphill subset, acceptance
                        # probability exp(-delta / T).  A member's counter
                        # site is its row in the concatenated class order.
                        accept[:, segment][uphill_b] = (
                            uniforms(b, uphill_b, count, start, sweep,
                                     counter.TAG_SWEEP)
                            < np.exp(-delta[:, segment][uphill_b]
                                     / temperature))
                flips = np.where(accept, -1.0, 1.0)
                spins[:, group] *= flips
            if self.block_clusters:
                self._cluster_sweep(spins, temperature, sweep, uniforms)

        return spins.astype(np.int8)

    def _per_problem(self, temperatures: np.ndarray, fields: np.ndarray,
                     couplings: np.ndarray, blocks: slice, rows: int,
                     rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """One batch of *blocks* from their perturbed *fields* and
        *couplings* when one of those is exactly zero: that problem lost a
        coupling, so the blocks no longer share one structure; each anneals
        on a sampler of its own (identical trajectories, just not packed)."""
        perturbed = IsingPack(self.block_size, self._edge_keys,
                              fields.copy(), couplings.copy(),
                              self.isings.offsets[blocks])
        return np.concatenate([
            IsingSampler(problem, clusters=self.block_clusters,
                         rng=self.rng_mode).anneal(
                temperatures, rows, random_state=rng)
            for problem, rng in zip(perturbed, rngs[blocks])], axis=1)

    def _ice_batches(self, temperatures: np.ndarray, num_replicas: int,
                     rngs: List[np.random.Generator], ice: Optional[ICEModel],
                     batch: int) -> np.ndarray:
        """:meth:`anneal`'s batches: one artefact call per range of blocks
        on cext, the NumPy path's loop otherwise (the oracle).  Both check
        for an exactly cancelled coupling only with *ice*."""
        physical = np.empty((num_replicas, self.num_variables), dtype=np.int8)
        if self.selected_backend == "cext":
            _, _, prepared, fallback = self._route(
                temperatures, num_replicas, rngs, ice, batch, None)
            self._last_sweep_work = backends.pack_ice_batches(
                prepared, physical, self.linear, self._values, rngs, fallback)
            return physical
        self._last_sweep_work = None
        programmed = self.isings
        for start in range(0, num_replicas, batch):
            rows = min(batch, num_replicas - start)
            if ice is not None:
                perturbed = ice.perturb_pack(programmed, rngs)
                if not perturbed.values.all():
                    physical[start:start + rows] = self._per_problem(
                        temperatures, perturbed.linear, perturbed.values,
                        slice(None), rows, rngs)
                    continue
                self._rebind(perturbed)
            physical[start:start + rows] = self._anneal(temperatures, rows,
                                                        rngs)
        self._rebind(programmed)
        return physical

    def _route(self, temperatures, num_replicas: int, rngs: list, ice,
               batch: int, program: Optional[tuple]) -> tuple:
        """The kept batch call of a pack of ``len(rngs)`` blocks: one route
        per pack size, rebuilt in place when anything else it is built from
        differs — the schedule and ICE model (by id: the route holds both
        alive), anneal count, ``ice_batch_size``, the served *program*'s
        plan and compile settings (the plan's keys fix the template, which
        the route holds alive), and the backend's split settings (usable
        CPUs, ``_SPLIT_SPINS``, the lane cut, the bit generator type, shared
        generators); the schedule and counts are checked when it is built.
        Returns
        ``(stamp, kept, prepared call, fallback)``, then, serving
        *program*, the bound pack the call programs and its out-array.
        """
        blocks = len(rngs)
        stamp = (id(temperatures), num_replicas, id(ice), batch,
                 program and program[2:],
                 backends._USABLE_CPUS or backends._usable_cpus(),
                 backends._SPLIT_SPINS, backends._lane_cut,
                 type(rngs[0].bit_generator),
                 blocks > 1 and len(
                     {id(rng.bit_generator) for rng in rngs}) < blocks)
        route = self._routes.get(blocks)
        if route is not None and route[0] == stamp:
            return route
        if self.selected_backend != "cext":
            raise AnnealerError("program= needs the C artefact")
        profile = self._checked_temperatures(temperatures)
        num_replicas = check_integer_in_range("num_replicas", num_replicas,
                                              minimum=1)
        batch = check_integer_in_range("ice_batch_size", batch, minimum=1)
        width, size, out, tail = len(self._edge_keys), self.block_size, None, ()
        if program:
            template, plan = program[1:3]
            bound = IsingPack(size, self._edge_keys, np.empty((blocks, size)),
                              np.empty((blocks, width)), np.zeros(blocks))
            out = backends.PackReadOut(
                template, np.empty(
                    (blocks, num_replicas, plan.num_logical), dtype=np.int8),
                plan, program[3:], bound.linear, bound.values)
            tail = (bound, np.empty((num_replicas, blocks * size),
                                    dtype=np.int8))
        route = self._routes[blocks] = (
            stamp, (temperatures, ice, program and program[1]),
            backends.prepare_batches(
                self._kernel_workspace, (num_replicas, blocks * size), width,
                (*self._batch_structure, profile), rngs, batch, ice,
                self.rng_mode, out),
            lambda *args: self._per_problem(profile, *args), *tail)
        return route

    def _rebind(self, problems: IsingPack) -> None:
        """Bind a same-structure pack of this sampler's block count (an ICE
        realisation of the bound one: no structure check)."""
        if problems is not self.isings:
            self._bind(problems)
            if self._reference is not None:
                self._bind_reference()

    def anneal(self, temperatures: Sequence[float], num_replicas: int,
               random_states: Sequence[RandomState], *,
               ice: Optional[ICEModel] = None,
               ice_batch_size: Optional[int] = None,
               program: Optional[tuple] = None):
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
            generator would: per batch its ICE shifts, then (counter
            discipline) its key, its initial spins and its sweeps.
        ice, ice_batch_size:
            The machine's intrinsic control error: the replicas run in
            batches of *ice_batch_size* (default: one), and before each
            every block draws one
            :meth:`~repro.annealer.ice.ICEModel.perturb_pack` realisation
            of the bound values from its own generator; a batch in which a
            perturbed coupling lands on exactly zero anneals problem by
            problem.  Without *ice*: the bound values as they are, no zero
            check.  :attr:`last_sweep_work` counts the last batch.
        program:
            On the C artefact, ``(logical, logical CSR template, plan, base
            scale, coupler range, field range)`` serves a machine pack
            (*random_states* then generators) that the batch call programs
            (``embed_pack``'s passes) and reads out: returns its
            ``PackReadOut``, or ``None``, nothing drawn, when a coupling
            scales to ``0.0``.

        Returns
        -------
        numpy.ndarray
            Combined final configurations, shape ``(num_replicas, blocks*P)``,
            entries ±1; use :meth:`split_samples` to separate the blocks.
        """
        if program is not None:  # checked once per route, not per pack
            logical, blocks = program[0], len(program[0])
            if len(random_states) != blocks:
                raise AnnealerError("need one generator per logical problem")
            _, _, prepared, fallback, bound, physical = self._route(
                temperatures, num_replicas, random_states, ice,
                num_replicas if ice_batch_size is None else ice_batch_size,
                program)
            if blocks != self.num_blocks:
                self.num_blocks = blocks
                self._reference = None
            self._bind(bound)
            work = backends.pack_ice_batches(
                prepared, physical, logical.linear, logical.values,
                random_states, fallback)
            if work is None:
                return None
            self._last_sweep_work = work
            if self._reference is not None:  # the call wrote the bound values
                self._bind_reference()
            return prepared[4]
        rngs = [ensure_rng(state) for state in random_states]
        if len(rngs) != self.num_blocks:
            raise AnnealerError(
                f"need one random state per block: expected "
                f"{self.num_blocks}, got {len(rngs)}")
        num_replicas = check_integer_in_range("num_replicas", num_replicas,
                                              minimum=1)
        batch = num_replicas if ice_batch_size is None else (
            check_integer_in_range("ice_batch_size", ice_batch_size,
                                   minimum=1))
        return self._ice_batches(self._checked_temperatures(temperatures),
                                 num_replicas, rngs, ice, batch)


class IsingSampler(BlockDiagonalSampler):
    """Reusable Metropolis sampler bound to one Ising problem.

    The one-block adapter of :class:`BlockDiagonalSampler`: ``anneal``
    takes one randomness source and delegates (one noise-free batch, the
    same call a machine pack makes), and ``matches_structure`` /
    ``refresh_values`` take one problem.  It is what
    :class:`~repro.ising.solver.SimulatedAnnealingSolver` and a pack's
    per-problem fallback anneal on.  Repeated runs on one problem reuse its
    colour classes and kernel workspace; when only the coefficient *values*
    change between runs, ``refresh_values`` rebinds the sampler in place.
    """

    def __init__(self, ising: IsingModel,
                 clusters: Optional[List[np.ndarray]] = None,
                 rng: str = "sequential"):
        super().__init__([ising], clusters=clusters, rng=rng)
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
               random_state: RandomState = None) -> np.ndarray:
        """Run *num_replicas* simultaneous Metropolis trajectories: one
        noise-free batch of :meth:`BlockDiagonalSampler.anneal` with one
        randomness source.

        Parameters
        ----------
        temperatures:
            One temperature per Monte Carlo sweep.
        num_replicas:
            Number of independent trajectories (rows of the returned matrix).
        random_state:
            The problem's randomness source; the start is drawn from it.

        Returns
        -------
        numpy.ndarray
            Final spin configurations, shape ``(num_replicas, N)``, entries ±1.
        """
        return super().anneal(temperatures, num_replicas, [random_state])
