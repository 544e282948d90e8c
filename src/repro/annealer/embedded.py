"""Construction of the embedded (hardware-ready) Ising problem.

Appendix B of the paper: once a logical Ising problem and a chain embedding
are fixed, the problem actually programmed on the chip consists of

* ferromagnetic couplings of maximal negative strength holding each chain
  together (``-1`` in hardware units, ``-2`` when the extended dynamic range
  is enabled);
* the logical couplings ``g_ij`` scaled down by ``1 / |J_F|`` and placed on
  the single physical coupler where chains *i* and *j* meet;
* the logical fields ``f_i`` scaled by ``1 / (|J_F| * chain_length)`` and
  spread uniformly over the qubits of chain *i*.

Because the chain couplings are pinned at the hardware maximum, increasing
``|J_F|`` shrinks the programmed problem coefficients; combined with the
absolute ICE noise this is what produces the performance optimum in
``|J_F|`` observed in the paper's Fig. 5.

Everything but the coefficient *values* is derived once per embedding and
key tuple as an :class:`EmbeddingPlan`; compiling is then a few array
passes over a pack (:func:`embed_pack`; :func:`embed_ising` is the pack of
one), which the C artefact runs inside a machine pack's batch call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.annealer.embedding import Embedding
from repro.exceptions import EmbeddingError
from repro.ising.model import Coupling, IsingModel, IsingPack
from repro.utils.validation import check_positive

#: Hardware coefficient ranges of the DW2Q (in dimensionless machine units).
COUPLER_MIN_STANDARD = -1.0
COUPLER_MIN_EXTENDED = -2.0
COUPLER_MAX = 1.0
FIELD_MIN = -2.0
FIELD_MAX = 2.0


class EmbeddingPlan:
    """Structure of every problem with one logical key tuple on one embedding.

    The compact qubit order, which physical coupler realises each logical
    pair, the chain couplers, how fields spread over chains and the
    flattened chain index the unembedder reduces over — a pure function of
    ``(embedding, logical variable count, logical coupling keys)``, kept by
    a machine with the structure it serves and shared, immutable, by every
    pack (of any size) with that structure.

    ``direct`` marks a collision-free embedding (vertex-disjoint chains,
    every coupler used once): each physical coupler then receives exactly
    one value and ``physical_keys`` — chain couplers first (Eq. 10), then
    the crossing couplers in logical key order (Eq. 12) — is the programmed
    key tuple of every such problem.  Otherwise :func:`embed_pack` keeps the
    general accumulate-and-clip loop per problem.
    """

    def __init__(self, embedding: Embedding, num_logical: int,
                 logical_keys: Tuple[Coupling, ...]):
        if embedding.num_logical < num_logical:
            raise EmbeddingError(
                f"embedding covers {embedding.num_logical} variables, the "
                f"problem has {num_logical}")
        self.num_logical = num_logical
        self.logical_keys = logical_keys
        chains = [embedding.chains[index] for index in range(num_logical)]
        self.qubit_order: Tuple[int, ...] = tuple(
            sorted({qubit for chain in chains for qubit in chain}))
        position = {qubit: index
                    for index, qubit in enumerate(self.qubit_order)}
        #: The problem's chains in compact physical indices, in the
        #: embedding's own chain order (the sampler's cluster order).
        self.chains: Dict[int, Tuple[int, ...]] = {
            logical: tuple(position[qubit] for qubit in chain)
            for logical, chain in embedding.chains.items()
            if logical < num_logical}
        logical_of = [0] * len(self.qubit_order)
        for logical_index, chain in enumerate(chains):
            for qubit in chain:
                logical_of[position[qubit]] = logical_index
        self.logical_of: Tuple[int, ...] = tuple(logical_of)
        #: ``logical_of`` as a gather index, and the chain lengths it
        #: spreads the fields by (Eq. 11).
        self.logical_index = np.asarray(logical_of, dtype=np.int64)
        self.chain_lengths = np.array([len(chain) for chain in chains],
                                      dtype=float)
        #: What the majority vote reduces over: all chains' compact members
        #: in logical order, chain *i* being
        #: ``chain_members[chain_bounds[i]:chain_bounds[i + 1]]``.
        ordered = [self.chains[index] for index in range(num_logical)]
        self.chain_members = np.array(
            [qubit for chain in ordered for qubit in chain], dtype=np.int64)
        self.chain_bounds = np.cumsum([0] + [len(chain) for chain in ordered],
                                      dtype=np.int64)

        def compact(edge) -> Coupling:
            a, b = position[edge[0]], position[edge[1]]
            return (a, b) if a < b else (b, a)

        self._chain_keys = [compact(edge)
                            for logical_index in range(num_logical)
                            for edge in embedding.chain_edges[logical_index]]
        self._crossing_keys = []
        for pair in logical_keys:
            coupler = embedding.logical_couplers.get(pair)
            if coupler is None:
                coupler = embedding.logical_couplers.get((pair[1], pair[0]))
            if coupler is None:
                raise EmbeddingError(
                    f"embedding provides no coupler for logical pair {pair}")
            self._crossing_keys.append(compact(coupler))
        used = set(self._chain_keys)
        self.direct = (
            sum(map(len, chains)) == len(self.qubit_order)
            and len(used) == len(self._chain_keys)
            and len(set(self._crossing_keys)) == len(self._crossing_keys)
            and used.isdisjoint(self._crossing_keys))
        self.num_chain_couplers = len(self._chain_keys)
        self.physical_keys: Optional[Tuple[Coupling, ...]] = (
            tuple(self._chain_keys + self._crossing_keys)
            if self.direct else None)

    @property
    def num_physical(self) -> int:
        """Number of physical qubits programmed."""
        return len(self.qubit_order)

    @cached_property
    def clusters(self) -> List[np.ndarray]:
        """The chains as the sampler's collective-flip clusters."""
        return [np.asarray(chain, dtype=np.intp)
                for chain in self.chains.values()]

    def accumulate(self, linear: np.ndarray, values: Sequence[float],
                   chain_coupling: float
                   ) -> Tuple[np.ndarray, Dict[Coupling, float], int]:
        """Program one scaled problem by the general accumulate-and-clip
        loop (chains may share qubits, couplers may be reused): the fields,
        the couplings in first-insertion order, and the couplers clipped."""
        fields = np.zeros(self.num_physical)
        couplings: Dict[Coupling, float] = {}
        clipped = 0

        def add_coupling(key: Coupling, value: float) -> None:
            nonlocal clipped
            total = couplings.get(key, 0.0) + value
            if total < chain_coupling or total > COUPLER_MAX:
                clipped += 1
                total = float(np.clip(total, chain_coupling, COUPLER_MAX))
            couplings[key] = total

        # Chain ferromagnetic couplings (Eq. 10).
        for key in self._chain_keys:
            add_coupling(key, chain_coupling)
        # Logical fields spread over the chain (Eq. 11).  The scaled field
        # is already expressed relative to the chain coupling (the problem
        # scale folds in the 1 / |J_F| factor), so only the per-chain split
        # remains.
        for logical_index in range(self.num_logical):
            chain = self.chains[logical_index]
            share = linear[logical_index] / len(chain)
            for qubit in chain:
                fields[qubit] += share
        # Logical couplings on the designated crossing coupler (Eq. 12).
        for key, value in zip(self._crossing_keys, values):
            add_coupling(key, value)
        return fields, couplings, clipped


@dataclass(frozen=True, eq=False)
class EmbeddedPack(Sequence):
    """A pack of hardware-ready problems of one structure, as arrays: the
    *embedding* used, the shared *plan*, the *logical* problems stacked,
    the programmed *problems* over compact physical indices ``0 .. P-1``
    (one key tuple, ``(problems, P)`` fields, ``(problems, E)`` couplers),
    per problem the auto-ranging *problem_scale* and the coefficients
    *clipped* into the hardware range, and the compile settings
    *chain_strength* and *extended_range*.  Indexing yields the
    per-problem :class:`EmbeddedIsing` view.
    """

    embedding: Embedding
    plan: EmbeddingPlan
    logical: IsingPack
    problems: IsingPack
    problem_scale: np.ndarray
    clipped: np.ndarray
    chain_strength: float
    extended_range: bool

    def __len__(self) -> int:
        return len(self.problems)

    def __getitem__(self, index: int) -> "EmbeddedIsing":
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        return EmbeddedIsing(self, index)


@dataclass(frozen=True, eq=False)
class EmbeddedIsing:
    """A hardware-ready Ising problem plus the bookkeeping to unembed it.

    One row of an :class:`EmbeddedPack`; everything is read through to the
    pack's arrays and plan, so holding one costs nothing until it is read.
    """

    pack: EmbeddedPack
    index: int

    @cached_property
    def ising(self) -> IsingModel:
        """Ising problem over *compact* physical indices ``0 .. P-1``."""
        return self.pack.problems[self.index]

    @property
    def embedding(self) -> Embedding:
        """The logical-to-physical chain embedding used."""
        return self.pack.embedding

    @property
    def qubit_order(self) -> Tuple[int, ...]:
        """``qubit_order[c]`` is the hardware qubit id of compact index ``c``."""
        return self.pack.plan.qubit_order

    @property
    def logical_of(self) -> Tuple[int, ...]:
        """``logical_of[c]`` is the logical variable compact index ``c``
        represents."""
        return self.pack.plan.logical_of

    @property
    def chain_strength(self) -> float:
        """The ``|J_F|`` used."""
        return self.pack.chain_strength

    @property
    def extended_range(self) -> bool:
        """Whether the extended (doubled negative) coupler range was used."""
        return self.pack.extended_range

    @property
    def problem_scale(self) -> float:
        """The factor the logical coefficients were multiplied by before
        embedding (auto-ranging to the hardware interval)."""
        return float(self.pack.problem_scale[self.index])

    @property
    def clipped_coefficients(self) -> int:
        """Number of programmed coefficients that had to be clipped into the
        hardware range (a precision-loss indicator)."""
        return int(self.pack.clipped[self.index])

    @property
    def num_physical(self) -> int:
        """Number of physical qubits programmed."""
        return self.pack.plan.num_physical

    @property
    def compact_chains(self) -> Dict[int, Tuple[int, ...]]:
        """Chains expressed in compact physical indices."""
        return self.pack.plan.chains


def compile_settings(chain_strength: float, extended_range: bool
                     ) -> Tuple[float, Tuple[float, float],
                                Tuple[float, float]]:
    """``(base scale, coupler range, field range)`` of a compile: the low end
    of the coupler range is the chain coupling.  Auto-ranging normalises
    the logical couplings to unit magnitude, then programs them at |chain
    coupling| / |J_F|: the extended range doubles the programmed problem
    coefficients for one |J_F|, which is why it is more robust to ICE."""
    chain_coupling = (COUPLER_MIN_EXTENDED if extended_range
                      else COUPLER_MIN_STANDARD)
    return (abs(chain_coupling) / chain_strength,
            (chain_coupling, COUPLER_MAX), (FIELD_MIN, FIELD_MAX))


def embed_pack(logicals: Sequence[IsingModel], embedding: Embedding, *,
               chain_strength: float, extended_range: bool = False
               ) -> Optional[EmbeddedPack]:
    """Compile logical Ising problems of one structure onto an embedding.

    The pack form of Appendix B: scale, gather onto the plan's couplers,
    clip — each a single array pass over all problems.  On the C artefact
    a machine pack over a collision-free plan is programmed inside its
    batch call instead, by the same passes
    (:meth:`~repro.annealer.engine.BlockDiagonalSampler.anneal` with
    ``program=``); this is the route of every other pack.  Returns ``None``
    when the problems cannot be programmed as one structure (different
    logical key sets).  Every key is programmed, a coupling that scales to
    ``0.0`` included.  See :func:`embed_ising` for the parameters.
    """
    chain_strength = check_positive("chain_strength", chain_strength)
    logical = IsingPack.stack(logicals)
    if logical is None:
        return None
    return embed_on_plan(logical, embedding, None, chain_strength,
                         extended_range)


def embed_on_plan(logical: IsingPack, embedding: Embedding,
                  plan: Optional[EmbeddingPlan], chain_strength: float,
                  extended_range: bool) -> EmbeddedPack:
    """:func:`embed_pack` of the stacked *logical* problems on *plan*, the
    plan of their keys on *embedding* (``None``: built here)."""
    base_scale, (chain_coupling, _), _ = compile_settings(chain_strength,
                                                          extended_range)
    problem_scale = np.full(len(logical), base_scale)
    reference = np.abs(logical.values).max(axis=1, initial=0.0)
    fields_only = reference == 0.0
    if fields_only.any():
        reference[fields_only] = np.abs(
            logical.linear[fields_only]).max(axis=1, initial=0.0)
    np.divide(problem_scale, reference, out=problem_scale,
              where=reference > 0)
    values = logical.values * problem_scale[:, None]
    linear = logical.linear * problem_scale[:, None]

    if plan is None:
        plan = EmbeddingPlan(embedding, logical.num_variables, logical.keys)
    if plan.direct:
        # Collision-free embedding: every coupler receives exactly one
        # value, so accumulate-and-clip collapses to direct assignment.
        fields = (linear / plan.chain_lengths)[:, plan.logical_index]
        clipped = np.count_nonzero(
            (values < chain_coupling) | (values > COUPLER_MAX), axis=1)
        couplers = np.empty((len(logical), len(plan.physical_keys)))
        couplers[:, :plan.num_chain_couplers] = chain_coupling
        np.clip(values, chain_coupling, COUPLER_MAX,
                out=couplers[:, plan.num_chain_couplers:])
        physical_keys = plan.physical_keys
    else:
        # Every row inserts the plan's couplers in one order: one key tuple.
        rows = [plan.accumulate(row_linear, row_values.tolist(),
                                chain_coupling)
                for row_linear, row_values in zip(linear, values)]
        physical_keys = tuple(rows[0][1])
        fields = np.array([row[0] for row in rows])
        couplers = np.array([list(row[1].values()) for row in rows],
                            dtype=float).reshape(len(rows), len(physical_keys))
        clipped = np.array([row[2] for row in rows])

    clipped = clipped + np.count_nonzero(np.abs(fields) > FIELD_MAX, axis=1)
    fields = np.clip(fields, FIELD_MIN, FIELD_MAX)
    return EmbeddedPack(
        embedding=embedding, plan=plan, logical=logical,
        problems=IsingPack(plan.num_physical, physical_keys, fields, couplers,
                           np.zeros(len(logical))),
        problem_scale=problem_scale, clipped=clipped,
        chain_strength=chain_strength, extended_range=extended_range)


def embed_ising(logical: IsingModel, embedding: Embedding, *,
                chain_strength: float, extended_range: bool = False
                ) -> EmbeddedIsing:
    """Compile a logical Ising problem onto an embedding (Appendix B).

    The logical problem is auto-ranged, so its largest absolute coefficient
    is 1 before the ``1 / |J_F|`` scaling, mirroring the machine's
    auto-scaling step.

    Parameters
    ----------
    logical:
        The logical Ising problem (e.g. produced by the ML reduction).
    embedding:
        Chain embedding covering all of the problem's variables.
    chain_strength:
        ``|J_F|`` — the ratio between the chain coupling magnitude and the
        largest programmed problem coefficient.
    extended_range:
        Use the DW2Q extended dynamic range (chain couplers at ``-2``).
    """
    return embed_pack([logical], embedding, chain_strength=chain_strength,
                      extended_range=extended_range)[0]
