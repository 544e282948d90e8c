"""The simulated D-Wave 2000Q front end.

This module ties the hardware substrate together: it accepts a *logical*
Ising problem, embeds it on the Chimera chip, applies ICE coefficient
noise, runs batches of annealing trajectories, unembeds the physical
samples by majority vote, and reports the per-run statistics the paper's
TTS / TTB metrics are computed from.  Inside
:meth:`QuantumAnnealerSimulator.run_batch` the unit of work is the *pack*:
the problems of one submission share one structure
(:class:`~repro.annealer.embedded.EmbeddingPlan`) and travel as one
:class:`~repro.ising.model.IsingPack`; a lone problem is a pack of one.

Time accounting follows the paper's convention (Section 5.2): the reported
compute time of a run is ``N_a * (T_a + T_p) / P_f`` — pure anneal time
divided by the parallelization factor — while programming, readout and
preprocessing overheads are tracked separately in :class:`OverheadModel`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.annealer.chimera import ChimeraGraph
# embed_ising, unembed_samples and aggregate_samples are the per-problem
# spellings of the pack stages run_batch calls; they stay importable from
# here (benchmarks/e2e/spans.py wraps them in this namespace by name).
from repro.annealer.embedded import (  # noqa: F401
    EmbeddingPlan,
    compile_settings,
    embed_ising,
    embed_on_plan,
)
from repro.annealer import backends
from repro.annealer.embedding import Embedding, TriangleCliqueEmbedder
from repro.annealer.engine import BlockDiagonalSampler
from repro.annealer.ice import ICEModel
from repro.annealer.parallel import parallelization_factor
from repro.annealer.schedule import AnnealSchedule
from repro.annealer.unembed import (  # noqa: F401
    draw_ties,
    unembed_pack,
    unembed_samples,
)
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel, IsingPack, symmetric_csr_template
from repro.ising.solver import (  # noqa: F401
    SolverResult,
    aggregate_over,
    aggregate_samples,
    read_out_solutions,
)
from repro.utils.random import RandomState, child_rngs, ensure_rng
from repro.utils.validation import check_integer_in_range, check_positive


@dataclass(frozen=True)
class AnnealerParameters:
    """User-settable parameters of one QA run (one job submission).

    Attributes
    ----------
    schedule:
        Anneal time / pause configuration per anneal.
    chain_strength:
        ``|J_F|`` used when compiling the embedded problem.
    extended_range:
        Whether to use the DW2Q extended (doubled negative) coupler range.
    num_anneals:
        ``N_a`` — anneal cycles per run; the run returns the statistics of
        all of them.
    """

    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    chain_strength: float = 4.0
    extended_range: bool = True
    num_anneals: int = 100

    def __post_init__(self) -> None:
        check_positive("chain_strength", self.chain_strength)
        check_integer_in_range("num_anneals", self.num_anneals, minimum=1)


@dataclass(frozen=True)
class OverheadModel:
    """Non-fundamental per-job overheads of current QPU technology (Section 7)."""

    preprocessing_us: float = constants.PREPROCESSING_TIME_US
    programming_us: float = constants.PROGRAMMING_TIME_US
    readout_per_anneal_us: float = constants.READOUT_TIME_PER_ANNEAL_US

    def total_us(self, num_anneals: int) -> float:
        """Total overhead of a job with *num_anneals* anneals."""
        num_anneals = check_integer_in_range("num_anneals", num_anneals, minimum=0)
        return (self.preprocessing_us + self.programming_us
                + self.readout_per_anneal_us * num_anneals)


@dataclass(frozen=True)
class AnnealResult:
    """Everything a QA run returns, expressed over logical variables."""

    #: Distinct logical samples with energies and occurrence counts.
    solutions: SolverResult
    #: Parameters of the run.
    parameters: AnnealerParameters
    #: Per-instance parallelization factor available on this chip.
    parallelization: float
    #: Fraction of (read, chain) pairs whose spins disagreed before the
    #: majority vote.
    broken_chain_fraction: float

    # ------------------------------------------------------------------ #
    @property
    def num_anneals(self) -> int:
        """Number of anneal cycles performed."""
        return self.parameters.num_anneals

    @property
    def anneal_duration_us(self) -> float:
        """Wall-clock duration of a single anneal (ramp + pause)."""
        return self.parameters.schedule.duration_us

    @property
    def compute_time_us(self) -> float:
        """Pure compute time of the run, amortised by parallelization."""
        return self.num_anneals * self.anneal_duration_us / self.parallelization

    @property
    def best_energy(self) -> float:
        """Lowest logical Ising energy found."""
        return self.solutions.best_energy

    def ground_state_probability(self, ground_energy: Optional[float] = None,
                                 tolerance: float = 1e-6) -> float:
        """Per-anneal probability of reaching the ground state.

        When *ground_energy* is omitted the lowest energy observed in this run
        is used (an optimistic estimate, as in empirical QA practice when the
        true ground state is unknown).
        """
        reference = self.best_energy if ground_energy is None else ground_energy
        return self.solutions.ground_state_probability(reference, tolerance)

    def solution_probabilities(self) -> np.ndarray:
        """Empirical probability of each distinct solution (energy-ranked)."""
        occurrences = self.solutions.num_occurrences.astype(float)
        return occurrences / occurrences.sum()


class QuantumAnnealerSimulator:
    """Software model of the DW2Q quantum annealer.

    Parameters
    ----------
    topology:
        Hardware graph; defaults to a DW2Q-like Chimera C16 with defects.
    sweeps_per_us:
        Metropolis sweeps simulated per microsecond of schedule time; this is
        the fidelity knob translating physical anneal time into sampling
        effort.
    hot_temperature, cold_temperature:
        End points of the annealing temperature ramp, in units of the largest
        programmed coefficient.
    ice:
        Intrinsic-control-error model applied to the programmed coefficients.
    ice_batch_size:
        Number of anneals sharing one ICE realisation (the perturbation is
        redrawn between batches).
    sampler_cache_size:
        Number of coupling structures kept warm across :meth:`run_batch`
        calls (least recently used first out), keyed on the structure
        (rng, embedding, variable count, coupling keys), *not* on
        the number of problems.  An entry (:class:`_Structure`) holds all
        such a structure determines — the embedding plan, the logical CSR
        template, ``P_f`` and the block-diagonal sampler with its prepared
        batch calls — so every pack of one structure, down to the
        batch-size-1 serving case, rebinds the kept sampler instead of
        re-deriving any of it.  Seeded results are bit-identical with the
        cache on, off (``0``) or at any size; the cache only moves setup
        work.
    """

    def __init__(self, topology: Optional[ChimeraGraph] = None, *,
                 sweeps_per_us: float = 30.0,
                 hot_temperature: float = 1.5,
                 cold_temperature: float = 0.02,
                 ice: Optional[ICEModel] = None,
                 ice_batch_size: int = 25,
                 sampler_cache_size: int = 8):
        self.topology = topology if topology is not None else ChimeraGraph.dw2q()
        self.sweeps_per_us = check_positive("sweeps_per_us", sweeps_per_us)
        self.hot_temperature = check_positive("hot_temperature", hot_temperature)
        self.cold_temperature = check_positive("cold_temperature", cold_temperature)
        if self.cold_temperature > self.hot_temperature:
            raise AnnealerError("cold_temperature must not exceed hot_temperature")
        self.ice = ice if ice is not None else ICEModel()
        self.ice_batch_size = check_integer_in_range("ice_batch_size",
                                                     ice_batch_size, minimum=1)
        self.overheads = OverheadModel()
        self._embedder = TriangleCliqueEmbedder(self.topology)
        #: The chip's clique embedding per variable count: never evicted
        #: (the chip is fixed: one per size).
        self._embeddings: Dict[int, Embedding] = {}
        self.sampler_cache_size = check_integer_in_range(
            "sampler_cache_size", sampler_cache_size, minimum=0)
        # Checkout LRU (_checkout): a decoder shared by worker threads never
        # has two of them on one entry.
        self._structures: "OrderedDict[Tuple, _Structure]" = OrderedDict()
        #: ``(parameters, rates, temperature profile, compile settings)`` of
        #: the parameters object last served: one slot, read and replaced
        #: whole (worker threads share it), not per structure.
        self._settings: Optional[tuple] = None
        self._sampler_cache_hits = 0
        self._sampler_cache_misses = 0

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of working physical qubits of the simulated chip."""
        return self.topology.num_working_qubits

    def embedding_for(self, num_logical: int) -> Embedding:
        """Return (and keep) a clique embedding for *num_logical* variables."""
        embedding = self._embeddings.get(num_logical)
        if embedding is None:
            embedding = self._embeddings[num_logical] = self._embedder.embed(
                num_logical)
        return embedding

    # ------------------------------------------------------------------ #
    def sampler_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the warm sampler cache."""
        return {
            "capacity": self.sampler_cache_size,
            "entries": len(self._structures),
            "hits": self._sampler_cache_hits,
            "misses": self._sampler_cache_misses,
        }

    # ------------------------------------------------------------------ #
    def run(self, logical_ising: IsingModel,
            parameters: Optional[AnnealerParameters] = None,
            random_state: RandomState = None,
            embedding: Optional[Embedding] = None,
            rng: str = "sequential") -> AnnealResult:
        """Submit one QA job: embed, anneal ``N_a`` times, unembed, aggregate.

        A one-block :meth:`run_batch`, so the serial and batched paths cannot
        diverge.  *random_state* seeds the ICE draws, the Metropolis moves
        and the tie breaks; *embedding* must cover the problem.  *rng* is
        the draw discipline (``"sequential"``, the reference streams, or
        ``"counter"``, keyed Philox streams identical across backends and
        CPU counts).
        """
        return self.run_batch([logical_ising], parameters=parameters,
                              random_states=[ensure_rng(random_state)],
                              embedding=embedding, rng=rng)[0]

    # ------------------------------------------------------------------ #
    def run_batch(self, logical_isings: Sequence[IsingModel],
                  parameters: Optional[AnnealerParameters] = None,
                  random_states: Optional[Sequence[RandomState]] = None,
                  random_state: RandomState = None,
                  embedding: Optional[Embedding] = None,
                  rng: str = "sequential") -> List[AnnealResult]:
        """Submit several same-size problems as one packed QA job.

        This is the Section 5.5 parallelization: small problems leave room on
        the chip, so different subcarriers' problems share a single QA run —
        one embedding, one temperature profile, one block-diagonal sampler,
        their anneals advancing together as replica rows of one batch.  One
        :meth:`BlockDiagonalSampler.anneal` call runs every ICE batch (this
        machine's ``ice`` and ``ice_batch_size``); on the C artefact it also
        programs the pack and reads it out, one call per range of blocks.
        Each problem consumes randomness from its own generator in exactly
        the order a standalone :meth:`run` with that generator would, so the
        per-problem results are bit for bit those of serial submission.

        Parameters
        ----------
        logical_isings:
            The logical problems; all must have the same variable count and
            the same coupling keys (the usual case for the subcarriers of
            one OFDM symbol, whose reduction programs every pair), else
            :class:`~repro.exceptions.AnnealerError` is raised.  An
            :class:`~repro.ising.model.IsingPack` is taken as is: no
            per-problem object is built on the way to the kernel.
        parameters:
            Run parameters shared by all problems.
        random_states:
            One randomness source per problem.  When omitted, independent
            child generators are spawned from *random_state*.
        random_state:
            Base seed used only when *random_states* is omitted.
        embedding:
            Optional pre-computed embedding shared by all problems.
        rng:
            As in :meth:`run`; it does not change the pack-equals-serial
            rule.
        """
        parameters = parameters or AnnealerParameters()
        if rng not in backends.RNG_MODES:
            raise AnnealerError(
                f"rng must be one of {backends.RNG_MODES}, got {rng!r}")
        # An IsingPack is one size by construction and travels on as it is.
        isings = (logical_isings if isinstance(logical_isings, IsingPack)
                  else list(logical_isings))
        if not isings:
            raise AnnealerError("run_batch needs at least one problem")
        if not isinstance(isings, IsingPack) and len(
                {ising.num_variables for ising in isings}) > 1:
            raise AnnealerError(
                "run_batch requires problems of identical size; group "
                "subcarriers by problem size first"
            )
        if random_states is None:
            rngs = list(child_rngs(random_state, len(isings)))
        else:
            if len(random_states) != len(isings):
                raise AnnealerError(
                    f"need one random state per problem: expected "
                    f"{len(isings)}, got {len(random_states)}"
                )
            rngs = [ensure_rng(state) for state in random_states]

        logical = IsingPack.stack(isings)
        if logical is None:
            raise AnnealerError(
                "run_batch requires problems of one coupling structure; "
                "submit problems with different coupling keys separately")
        num_logical = logical.num_variables
        if embedding is None:
            embedding = self.embedding_for(num_logical)
        # The chip's embedding keys as True, passed or not; another by id,
        # held by its entry (a copied machine's is another: missed).
        key = (rng, embedding is self._embeddings.get(num_logical)
               or id(embedding), num_logical, logical.keys)
        entry = self._checkout(key)
        if entry is None or entry.embedding is not embedding:
            entry = _Structure(
                embedding, num_logical, logical.keys,
                parallelization_factor(
                    num_logical, total_qubits=self.num_qubits,
                    shore_size=self.topology.shore_size))
        rates = (self.sweeps_per_us, self.hot_temperature,
                 self.cold_temperature)
        settings = self._settings
        if (settings is None or settings[0] is not parameters
                or settings[1] != rates):
            settings = self._settings = (
                parameters, rates, parameters.schedule.temperature_profile(
                    sweeps_per_us=self.sweeps_per_us,
                    hot=self.hot_temperature, cold=self.cold_temperature),
                compile_settings(parameters.chain_strength,
                                 parameters.extended_range))
        if (entry.plan.direct and num_logical < 64
                and backends.cext_available()):
            results = self._serve(entry, logical, parameters, rngs, rng,
                                  *settings[2:])
        else:
            results = self._anneal_embedded(entry, logical, parameters, rngs,
                                            rng, settings[2])
        self._checkin(key, entry)
        return results

    def _serve(self, entry: "_Structure", logical: IsingPack,
               parameters: AnnealerParameters, rngs, rng: str,
               temperatures: np.ndarray, settings: tuple
               ) -> List[AnnealResult]:
        """The pack of a collision-free plan of at most 63 variables in one
        artefact call (:meth:`BlockDiagonalSampler.anneal` with
        ``program=``), after a chain tie the draws and one read-out."""
        plan = entry.plan
        sampler = entry.sampler
        if sampler is None:  # built on the structure; the call programs it
            blocks = len(logical)
            sampler = entry.sampler = BlockDiagonalSampler(
                IsingPack(plan.num_physical, plan.physical_keys,
                          np.zeros((blocks, plan.num_physical)),
                          np.ones((blocks, len(plan.physical_keys))),
                          np.zeros(blocks)),
                clusters=plan.clusters, rng=rng)
        out = sampler.anneal(
            temperatures, parameters.num_anneals, rngs, ice=self.ice,
            ice_batch_size=self.ice_batch_size,
            program=(logical, entry.template, plan, *settings))
        broken, ties = out.counts.tolist()
        if any(ties):  # a chain tied
            draw_ties(out.values, rngs)
            out.read()
        solutions = read_out_solutions(logical, out)
        reads = max(parameters.num_anneals * plan.num_logical, 1)
        return self._results(solutions, [count / reads for count in broken],
                             parameters, entry.factor)

    def _anneal_embedded(self, entry: "_Structure", logical: IsingPack,
                         parameters: AnnealerParameters, rngs, rng: str,
                         temperatures: np.ndarray) -> List[AnnealResult]:
        """The pack through the NumPy stages: :func:`embed_pack`'s passes
        on the entry's plan, one anneal call of its sampler (rebound, or
        built by the structure's first pack), unembed, aggregate."""
        embedded = embed_on_plan(logical, entry.embedding, entry.plan,
                                 parameters.chain_strength,
                                 parameters.extended_range)
        plan, problems, sampler = entry.plan, embedded.problems, entry.sampler
        if sampler is None:
            sampler = entry.sampler = BlockDiagonalSampler(
                problems, clusters=plan.clusters, rng=rng)
        else:
            sampler.refresh_values(problems)
        # The sampler holds the programmed pack; every ICE batch perturbs
        # it afresh inside the one anneal call.
        physical = sampler.anneal(temperatures, parameters.num_anneals, rngs,
                                  ice=self.ice,
                                  ice_batch_size=self.ice_batch_size)
        logical_spins, broken = unembed_pack(plan, physical, rngs)
        solutions = aggregate_over(logical, logical_spins, entry.template)
        return self._results(solutions, broken.tolist(), parameters,
                             entry.factor)

    def _checkout(self, key: Tuple) -> Optional["_Structure"]:
        """The kept entry of *key*, out of the LRU until :meth:`_checkin`;
        ``None`` on a miss or without a cache."""
        if not self.sampler_cache_size:
            return None
        # pop, not get: the caller owns the entry until reinsertion.
        entry = self._structures.pop(key, None)
        if entry is not None:
            self._sampler_cache_hits += 1
        else:
            self._sampler_cache_misses += 1
        return entry

    def _checkin(self, key: Tuple, entry: "_Structure") -> None:
        if self.sampler_cache_size:
            self._structures[key] = entry
            while len(self._structures) > self.sampler_cache_size:
                self._structures.popitem(last=False)

    @staticmethod
    def _results(solutions: List[SolverResult], broken: List[float],
                 parameters: AnnealerParameters,
                 factor: float) -> List[AnnealResult]:
        return [AnnealResult(solutions_b, parameters, factor, broken_b)
                for solutions_b, broken_b in zip(solutions, broken)]

    def __repr__(self) -> str:
        return (f"QuantumAnnealerSimulator(qubits={self.num_qubits}, "
                f"sweeps_per_us={self.sweeps_per_us}, "
                f"ice_enabled={self.ice.enabled})")


class _Structure:
    """What one coupling structure on one embedding determines: an entry of
    a machine's warm LRU (:meth:`QuantumAnnealerSimulator._checkout`).

    The *embedding* (held: one not the chip's keys its entry by id), its
    :class:`~repro.annealer.embedded.EmbeddingPlan` over the logical keys
    (building it raises :class:`~repro.exceptions.EmbeddingError` when the
    embedding cannot realise them), the logical CSR *template* of the keys
    (what a pack's read-out multiplies its distinct reads through), the
    parallelization *factor* ``P_f`` of the variable count and the
    *sampler* the first pack builds over the plan's physical keys (with its
    prepared batch calls, one per pack size).
    """

    def __init__(self, embedding: Embedding, num_logical: int, keys: tuple,
                 factor: float):
        self.embedding = embedding
        self.template = symmetric_csr_template(num_logical, keys)
        self.plan = EmbeddingPlan(embedding, num_logical, keys)
        self.factor = factor
        self.sampler: Optional[BlockDiagonalSampler] = None
