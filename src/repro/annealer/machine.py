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
    compile_settings,
    embed_ising,
    embed_pack,
    embedding_plan,
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
from repro.exceptions import AnnealerError, EmbeddingError
from repro.ising.model import IsingModel, IsingPack
from repro.ising.solver import (  # noqa: F401
    SolverResult,
    aggregate_pack,
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
        Number of fully-warmed block-diagonal samplers kept across
        :meth:`run_batch` calls, keyed on problem structure (coupling keys,
        cluster layout, rng/threads), *not* on the number of problems: every
        pack of one structure, down to the batch-size-1 serving case,
        rebinds the cached sampler instead of re-deriving colour classes,
        CSR templates and cluster descriptors.  Seeded results are
        bit-identical with the cache on, off (``0``) or at any size; the
        cache only moves setup work.
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
        self._embedding_cache: Dict[int, Embedding] = {}
        self.sampler_cache_size = check_integer_in_range(
            "sampler_cache_size", sampler_cache_size, minimum=0)
        # Checkout cache (_checkout): a decoder shared by worker threads
        # never has two of them on one sampler.
        self._sampler_cache: "OrderedDict[Tuple, BlockDiagonalSampler]" = (
            OrderedDict())
        self._sampler_cache_hits = 0
        self._sampler_cache_misses = 0
        self._parallelization: Dict[int, float] = {}  # P_f per size

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of working physical qubits of the simulated chip."""
        return self.topology.num_working_qubits

    def embedding_for(self, num_logical: int) -> Embedding:
        """Return (and cache) a clique embedding for *num_logical* variables."""
        if num_logical not in self._embedding_cache:
            self._embedding_cache[num_logical] = self._embedder.embed(num_logical)
        return self._embedding_cache[num_logical]

    # ------------------------------------------------------------------ #
    def sampler_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the warm sampler cache."""
        return {
            "capacity": self.sampler_cache_size,
            "entries": len(self._sampler_cache),
            "hits": self._sampler_cache_hits,
            "misses": self._sampler_cache_misses,
        }

    # ------------------------------------------------------------------ #
    def run(self, logical_ising: IsingModel,
            parameters: Optional[AnnealerParameters] = None,
            random_state: RandomState = None,
            embedding: Optional[Embedding] = None,
            rng: str = "sequential", threads: int = 1) -> AnnealResult:
        """Submit one QA job: embed, anneal ``N_a`` times, unembed, aggregate.

        A one-block :meth:`run_batch`, so the serial and batched paths cannot
        diverge.  *random_state* seeds the ICE draws, the Metropolis moves
        and the tie breaks; *embedding* must cover the problem.  *rng* is
        the draw discipline (``"sequential"``, the reference streams, or
        ``"counter"``, keyed Philox streams identical across backends and
        thread counts) and *threads* the counter kernels' width.
        """
        return self.run_batch([logical_ising], parameters=parameters,
                              random_states=[ensure_rng(random_state)],
                              embedding=embedding, rng=rng,
                              threads=threads)[0]

    # ------------------------------------------------------------------ #
    def run_batch(self, logical_isings: Sequence[IsingModel],
                  parameters: Optional[AnnealerParameters] = None,
                  random_states: Optional[Sequence[RandomState]] = None,
                  random_state: RandomState = None,
                  embedding: Optional[Embedding] = None,
                  rng: str = "sequential",
                  threads: int = 1) -> List[AnnealResult]:
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
            the same coupling sparsity structure (the usual case for the
            subcarriers of one OFDM symbol).  An
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
        rng, threads:
            As in :meth:`run`; neither changes the pack-equals-serial rule.
        """
        parameters = parameters or AnnealerParameters()
        if rng not in backends.RNG_MODES:
            raise AnnealerError(
                f"rng must be one of {backends.RNG_MODES}, got {rng!r}")
        threads = check_integer_in_range("threads", threads, minimum=1)
        if isinstance(logical_isings, IsingPack):
            # One size by construction, and it travels on as it is.
            isings, sizes = logical_isings, {logical_isings.num_variables}
        else:
            isings = list(logical_isings)
            sizes = {ising.num_variables for ising in isings}
        if not isings:
            raise AnnealerError("run_batch needs at least one problem")
        if len(sizes) > 1:
            raise AnnealerError(
                "run_batch requires problems of identical size; group "
                "subcarriers by problem size first"
            )
        num_logical, = sizes
        if random_states is None:
            rngs = list(child_rngs(random_state, len(isings)))
        else:
            if len(random_states) != len(isings):
                raise AnnealerError(
                    f"need one random state per problem: expected "
                    f"{len(isings)}, got {len(random_states)}"
                )
            rngs = [ensure_rng(state) for state in random_states]

        if embedding is None:
            embedding = self.embedding_for(num_logical)
        temperatures = parameters.schedule.temperature_profile(
            sweeps_per_us=self.sweeps_per_us,
            hot=self.hot_temperature,
            cold=self.cold_temperature,
        )
        results = self._serve(isings, embedding, parameters, rngs, rng,
                              threads, temperatures)
        if results is not None:
            return results
        embedded = embed_pack(isings, embedding,
                              chain_strength=parameters.chain_strength,
                              extended_range=parameters.extended_range)
        if embedded is None:
            # The problems do not program one structure (different coupling
            # keys): each is its own pack of one, with its own generator —
            # exactly the serial submissions the pack is defined to equal.
            return [self.run_batch([ising], parameters, random_states=[rng_b],
                                   embedding=embedding, rng=rng,
                                   threads=threads)[0]
                    for ising, rng_b in zip(isings, rngs)]
        plan = embedded.plan
        key = (rng, threads, plan) if plan.direct else (
            rng, threads, embedded.problems.keys, tuple(plan.chains.values()))
        sampler = self._checkout(key)
        if sampler is None:
            sampler = BlockDiagonalSampler(embedded.problems,
                                           clusters=plan.clusters, rng=rng,
                                           threads=threads)
        else:
            sampler.refresh_values(embedded.problems)
        # The sampler holds the programmed pack; every ICE batch perturbs
        # it afresh inside the one anneal call.
        physical = sampler.anneal(temperatures, parameters.num_anneals, rngs,
                                  ice=self.ice,
                                  ice_batch_size=self.ice_batch_size)
        logical_spins, broken = unembed_pack(plan, physical, rngs)
        solutions = aggregate_pack(embedded.logical, logical_spins)
        self._checkin(key, sampler)
        return self._results(solutions, broken, parameters, num_logical)

    def _serve(self, isings, embedding: Embedding,
               parameters: AnnealerParameters, rngs, rng: str, threads: int,
               temperatures: np.ndarray) -> Optional[List[AnnealResult]]:
        """The pack in one artefact call (:meth:`BlockDiagonalSampler.anneal`
        with ``program=``), after a chain tie the draws and one read-out;
        ``None`` for the NumPy stages' route: no artefact, more than 63
        variables, several structures, colliding chains, or a coupling
        that scales to ``0.0``."""
        logical = IsingPack.stack(isings) if backends.cext_available() else None
        if (logical is None or logical.num_variables >= 64
                or embedding.num_logical < logical.num_variables):
            return None
        try:
            plan = embedding_plan(embedding, logical.num_variables,
                                  logical.keys)
        except EmbeddingError:
            return None  # embed_pack decides: it raises, or needs no coupler
        if not plan.direct:
            return None
        key = (rng, threads, plan)  # a direct plan is its structure
        sampler = self._checkout(key)
        if sampler is None:  # built on the structure; the call programs it
            blocks = len(logical)
            sampler = BlockDiagonalSampler(
                IsingPack(plan.num_physical, plan.physical_keys,
                          np.zeros((blocks, plan.num_physical)),
                          np.ones((blocks, len(plan.physical_keys))),
                          np.zeros(blocks)),
                clusters=plan.clusters, rng=rng, threads=threads)
        out = sampler.anneal(
            temperatures, parameters.num_anneals, rngs, ice=self.ice,
            ice_batch_size=self.ice_batch_size,
            program=(logical, plan, *compile_settings(
                parameters.chain_strength, parameters.extended_range)))
        if out is None:
            self._checkin(key, sampler)
            return None
        broken, ties = out.counts
        if ties.any():
            draw_ties(out.values, rngs)
            out.read()
        solutions = read_out_solutions(logical, out)
        broken = broken / max(parameters.num_anneals * plan.num_logical, 1)
        self._checkin(key, sampler)  # out is the sampler's: read it first
        return self._results(solutions, broken, parameters,
                             logical.num_variables)

    def _checkout(self, key: Tuple) -> Optional[BlockDiagonalSampler]:
        """The cached sampler of *key* (its structure: the plan, or its key
        tuples, not the pack size), out of the cache until
        :meth:`_checkin`; ``None`` on a miss or without a cache."""
        if not self.sampler_cache_size:
            return None
        # pop, not get: the caller owns the entry until reinsertion.
        sampler = self._sampler_cache.pop(key, None)
        if sampler is not None:
            self._sampler_cache_hits += 1
        else:
            self._sampler_cache_misses += 1
        return sampler

    def _checkin(self, key: Tuple, sampler: BlockDiagonalSampler) -> None:
        if self.sampler_cache_size:
            self._sampler_cache[key] = sampler
            while len(self._sampler_cache) > self.sampler_cache_size:
                self._sampler_cache.popitem(last=False)

    def _results(self, solutions: List[SolverResult], broken: np.ndarray,
                 parameters: AnnealerParameters,
                 num_logical: int) -> List[AnnealResult]:
        factor = self._parallelization.get(num_logical)
        if factor is None:  # once per variable count: the chip is fixed
            factor = self._parallelization[num_logical] = parallelization_factor(
                num_logical, total_qubits=self.num_qubits,
                shore_size=self.topology.shore_size)
        return [AnnealResult(solutions_b, parameters, factor, broken_b)
                for solutions_b, broken_b in zip(solutions, broken.tolist())]

    def __repr__(self) -> str:
        return (f"QuantumAnnealerSimulator(qubits={self.num_qubits}, "
                f"sweeps_per_us={self.sweeps_per_us}, "
                f"ice_enabled={self.ice.enabled})")
