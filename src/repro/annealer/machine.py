"""The simulated D-Wave 2000Q front end.

This module ties the hardware substrate together: it accepts a *logical*
Ising problem, embeds it on the Chimera chip (or reuses a caller-provided
embedding), applies ICE coefficient noise, runs batches of annealing
trajectories according to the requested schedule, unembeds the physical
samples by majority vote, and reports the per-run statistics (distinct
solutions, energies, occurrence counts, ground-state probability) that the
paper's TTS / TTB metrics are computed from.

Inside :meth:`QuantumAnnealerSimulator.run_batch` the unit of work is the
*pack*: the problems of one submission share one structure
(:class:`~repro.annealer.embedded.EmbeddingPlan`) and travel between the
stages as one ``(problems, E)`` coupling-value matrix and one ``(problems,
P)`` field matrix (:class:`~repro.ising.model.IsingPack`), each stage a
single array pass; a lone problem is a pack of one.

Time accounting follows the paper's convention (Section 5.2): the reported
compute time of a run is ``N_a * (T_a + T_p) / P_f`` — pure anneal time
divided by the parallelization factor — while programming, readout and
preprocessing overheads are tracked separately in :class:`OverheadModel`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.annealer.chimera import ChimeraGraph
# embed_ising, unembed_samples and aggregate_samples are the per-problem
# spellings of the pack stages run_batch calls; they stay importable from
# here (benchmarks/e2e/spans.py wraps them in this namespace by name).
from repro.annealer.embedded import (  # noqa: F401
    EmbeddedIsing,
    embed_ising,
    embed_pack,
)
from repro.annealer.backends import BACKENDS, RNG_MODES
from repro.annealer.embedding import Embedding, TriangleCliqueEmbedder
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.ice import ICEModel
from repro.annealer.parallel import parallelization_factor
from repro.annealer.schedule import AnnealSchedule
from repro.annealer.unembed import (  # noqa: F401
    UnembeddingReport,
    unembed_pack,
    unembed_samples,
)
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel, IsingPack
from repro.ising.solver import (  # noqa: F401
    SolverResult,
    aggregate_pack,
    aggregate_samples,
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

    def with_num_anneals(self, num_anneals: int) -> "AnnealerParameters":
        """Copy of these parameters with a different anneal count."""
        return replace(self, num_anneals=num_anneals)


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
    #: The embedded problem that was programmed.
    embedded: EmbeddedIsing
    #: Parameters of the run.
    parameters: AnnealerParameters
    #: Chain-break statistics of the unembedding pass.
    unembedding: UnembeddingReport
    #: Per-instance parallelization factor available on this chip.
    parallelization: float
    #: Logical Ising problem the energies refer to.
    logical_ising: IsingModel

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
    def best_spins(self) -> np.ndarray:
        """Lowest-energy logical spin configuration found."""
        return self.solutions.best_sample

    @property
    def best_bits(self) -> np.ndarray:
        """Lowest-energy configuration as QUBO bits."""
        return self.solutions.best_bits

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
        :meth:`run_batch` calls, keyed on problem structure (block size,
        coupling keys, cluster layout, backend/rng/threads) and *not* on the
        number of problems: everything a sampler derives is block-level, so
        successive packs of one structure — of any sizes, down to the
        batch-size-1 serving case — rebind the cached sampler in place
        instead of re-deriving colour classes, CSR templates, entry maps
        and cluster descriptors.  Seeded results are bit-identical with the
        cache on, off (``0``) or at any size, because ``refresh_values``
        reproduces fresh construction exactly; the cache only moves setup
        work.  An entry is the sampler and nothing else: the pack's
        energies need no kept operator
        (:func:`~repro.ising.solver.aggregate_pack`).
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
        # Checkout cache: run_batch *pops* the sampler on lookup and puts it
        # back when done, so a decoder shared by several worker threads never
        # has two of them refreshing one sampler concurrently (the loser of
        # the pop simply constructs afresh and overwrites on reinsertion).
        self._sampler_cache: "OrderedDict[Tuple, BlockDiagonalSampler]" = (
            OrderedDict())
        self._sampler_cache_hits = 0
        self._sampler_cache_misses = 0

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

    def clear_sampler_cache(self) -> None:
        """Drop all cached samplers (counters are kept)."""
        self._sampler_cache.clear()

    # ------------------------------------------------------------------ #
    def run(self, logical_ising: IsingModel,
            parameters: Optional[AnnealerParameters] = None,
            random_state: RandomState = None,
            embedding: Optional[Embedding] = None,
            backend: str = "auto", rng: str = "sequential",
            threads: int = 1) -> AnnealResult:
        """Submit one QA job: embed, anneal ``N_a`` times, unembed, aggregate.

        A single-problem job is exactly a one-block :meth:`run_batch`, so the
        serial and batched paths cannot diverge.

        Parameters
        ----------
        logical_ising:
            The logical problem (e.g. from the ML reduction).
        parameters:
            Run parameters; defaults to :class:`AnnealerParameters` defaults.
        random_state:
            Seed or generator for ICE draws, Metropolis moves and tie breaks.
        embedding:
            Optional pre-computed embedding (must cover the problem).
        backend:
            Kernel implementation passed to the sampler (``"auto"``,
            ``"numpy"`` or ``"cext"``); seeded runs are bit-identical
            across backends.
        rng:
            Draw discipline passed to the sampler: ``"sequential"``
            (default, the reference streams) or ``"counter"`` (keyed Philox
            streams, reproducible under their own discipline and identical
            across backends and thread counts).
        threads:
            Kernel threads for the counter discipline's compiled kernels;
            requires ``rng="counter"`` when > 1.
        """
        return self.run_batch([logical_ising], parameters=parameters,
                              random_states=[ensure_rng(random_state)],
                              embedding=embedding, backend=backend,
                              rng=rng, threads=threads)[0]

    # ------------------------------------------------------------------ #
    def run_batch(self, logical_isings: Sequence[IsingModel],
                  parameters: Optional[AnnealerParameters] = None,
                  random_states: Optional[Sequence[RandomState]] = None,
                  random_state: RandomState = None,
                  embedding: Optional[Embedding] = None,
                  backend: str = "auto",
                  rng: str = "sequential",
                  threads: int = 1) -> List[AnnealResult]:
        """Submit several same-size problems as one packed QA job.

        This is the Section 5.5 parallelization: small problems leave room on
        the chip, so different subcarriers' problems share a single QA run.
        All problems reuse one embedding, one temperature profile and one
        block-diagonal sampler structure, and their anneals advance together
        as replica rows of a single Metropolis batch.

        Each problem consumes randomness from its own generator in exactly
        the order a standalone :meth:`run` with that generator would, so the
        per-problem results are bit-for-bit identical to serial submission.

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
        backend:
            Kernel implementation for the packed sampler (``"auto"``,
            ``"numpy"`` or ``"cext"``).  Both backends consume the same
            per-problem draw streams, so seeded results are bit-identical
            across backends and this knob is purely about where the sweep
            loop runs.
        rng:
            Draw discipline for the packed sampler: ``"sequential"``
            (default) or ``"counter"``.  The counter discipline keys one
            Philox stream per block per anneal call, so packed results stay
            bit-identical to serial submission — and additionally identical
            across backends and thread counts.
        threads:
            Kernel threads for the counter discipline's compiled kernels;
            requires ``rng="counter"`` when > 1.  Thread count never
            changes results, only wall-clock.
        """
        parameters = parameters or AnnealerParameters()
        if backend not in BACKENDS:
            raise AnnealerError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        if rng not in RNG_MODES:
            raise AnnealerError(
                f"rng must be one of {RNG_MODES}, got {rng!r}")
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
        embedded = embed_pack(isings, embedding,
                              chain_strength=parameters.chain_strength,
                              extended_range=parameters.extended_range)
        if embedded is None:
            # The problems do not program one structure (different coupling
            # keys): each is its own pack of one, with its own generator —
            # exactly the serial submissions the pack is defined to equal.
            return [self.run_batch([ising], parameters, random_states=[rng_b],
                                   embedding=embedding, backend=backend,
                                   rng=rng, threads=threads)[0]
                    for ising, rng_b in zip(isings, rngs)]
        temperatures = parameters.schedule.temperature_profile(
            sweeps_per_us=self.sweeps_per_us,
            hot=self.hot_temperature,
            cold=self.cold_temperature,
        )
        plan = embedded.plan
        sampler_options = dict(clusters=plan.clusters, backend=backend,
                               rng=rng, threads=threads)

        num_anneals = parameters.num_anneals
        physical = np.empty((num_anneals, len(isings) * plan.num_physical),
                            dtype=np.int8)
        cache_key: Optional[Tuple] = None
        sampler: Optional[BlockDiagonalSampler] = None
        if self.sampler_cache_size:
            # Everything that determines a packed sampler's warmed
            # structure; the key tuples come from the plan, not the jobs,
            # and the pack size is not part of it (a rebind adopts it).
            cache_key = (backend, rng, threads,
                         embedded.problems.keys, tuple(plan.chains.values()))
            # pop, not get: the caller owns the entry until reinsertion.
            sampler = self._sampler_cache.pop(cache_key, None)
            if sampler is not None:
                self._sampler_cache_hits += 1
            else:
                self._sampler_cache_misses += 1
        produced = 0
        while produced < num_anneals:
            batch = min(self.ice_batch_size, num_anneals - produced)
            programmed = self.ice.perturb_pack(embedded.problems, rngs)
            if programmed.values.all():
                if sampler is None:
                    sampler = BlockDiagonalSampler(programmed,
                                                   **sampler_options)
                else:
                    sampler.refresh_values(programmed)
                samples = sampler.anneal(temperatures, batch, rngs)
            else:
                # An ICE draw cancelled a coupling exactly, so the blocks
                # no longer share one structure this batch: anneal them one
                # by one (identical trajectories, just not packed).  The
                # warm sampler sits the batch out and serves the next.
                samples = np.concatenate([
                    IsingSampler(problem, **sampler_options).anneal(
                        temperatures, batch, random_state=rng_b)
                    for problem, rng_b in zip(programmed, rngs)
                ], axis=1)
            physical[produced:produced + batch] = samples
            produced += batch

        logical_spins, unembedding = unembed_pack(plan, physical, rngs)
        solutions = aggregate_pack(embedded.logical, logical_spins)

        if cache_key is not None and sampler is not None:
            self._sampler_cache[cache_key] = sampler
            while len(self._sampler_cache) > self.sampler_cache_size:
                self._sampler_cache.popitem(last=False)

        factor = parallelization_factor(
            num_logical,
            total_qubits=self.num_qubits,
            shore_size=self.topology.shore_size,
        )
        return [
            AnnealResult(
                solutions=solutions[index],
                embedded=embedded[index],
                parameters=parameters,
                unembedding=unembedding[index],
                parallelization=factor,
                logical_ising=embedded.logical[index],
            )
            for index in range(len(isings))
        ]

    def __repr__(self) -> str:
        return (f"QuantumAnnealerSimulator(qubits={self.num_qubits}, "
                f"sweeps_per_us={self.sweeps_per_us}, "
                f"ice_enabled={self.ice.enabled})")
