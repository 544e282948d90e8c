"""Classical reference solvers for Ising problems.

Two solvers are provided:

* :class:`BruteForceIsingSolver` — exact enumeration of the full ``2^N``
  spectrum; used to validate that the QuAMax reduction's ground state equals
  the ML solution and to compute exact solution ranks for small instances.
* :class:`SimulatedAnnealingSolver` — the classical Metropolis simulated
  annealing algorithm the paper cites as the strongest conventional
  competitor to quantum annealing.

The repository has exactly one Metropolis core: the replica-batched,
colour-class-vectorised engine in :mod:`repro.annealer.engine`.
:meth:`SimulatedAnnealingSolver.sample` evolves all of its ``num_reads``
trajectories as replica rows of a single :class:`IsingSampler` anneal on that
engine, which is what makes the classical baseline usable at the anneal
counts the paper's Figs. 9-15 require.  The scalar per-spin loop
:func:`metropolis_anneal` is retained purely as an executable reference
implementation, which equivalence tests check the vectorised engine against
(:meth:`SimulatedAnnealingSolver.sample_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ising.model import (CsrTemplate, IsingModel, IsingPack,
                               product_energies, spins_to_bits,
                               symmetric_csr_template)
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range, check_positive


@dataclass(frozen=True)
class SolverResult:
    """A set of samples returned by an Ising solver.

    Attributes
    ----------
    samples:
        Integer spin matrix of shape ``(num_samples, N)`` with entries ±1,
        sorted by increasing energy.
    energies:
        Energy of each sample (same order).
    num_occurrences:
        How many raw reads collapsed onto each distinct sample.
    """

    samples: np.ndarray
    energies: np.ndarray
    num_occurrences: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.int8)
        energies = np.asarray(self.energies, dtype=float)
        occurrences = np.asarray(self.num_occurrences, dtype=int)
        if samples.ndim != 2:
            raise ConfigurationError("samples must be a 2-D matrix")
        if energies.shape != (samples.shape[0],):
            raise ConfigurationError("energies must align with samples")
        if occurrences.shape != (samples.shape[0],):
            raise ConfigurationError("num_occurrences must align with samples")
        self.__dict__.update(vars(
            SolverResult.energy_sorted(samples, energies, occurrences)))

    @classmethod
    def energy_sorted(cls, samples: np.ndarray, energies: np.ndarray,
                      num_occurrences: np.ndarray) -> "SolverResult":
        """Trusted construction (the :meth:`IsingModel.from_arrays` precedent)
        from aligned ``int8`` / ``float64`` / integer arrays: one stable
        energy argsort, no coercion, no shape check."""
        order = energies.argsort(kind="stable")
        result = object.__new__(cls)
        result.__dict__.update(samples=samples.take(order, axis=0),
                               energies=energies.take(order),
                               num_occurrences=num_occurrences.take(order))
        return result

    @property
    def num_samples(self) -> int:
        """Number of distinct samples."""
        return int(self.samples.shape[0])

    @property
    def total_reads(self) -> int:
        """Total number of raw reads represented."""
        return int(self.num_occurrences.sum())

    @property
    def best_sample(self) -> np.ndarray:
        """Lowest-energy spin configuration."""
        return self.samples[0].copy()

    @property
    def best_energy(self) -> float:
        """Lowest energy found."""
        return float(self.energies[0])

    @property
    def best_bits(self) -> np.ndarray:
        """Lowest-energy configuration expressed as QUBO bits."""
        return spins_to_bits(self.best_sample)

    def ground_state_probability(self, ground_energy: float,
                                 tolerance: float = 1e-9) -> float:
        """Fraction of reads that reached *ground_energy* (within tolerance)."""
        matching = np.abs(self.energies - ground_energy) <= tolerance
        total_reads = self.total_reads
        if total_reads == 0:
            return 0.0
        return float(self.num_occurrences[matching].sum() / total_reads)


def _distinct_pack(raw: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, counts, bounds)`` of a ``(problems, reads, N)`` ``int8`` array:
    problem *b*'s distinct reads, in ``np.unique(axis=0)`` order, are
    ``rows[bounds[b]:bounds[b + 1]]``; *counts* are their occurrences.
    Spin reads of at most 63 variables are keyed by one integer each
    (:func:`_keyed_distinct`); any other read goes through ``np.unique``
    problem by problem."""
    if 0 < raw.shape[2] <= 63 and raw.size and ((raw == 1) | (raw == -1)).all():
        return _keyed_distinct(raw)
    found = [np.unique(reads, axis=0, return_counts=True) for reads in raw]
    rows, counts = (np.concatenate(part) for part in zip(*found))
    return rows, counts, np.cumsum([0] + [len(part) for _, part in found])


def _keyed_distinct(raw: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_distinct_pack` of spin reads of at most 63 variables, by
    array passes: pack each row into one integer key (MSB = first column,
    bit 1 = spin +1); ascending keys are exactly the lexicographic row
    order of ``np.unique(axis=0)``.  One stable sort per key row puts equal
    reads side by side in read order, so a run starts where a sorted key
    differs from its left neighbour, its head is the first occurrence
    ``np.unique`` reports and the distance to the next head its count —
    integer arithmetic for the whole pack at once."""
    num_problems, num_reads, num_variables = raw.shape
    keys = (raw > 0) @ np.left_shift(
        np.uint64(1), np.arange(num_variables - 1, -1, -1, dtype=np.uint64))
    order = keys.argsort(axis=1, kind="stable")
    keys = keys[np.arange(num_problems)[:, None], order]
    heads = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=heads[:, 1:])
    problem, position = np.nonzero(heads)
    flat = np.append(problem * num_reads + position, heads.size)
    bounds = np.searchsorted(problem, np.arange(num_problems + 1))
    return (raw[problem, order[problem, position]], flat[1:] - flat[:-1],
            bounds)


def aggregate_samples(ising: IsingModel, raw_samples: np.ndarray,
                      operator=None) -> SolverResult:
    """Collapse raw reads onto distinct configurations with occurrence counts.

    *operator* is an optional prebuilt symmetric coupling operator
    (:meth:`IsingModel.coupling_operator`); passing one lets repeated
    aggregations of the same problem — e.g. the ICE batches of a QA run —
    skip densifying the coupling matrix on every call.
    """
    raw_samples = np.asarray(raw_samples, dtype=np.int8)
    if raw_samples.ndim != 2:
        raise ConfigurationError("raw_samples must be 2-D (reads x variables)")
    distinct, counts, _ = _distinct_pack(raw_samples[None])
    return SolverResult.energy_sorted(
        distinct, ising.energies(distinct, operator=operator), counts)


def aggregate_pack(isings: Sequence[IsingModel], raw_samples: np.ndarray
                   ) -> List[SolverResult]:
    """:func:`aggregate_samples` over same-structure problems at once.

    *raw_samples* is ``(problems, reads, variables)``.  Where a compiler
    built the C artefact, spin reads of at most 63 variables are read out
    in one call of it (:func:`repro.annealer.backends.read_out`, what a
    machine pack's batch call runs inline): every problem's distinct reads
    with first occurrences and counts, and its coupling operator applied
    to them.  Otherwise array passes and scipy (one operator, its ``.data``
    rewritten per problem) — the references that call equals byte for
    byte.  Energies stay per problem, their floating-point order defining
    them: :func:`_solutions`.
    """
    problems = IsingPack.stack(isings)
    raw_samples = np.asarray(raw_samples, dtype=np.int8)
    if problems is None or raw_samples.shape[:1] + raw_samples.shape[2:] != (
            len(problems), problems.num_variables):
        raise ConfigurationError(
            "aggregate_pack needs same-structure problems and "
            "(problems x reads x variables) samples")
    return aggregate_over(problems, raw_samples, symmetric_csr_template(
        problems.num_variables, problems.keys))


def aggregate_over(problems: IsingPack, raw_samples: np.ndarray,
                   template: CsrTemplate) -> List[SolverResult]:
    """:func:`aggregate_pack` of an :class:`IsingPack` and its ``int8``
    ``(problems, reads, variables)`` samples over *template*, the
    symmetric CSR structure of its keys (a machine keeps it with the
    structure it serves)."""
    # Imported lazily: repro.annealer imports this module for SolverResult.
    from repro.annealer import backends

    if (backends.cext_available() and raw_samples.size
            and problems.num_variables < 64):
        out = backends.read_out(template, raw_samples, problems.values)
        if out is not None:  # None: a read that is not all spins
            return read_out_solutions(problems, out)
    from scipy import sparse

    distinct, counts, bounds = _distinct_pack(raw_samples)
    spins = distinct.astype(float)
    size = problems.num_variables
    operator = sparse.csr_matrix((size, size))  # scratch: data rebound
    operator.indices, operator.indptr = template.indices, template.indptr
    products = []
    for values, lo, hi in zip(problems.values[:, template.edges],
                              bounds[:-1].tolist(), bounds[1:].tolist()):
        operator.data = values
        products.append(operator @ spins[lo:hi].T)
    return _solutions(problems, distinct, spins, counts, bounds, products)


def read_out_solutions(problems: IsingPack, out) -> List[SolverResult]:
    """The results of a pack's C read-out *out* (a
    :class:`~repro.annealer.backends.PackReadOut` over *problems*)."""
    problems_count, reads, size = out.values.shape
    found = out.found.tolist()
    if problems_count == 1:  # the pack's one problem, at slot 0 throughout
        count, = found
        distinct = out.values[0].take(out.first[:count], axis=0)
        return [SolverResult.energy_sorted(distinct, product_energies(
            distinct.astype(float), out.products[:size * count].reshape(
                size, count), problems.linear[0], problems.offsets.item()),
            out.occurrences[:count])]
    keep = np.arange(reads) < out.found[:, None]
    first = out.first.reshape(problems_count, reads)[keep]
    counts = out.occurrences.reshape(problems_count, reads)[keep]
    distinct = out.values.reshape(-1, size).take(first, axis=0)
    products = [out.products[size * reads * b:size * (reads * b + count)]
                .reshape(size, count) for b, count in enumerate(found)]
    return _solutions(problems, distinct, distinct.astype(float), counts,
                      [0, *accumulate(found)], products)


def _solutions(problems: IsingPack, distinct: np.ndarray, spins: np.ndarray,
               counts: np.ndarray, bounds, products: list
               ) -> List[SolverResult]:
    """Problem *b*'s result from its distinct reads ``distinct[bounds[b]:
    bounds[b + 1]]`` (*spins* as floats), their *counts* and its coupling
    operator's *product* with them, through the one energy formula,
    :func:`~repro.ising.model.product_energies`."""
    edges = list(bounds)
    return [SolverResult.energy_sorted(
                distinct[lo:hi],
                product_energies(spins[lo:hi], product, linear, offset),
                counts[lo:hi])
            for lo, hi, product, linear, offset in zip(
                edges, edges[1:], products, problems.linear,
                problems.offsets.tolist())]


class BruteForceIsingSolver:
    """Exact enumeration of all ``2^N`` spin configurations.

    Only usable for small problems (default limit of 24 variables, ~16M
    states); the enumeration is vectorised in blocks to keep memory bounded.
    """

    def __init__(self, max_variables: int = 24, block_bits: int = 16):
        self.max_variables = check_integer_in_range("max_variables", max_variables,
                                                    minimum=1)
        self.block_bits = check_integer_in_range("block_bits", block_bits,
                                                 minimum=1, maximum=24)

    def _enumerate_blocks(self, num_variables: int):
        total = 1 << num_variables
        block = 1 << min(self.block_bits, num_variables)
        for start in range(0, total, block):
            indices = np.arange(start, min(start + block, total), dtype=np.int64)
            bits = ((indices[:, None] >> np.arange(num_variables)[None, :]) & 1)
            yield (2 * bits - 1).astype(np.int8)

    def solve(self, ising: IsingModel) -> SolverResult:
        """Return the exact ground state (as a one-sample result)."""
        spectrum = self.lowest_states(ising, num_states=1)
        return spectrum

    def lowest_states(self, ising: IsingModel, num_states: int = 1) -> SolverResult:
        """Return the *num_states* lowest-energy configurations, exactly."""
        if ising.num_variables > self.max_variables:
            raise ConfigurationError(
                f"brute force limited to {self.max_variables} variables, "
                f"got {ising.num_variables}"
            )
        num_states = check_integer_in_range("num_states", num_states, minimum=1)
        best_samples: Optional[np.ndarray] = None
        best_energies: Optional[np.ndarray] = None
        operator = ising.coupling_operator()
        for spins in self._enumerate_blocks(ising.num_variables):
            energies = ising.energies(spins, operator=operator)
            if best_samples is None:
                pool_samples, pool_energies = spins, energies
            else:
                pool_samples = np.vstack([best_samples, spins])
                pool_energies = np.concatenate([best_energies, energies])
            if pool_energies.size > num_states:
                # Partial selection: only the num_states survivors matter, so
                # an O(pool) argpartition replaces the O(pool log pool) full
                # sort (SolverResult re-sorts the final pool anyway).
                keep = np.argpartition(pool_energies, num_states - 1)[:num_states]
                best_samples = pool_samples[keep]
                best_energies = pool_energies[keep]
            else:
                best_samples = pool_samples
                best_energies = pool_energies
        return SolverResult(
            samples=best_samples,
            energies=best_energies,
            num_occurrences=np.ones(best_samples.shape[0], dtype=int),
        )

    def ground_energy(self, ising: IsingModel) -> float:
        """Exact minimum energy of the problem."""
        return self.solve(ising).best_energy


def geometric_temperature_schedule(num_sweeps: int, hot: float, cold: float) -> np.ndarray:
    """Geometric cooling schedule from *hot* to *cold* over *num_sweeps* sweeps."""
    num_sweeps = check_integer_in_range("num_sweeps", num_sweeps, minimum=1)
    hot = check_positive("hot", hot)
    cold = check_positive("cold", cold)
    if num_sweeps == 1:
        return np.array([cold])
    return hot * (cold / hot) ** (np.arange(num_sweeps) / (num_sweeps - 1))


def metropolis_anneal(ising: IsingModel, temperatures: Sequence[float],
                      rng: np.random.Generator,
                      initial_spins: Optional[np.ndarray] = None) -> np.ndarray:
    """Run one Metropolis annealing trajectory and return the final spins.

    Each entry of *temperatures* is one full sweep over all variables in a
    random order; single-spin-flip energy differences are computed from the
    adjacency structure so the cost per sweep is O(edges).
    """
    n = ising.num_variables
    adjacency: List[Dict[int, float]] = [{} for _ in range(n)]
    for (i, j), value in ising.couplings.items():
        adjacency[i][j] = adjacency[j][i] = value
    if initial_spins is None:
        spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    else:
        spins = np.asarray(initial_spins, dtype=np.int8).copy()
        if spins.shape != (n,):
            raise ConfigurationError(f"initial_spins must have shape ({n},)")
    linear = ising.linear
    for temperature in temperatures:
        order = rng.permutation(n)
        thresholds = rng.random(n)
        for step, index in enumerate(order):
            local_field = linear[index]
            for neighbour, coupling in adjacency[index].items():
                local_field += coupling * spins[neighbour]
            delta = -2.0 * spins[index] * local_field
            if delta <= 0.0 or thresholds[step] < np.exp(-delta / temperature):
                spins[index] = -spins[index]
    return spins


class SimulatedAnnealingSolver:
    """Classical Metropolis simulated annealing over the Ising problem.

    All reads are evolved simultaneously as replica rows of one noise-free
    batch on the shared engine (:class:`repro.annealer.engine.IsingSampler`);
    see :meth:`sample_reference` for the scalar reference loop.

    Parameters
    ----------
    num_sweeps:
        Monte Carlo sweeps per read.
    num_reads:
        Independent annealing trajectories.
    hot_temperature / cold_temperature:
        End points of the geometric cooling schedule, in units of the
        problem's energy scale (the schedule is multiplied by the largest
        absolute coefficient so behaviour is scale-free).
    rng:
        Draw discipline forwarded to the engine: ``"sequential"`` (default,
        the reference streams) or ``"counter"`` (keyed Philox streams,
        identical across backends and CPU counts; a different — equally
        exact — stream than sequential).
    """

    def __init__(self, num_sweeps: int = 200, num_reads: int = 100,
                 hot_temperature: float = 5.0, cold_temperature: float = 0.05,
                 rng: str = "sequential"):
        self.num_sweeps = check_integer_in_range("num_sweeps", num_sweeps, minimum=1)
        self.num_reads = check_integer_in_range("num_reads", num_reads, minimum=1)
        self.hot_temperature = check_positive("hot_temperature", hot_temperature)
        self.cold_temperature = check_positive("cold_temperature", cold_temperature)
        self.rng = rng

    def temperature_schedule_for(self, ising: IsingModel) -> np.ndarray:
        """The scale-free geometric schedule instantiated for one problem."""
        scale = max(ising.max_abs_coefficient, 1e-12)
        return geometric_temperature_schedule(
            self.num_sweeps, self.hot_temperature * scale,
            self.cold_temperature * scale)

    def _resolve_reads(self, num_reads: Optional[int]) -> int:
        if num_reads is None:
            return self.num_reads
        return check_integer_in_range("num_reads", num_reads, minimum=1)

    def sample(self, ising: IsingModel,
               random_state: RandomState = None,
               num_reads: Optional[int] = None) -> SolverResult:
        """Draw samples, evolving all reads as one replica-batched anneal."""
        # Imported lazily: repro.annealer.machine imports this module for
        # SolverResult, so a top-level import would be circular.
        from repro.annealer.engine import IsingSampler

        rng = ensure_rng(random_state)
        reads = self._resolve_reads(num_reads)
        temperatures = self.temperature_schedule_for(ising)
        sampler = IsingSampler(ising, rng=self.rng)
        raw = sampler.anneal(temperatures, reads, random_state=rng)
        # A pack of one: energies through the sparse coupling operator (the
        # C artefact's, where there is one), not a densified matrix.
        return aggregate_pack([ising], raw[None])[0]

    def sample_reference(self, ising: IsingModel,
                         random_state: RandomState = None,
                         num_reads: Optional[int] = None) -> SolverResult:
        """Reference path: one scalar :func:`metropolis_anneal` per read.

        Orders of magnitude slower than :meth:`sample`; kept as the ground
        truth the vectorised engine is equivalence-tested against.
        """
        rng = ensure_rng(random_state)
        reads = self._resolve_reads(num_reads)
        temperatures = self.temperature_schedule_for(ising)
        raw = np.empty((reads, ising.num_variables), dtype=np.int8)
        for read in range(reads):
            raw[read] = metropolis_anneal(ising, temperatures, rng)
        return aggregate_samples(ising, raw)

    def solve(self, ising: IsingModel, random_state: RandomState = None) -> SolverResult:
        """Alias of :meth:`sample` for interface parity with the exact solver."""
        return self.sample(ising, random_state=random_state)
