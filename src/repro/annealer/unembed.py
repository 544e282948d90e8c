"""Unembedding: mapping physical chain spins back to logical variables.

Section 3.3 of the paper: the bit string the machine returns is expressed in
terms of the embedded problem, so each logical variable's value is recovered
from its chain of physical qubits.  If all spins of a chain agree the logical
value is that spin; otherwise the chain is *broken* and the logical value is
decided by majority vote, with ties resolved at random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.annealer import backends
from repro.annealer.embedded import EmbeddedIsing, EmbeddingPlan
from repro.exceptions import AnnealerError
from repro.utils.random import RandomState, ensure_rng


@dataclass(frozen=True)
class UnembeddingReport:
    """Statistics of one unembedding pass over a batch of samples."""

    #: Number of (sample, chain) pairs whose spins were not all in agreement.
    broken_chains: int
    #: Number of (sample, chain) pairs decided by a coin flip (exact ties).
    tie_breaks: int
    #: Total number of (sample, chain) pairs processed.
    total_chains: int

    @property
    def broken_fraction(self) -> float:
        """Fraction of chains that were broken."""
        if self.total_chains == 0:
            return 0.0
        return self.broken_chains / self.total_chains


def unembed_pack(plan: EmbeddingPlan, physical_spins: np.ndarray,
                 rngs: Sequence[np.random.Generator]
                 ) -> Tuple[np.ndarray, List[UnembeddingReport]]:
    """Unembed the samples of a whole pack by majority vote.

    *physical_spins* holds, per sample row, the problems' compact physical
    spins side by side: shape ``(num_samples, problems * P)``.  Returns the
    ``(problems, num_samples, num_logical)`` logical spins and one report
    per problem.

    All chains' majority votes are integer sums, so they are one
    gather-and-reduce over the plan's flattened chain index (exact in any
    summation order) — one call of the C artefact
    (:func:`repro.annealer.backends.majority_vote`) where a compiler built
    it.  Only tie breaking stays a loop, and runs only when a chain tied,
    because each problem draws the tie spins of its logical indices in
    ascending order from its own generator of *rngs* and that stream must
    not move.
    """
    num_samples = physical_spins.shape[0]
    if backends.cext_available():
        values, broken, ties, any_tie = backends.majority_vote(
            plan, physical_spins, len(rngs))
    else:
        lengths = np.diff(plan.chain_bounds)
        by_problem = physical_spins.reshape(
            num_samples, len(rngs), plan.num_physical).transpose(1, 0, 2)
        sums = np.add.reduceat(
            by_problem[:, :, plan.chain_members].astype(np.int64),
            plan.chain_bounds[:-1], axis=2)
        values = np.sign(sums).astype(np.int8)
        broken = np.count_nonzero(np.abs(sums) != lengths, axis=(1, 2))
        ties = np.count_nonzero(values == 0, axis=(1, 2))
        any_tie = ties.any()
    if any_tie:
        tied = values == 0
        spin_choices = np.array([-1, 1], dtype=np.int8)
        for problem, logical_index in zip(*np.nonzero(tied.any(axis=1))):
            tie_mask = tied[problem, :, logical_index]
            values[problem, tie_mask, logical_index] = rngs[problem].choice(
                spin_choices, size=int(np.count_nonzero(tie_mask)))
    total = num_samples * plan.num_logical
    return values, [
        UnembeddingReport(broken_chains=int(broken_b), tie_breaks=int(ties_b),
                          total_chains=total)
        for broken_b, ties_b in zip(broken, ties)]


def unembed_samples(embedded: EmbeddedIsing, physical_spins,
                    random_state: RandomState = None
                    ) -> Tuple[np.ndarray, UnembeddingReport]:
    """Unembed a batch of physical samples into logical spins.

    Parameters
    ----------
    embedded:
        The embedded problem the samples were drawn from.
    physical_spins:
        Matrix of shape ``(num_samples, num_physical)`` with entries ±1, in
        the compact physical index order of *embedded*.
    random_state:
        Seed or generator used only for majority-vote tie breaking.

    Returns
    -------
    (logical_spins, report):
        ``logical_spins`` has shape ``(num_samples, num_logical)``; the report
        counts broken chains and tie breaks.
    """
    physical = np.asarray(physical_spins, dtype=np.int8)
    if physical.ndim != 2 or physical.shape[1] != embedded.num_physical:
        raise AnnealerError(
            f"physical_spins must have shape (num_samples, "
            f"{embedded.num_physical}), got {physical.shape}"
        )
    logical, reports = unembed_pack(embedded.pack.plan, physical,
                                    [ensure_rng(random_state)])
    return logical[0], reports[0]
