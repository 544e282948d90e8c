"""Unembedding: mapping physical chain spins back to logical variables.

Section 3.3 of the paper: the bit string the machine returns is expressed in
terms of the embedded problem, so each logical variable's value is recovered
from its chain of physical qubits.  If all spins of a chain agree the logical
value is that spin; otherwise the chain is *broken* and the logical value is
decided by majority vote, with ties resolved at random.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.annealer.embedded import EmbeddedIsing, EmbeddingPlan
from repro.exceptions import AnnealerError
from repro.utils.random import RandomState, ensure_rng


def unembed_pack(plan: EmbeddingPlan, physical_spins: np.ndarray,
                 rngs: Sequence[np.random.Generator]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Unembed the samples of a whole pack by majority vote.

    *physical_spins* holds, per sample row, the problems' compact physical
    spins side by side: shape ``(num_samples, problems * P)``.  Returns the
    ``(problems, num_samples, num_logical)`` logical spins and, per problem,
    the fraction of (sample, chain) pairs whose spins disagreed.

    All chains' majority votes are integer sums, so they are one
    gather-and-reduce over the plan's flattened chain index (exact in any
    summation order); the ties are then drawn (:func:`draw_ties`).  On the
    C artefact a machine pack is voted inside its batch call instead
    (:class:`~repro.annealer.backends.PackReadOut`), by the same sums.
    """
    num_samples = physical_spins.shape[0]
    lengths = np.diff(plan.chain_bounds)
    by_problem = physical_spins.reshape(
        num_samples, len(rngs), plan.num_physical).transpose(1, 0, 2)
    sums = np.add.reduceat(
        by_problem[:, :, plan.chain_members].astype(np.int64),
        plan.chain_bounds[:-1], axis=2)
    values = np.sign(sums).astype(np.int8)
    broken = np.count_nonzero(np.abs(sums) != lengths, axis=(1, 2))
    if not values.all():
        draw_ties(values, rngs)
    return values, broken / max(num_samples * plan.num_logical, 1)


def draw_ties(values: np.ndarray, rngs: Sequence[np.random.Generator]
              ) -> None:
    """Resolve the tied chains (the ``0`` entries) of the ``(problems,
    samples, L)`` logical spins in place: each problem draws the tie spins
    of its logical indices in ascending order from its own generator of
    *rngs*, a stream that must not move."""
    tied = values == 0
    spin_choices = np.array([-1, 1], dtype=np.int8)
    for problem, logical_index in zip(*np.nonzero(tied.any(axis=1))):
        tie_mask = tied[problem, :, logical_index]
        values[problem, tie_mask, logical_index] = rngs[problem].choice(
            spin_choices, size=int(np.count_nonzero(tie_mask)))


def unembed_samples(embedded: EmbeddedIsing, physical_spins,
                    random_state: RandomState = None
                    ) -> Tuple[np.ndarray, float]:
    """Unembed the ``(num_samples, num_physical)`` ±1 *physical_spins* of
    *embedded* (compact physical order) into ``(logical_spins,
    broken_fraction)``: ``(num_samples, num_logical)`` spins and the share
    of (sample, chain) pairs whose spins disagreed; *random_state* breaks
    the ties."""
    physical = np.asarray(physical_spins, dtype=np.int8)
    if physical.ndim != 2 or physical.shape[1] != embedded.num_physical:
        raise AnnealerError(
            f"physical_spins must have shape (num_samples, "
            f"{embedded.num_physical}), got {physical.shape}"
        )
    logical, broken = unembed_pack(embedded.pack.plan, physical,
                                   [ensure_rng(random_state)])
    return logical[0], float(broken[0])
