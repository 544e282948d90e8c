"""Intrinsic control error (ICE) model.

The DW2Q is an analog device, so the coefficients actually realised on the
chip differ from the programmed values.  Section 4 of the paper models ICE as
Gaussian perturbations applied on every anneal: the linear terms receive a
shift of mean 0.008 and standard deviation 0.02, the couplings a shift of
mean -0.015 and standard deviation 0.025 (in hardware units, i.e. relative to
the +/-1 coupler range).  Because the perturbation is *absolute*, problems
whose information has been squeezed into a small coefficient range (for
example by an over-large chain strength) lose their ground state to the
noise — the mechanism behind the ``|J_F|`` performance optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import constants
from repro.ising.model import IsingModel, IsingPack
from repro.utils.random import RandomState, ensure_rng


@dataclass(frozen=True)
class ICEModel:
    """Gaussian intrinsic-control-error noise on programmed coefficients.

    Parameters
    ----------
    linear_mean, linear_std:
        Mean and standard deviation of the perturbation added to each field.
    quadratic_mean, quadratic_std:
        Mean and standard deviation of the perturbation added to each coupling.
    enabled:
        Set to ``False`` for an idealised noise-free machine (useful in tests
        that need exact ground-state recovery).
    """

    linear_mean: float = constants.ICE_LINEAR_MEAN
    linear_std: float = constants.ICE_LINEAR_STD
    quadratic_mean: float = constants.ICE_QUADRATIC_MEAN
    quadratic_std: float = constants.ICE_QUADRATIC_STD
    enabled: bool = True

    @classmethod
    def disabled(cls) -> "ICEModel":
        """An ICE model that applies no perturbation."""
        return cls(enabled=False)

    def perturb_pack(self, problems: IsingPack,
                     rngs: Sequence[np.random.Generator]) -> IsingPack:
        """One ICE realisation per problem of a pack, each from its own
        generator.

        Problem *b* consumes ``rngs[b]`` exactly as a standalone
        :meth:`perturb` would — one sized ``normal`` draw for the fields,
        then one for the couplings in key order (element k of a sized draw
        is the k-th scalar draw) — so no seeded stream depends on how
        problems are packed.  A perturbed coupling that lands on exactly
        zero shows as a zero of the returned value matrix.  This is the
        NumPy path's ICE batch and the definition of the C one: on the
        artefact, :meth:`~repro.annealer.engine.BlockDiagonalSampler.anneal`
        makes these draws, the same values from the same streams, inside
        its batch call (``backends.pack_ice_batches``) instead.
        """
        if not self.enabled:
            return problems
        linear_shift = np.empty_like(problems.linear)
        coupling_shift = np.empty_like(problems.values)
        for fields, couplings, rng in zip(linear_shift, coupling_shift, rngs):
            fields[:] = rng.normal(self.linear_mean, self.linear_std,
                                   size=fields.size)
            couplings[:] = rng.normal(self.quadratic_mean, self.quadratic_std,
                                      size=couplings.size)
        return IsingPack(problems.num_variables, problems.keys,
                         problems.linear + linear_shift,
                         problems.values + coupling_shift, problems.offsets)

    def perturb(self, ising: IsingModel,
                random_state: RandomState = None) -> IsingModel:
        """Return a copy of *ising* with one ICE realisation applied."""
        if not self.enabled:
            return ising
        return self.perturb_pack(IsingPack.stack([ising]),
                                 [ensure_rng(random_state)])[0]

    def scaled(self, factor: float) -> "ICEModel":
        """An ICE model with all statistics multiplied by *factor*."""
        return ICEModel(
            linear_mean=self.linear_mean * factor,
            linear_std=self.linear_std * factor,
            quadratic_mean=self.quadratic_mean * factor,
            quadratic_std=self.quadratic_std * factor,
            enabled=self.enabled,
        )
