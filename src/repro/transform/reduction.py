"""High-level facade: from a MIMO channel use to an annealer-ready problem.

The :class:`MLToIsingReducer` bundles the pieces of Section 3.2 — the QuAMax
symbol transform, the closed-form Ising coefficients and the bitwise
post-translation — behind two operations:

* :meth:`MLToIsingReducer.reduce_pack` turns channel uses into
  :class:`ReducedProblem` instances holding the logical Ising (and, on
  demand, QUBO) form of their ML detection problems — all uses of one
  constellation and channel shape in one array pass, as the rows of one
  :class:`~repro.ising.model.IsingPack`; :meth:`MLToIsingReducer.reduce`
  is the pack of one;
* :meth:`ReducedProblem.bits_from_spins` maps a logical spin configuration
  returned by the annealer back into the Gray-coded payload bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ReductionError
from repro.ising.model import (
    IsingModel,
    IsingPack,
    QUBOModel,
    bits_to_spins,
    spins_to_bits,
)
from repro.mimo.system import ChannelUse
from repro.modulation.constellation import Constellation
from repro.transform.ising_coeffs import MLIsingStructure, build_ml_ising_pack
from repro.transform.posttranslate import gray_to_quamax_bits, quamax_to_gray_bits
from repro.transform.qubo_builder import (
    build_ml_qubo,
    ml_metric_from_bits,
    ml_metric_of_symbols,
)
from repro.transform.symbols import QuamaxTransform, get_transform
from repro.utils.validation import ensure_bit_array


@dataclass(frozen=True)
class ReducedProblem:
    """The annealer-ready form of one ML detection problem.

    Attributes
    ----------
    pack, row:
        The logical Ising problem, whose ground state is the ML solution,
        is row *row* of *pack*: the same-structure problems one
        :meth:`MLToIsingReducer.reduce_pack` call reduced together, in the
        order they were given.
    constellation:
        The constellation of the originating channel use.
    num_users:
        Number of transmitting users.
    channel_use:
        The originating channel use (kept for metric evaluation and ground
        truth when available).
    """

    pack: IsingPack
    row: int
    constellation: Constellation
    num_users: int
    channel_use: ChannelUse

    # ------------------------------------------------------------------ #
    @property
    def ising(self) -> IsingModel:
        """The logical Ising problem (built from row views when first read)."""
        return self.pack[self.row]

    @property
    def transform(self) -> QuamaxTransform:
        """The QuAMax symbol transform of this problem's modulation."""
        return get_transform(self.constellation)

    @property
    def num_variables(self) -> int:
        """Number of logical Ising/QUBO variables."""
        return self.pack.num_variables

    def to_qubo(self) -> QUBOModel:
        """The equivalent QUBO form (built by direct norm expansion)."""
        return build_ml_qubo(self.channel_use.channel, self.channel_use.received,
                             self.constellation)

    # ------------------------------------------------------------------ #
    # Solution handling
    # ------------------------------------------------------------------ #
    def bits_from_spins(self, spins) -> np.ndarray:
        """Map a logical spin configuration to Gray-coded payload bits."""
        spins = np.asarray(spins)
        if spins.shape != (self.num_variables,):
            raise ReductionError(
                f"expected {self.num_variables} spins, got shape {spins.shape}")
        quamax_bits = spins_to_bits(spins)
        return quamax_to_gray_bits(quamax_bits, self.constellation)

    def bits_from_qubo(self, qubo_bits) -> np.ndarray:
        """Map QUBO solution bits to Gray-coded payload bits."""
        qubo_bits = ensure_bit_array(qubo_bits, length=self.num_variables)
        return quamax_to_gray_bits(qubo_bits, self.constellation)

    def symbols_from_spins(self, spins) -> np.ndarray:
        """Map a logical spin configuration to detected constellation symbols."""
        quamax_bits = spins_to_bits(np.asarray(spins))
        return self.transform.to_symbols(quamax_bits)

    def metric_of_spins(self, spins) -> float:
        """ML Euclidean metric of the symbol vector a spin configuration encodes."""
        quamax_bits = spins_to_bits(np.asarray(spins))
        return ml_metric_from_bits(self.channel_use.channel,
                                   self.channel_use.received,
                                   self.constellation, quamax_bits)

    def decode_spins(self, spins) -> Tuple[np.ndarray, np.ndarray, float]:
        """``(bits, symbols, metric)`` of one logical spin configuration.

        What :meth:`bits_from_spins`, :meth:`symbols_from_spins` and
        :meth:`metric_of_spins` return one at a time, from a single
        spin-to-bit conversion and a single symbol mapping — the reference
        the decoder's pack-wide result assembly is tested against.
        """
        spins = np.asarray(spins)
        if spins.shape != (self.num_variables,):
            raise ReductionError(
                f"expected {self.num_variables} spins, got shape {spins.shape}")
        quamax_bits = spins_to_bits(spins)
        symbols = self.transform.to_symbols(quamax_bits)
        if symbols.size != self.channel_use.num_tx:
            raise ReductionError(
                f"spins describe {symbols.size} users, channel has "
                f"{self.channel_use.num_tx} columns")
        return (quamax_to_gray_bits(quamax_bits, self.constellation), symbols,
                ml_metric_of_symbols(self.channel_use.channel,
                                     self.channel_use.received, symbols))

    # ------------------------------------------------------------------ #
    # Ground truth (available only when the channel use carries it)
    # ------------------------------------------------------------------ #
    def ground_truth_qubo_bits(self) -> np.ndarray:
        """QUBO-variable values corresponding to the transmitted bits."""
        if self.channel_use.transmitted_bits is None:
            raise ReductionError("channel use carries no ground-truth bits")
        return gray_to_quamax_bits(self.channel_use.transmitted_bits,
                                   self.constellation)

    def ground_truth_spins(self) -> np.ndarray:
        """Spin configuration corresponding to the transmitted bits."""
        return bits_to_spins(self.ground_truth_qubo_bits())

    def bit_errors(self, spins) -> int:
        """Bit errors of a spin configuration against the transmitted bits."""
        if self.channel_use.transmitted_bits is None:
            raise ReductionError("channel use carries no ground-truth bits")
        decoded = self.bits_from_spins(spins)
        return int(np.count_nonzero(decoded != self.channel_use.transmitted_bits))


class MLToIsingReducer:
    """Builds :class:`ReducedProblem` instances from MIMO channel uses.

    Keeps one :class:`~repro.transform.ising_coeffs.MLIsingStructure` per
    (modulation, user count) it has reduced: a handful per receiver, never
    evicted.
    """

    def __init__(self) -> None:
        self._structures: Dict[Tuple[str, int], MLIsingStructure] = {}

    def reduce_pack(self, channel_uses: Sequence[ChannelUse]
                    ) -> List[ReducedProblem]:
        """Reduce channel uses to their logical Ising problems (Eqs. 6-8,
        13-14), in input order: one array pass per (constellation, channel
        shape), whose problems of one coupling structure — all of them, bar
        an exact-zero coupling — are the rows, in input order, of one
        ``pack``: the unit
        :meth:`~repro.annealer.machine.QuantumAnnealerSimulator.run_batch`
        takes as is.
        """
        stacks: Dict[tuple, List[int]] = {}
        for index, channel_use in enumerate(channel_uses):
            stacks.setdefault((channel_use.constellation.name,
                               channel_use.channel.shape), []).append(index)
        reduced: List[ReducedProblem] = [None] * len(channel_uses)
        for (name, shape), members in stacks.items():
            structure = self._structures.get((name, shape[1]))
            if structure is None:
                structure = MLIsingStructure(name, shape[1])
                # Equal key tuples stay one object: the layers below key
                # on the tuple, and an identical one compares at once.
                # (A tuple of the values: worker threads share a reducer.)
                structure.keys = next(
                    (other.keys for other in tuple(self._structures.values())
                     if other.keys == structure.keys), structure.keys)
                self._structures[name, shape[1]] = structure
            for rows, pack in build_ml_ising_pack(
                    np.array([channel_uses[index].channel
                              for index in members]),
                    np.array([channel_uses[index].received
                              for index in members]), structure):
                for row, member in enumerate(rows.tolist()):
                    channel_use = channel_uses[members[member]]
                    reduced[members[member]] = ReducedProblem(
                        pack, row, channel_use.constellation,
                        channel_use.num_tx, channel_use)
        return reduced

    def reduce(self, channel_use: ChannelUse) -> ReducedProblem:
        """Reduce one channel use: :meth:`reduce_pack` of the one."""
        return self.reduce_pack([channel_use])[0]
