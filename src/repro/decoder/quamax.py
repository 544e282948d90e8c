"""QuAMax: quantum-annealing maximum-likelihood MIMO detection.

The decoder chains together every stage of the paper's Section 3 and 4
pipeline for one channel use:

1. reduce the ML problem to a logical Ising problem from ``H`` and ``y``
   (closed-form coefficients, no norm expansion);
2. embed it on the simulated DW2Q with the configured chain strength and
   dynamic range;
3. run ``N_a`` anneals with the configured schedule under ICE noise;
4. unembed by majority vote and keep the lowest-energy logical solution;
5. post-translate the QUBO bits into Gray-coded payload bits.

The result pairs the standard detector interface (symbols, bits, metric)
with the QA run itself, whose solution ranks, ground-state probability and
compute time the evaluation harness reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.backends import RNG_MODES
from repro.annealer.machine import (
    AnnealerParameters,
    AnnealResult,
    QuantumAnnealerSimulator,
)
from repro.detectors.base import DetectionResult, Detector
from repro.exceptions import DetectionError
from repro.ising.model import IsingPack, spins_to_bits
from repro.mimo.system import ChannelUse
from repro.transform.qubo_builder import ml_metric_of_symbols
from repro.transform.reduction import MLToIsingReducer, ReducedProblem
from repro.transform.symbols import QuamaxTransform, get_transform
from repro.utils.random import RandomState, child_rngs, ensure_rng


@dataclass(frozen=True)
class QuAMaxDetectionResult:
    """Detection result plus the quantum-annealing run that produced it.

    The run's figures are read from :attr:`run` (``run.compute_time_us``,
    ``run.ground_state_probability()``); the TTB / TTF profile is
    ``InstanceSolutionProfile.from_anneal_result(run, reduced)``.
    """

    #: Standard detector-style result (symbols, Gray-coded bits, ML metric).
    detection: DetectionResult
    #: The reduced (logical Ising) problem that was solved.
    reduced: ReducedProblem
    #: Raw annealer run statistics.
    run: AnnealResult


def _decode_reads(transform: QuamaxTransform, best: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(jobs, users)`` symbols and ``(jobs, bits)`` Gray bits of the
    ``(jobs, variables)`` *best* reads of one modulation: one spin-to-bit
    conversion, then one lookup each in its code tables."""
    gray_of = transform.gray_of_code
    quamax_bits = spins_to_bits(best)
    # One code per user, its bits little-endian: a row of both tables.
    codes = np.packbits(quamax_bits.reshape(len(best), -1, gray_of.shape[1]),
                        axis=2, bitorder="little")[..., 0]
    return (transform.symbol_of_code.take(codes),
            gray_of.take(codes, axis=0).reshape(quamax_bits.shape))


class QuAMaxDecoder(Detector):
    """ML MIMO detection on the (simulated) quantum annealer.

    Parameters
    ----------
    annealer:
        The machine to run on; a default DW2Q-like simulator is created when
        omitted.
    parameters:
        QA run parameters (schedule, chain strength, dynamic range, anneal
        count).
    random_state:
        Default randomness source for runs that do not pass their own.

    The draw discipline and kernel width are per call: see
    :meth:`detect_batch`.
    """

    name = "quamax"

    def __init__(self, annealer: Optional[QuantumAnnealerSimulator] = None,
                 parameters: Optional[AnnealerParameters] = None,
                 random_state: RandomState = None):
        self.annealer = annealer or QuantumAnnealerSimulator()
        self.parameters = parameters or AnnealerParameters()
        self._rng = ensure_rng(random_state)
        self._reducer = MLToIsingReducer()

    # ------------------------------------------------------------------ #
    def sampler_cache_info(self) -> dict:
        """Warm sampler cache counters of the underlying machine.

        Serving-layer telemetry reads this to report how often batch-size-1
        submissions reused a fully-warmed sampler instead of rebuilding one.
        """
        return self.annealer.sampler_cache_info()

    # ------------------------------------------------------------------ #
    def detect(self, channel_use: ChannelUse) -> DetectionResult:
        """Standard detector interface: return only the detection result."""
        return self.detect_with_run(channel_use).detection

    def detect_with_run(self, channel_use: ChannelUse,
                        parameters: Optional[AnnealerParameters] = None,
                        random_state: RandomState = None) -> QuAMaxDetectionResult:
        """Full QuAMax decode returning annealer statistics as well: a
        one-job :meth:`detect_batch` on *random_state*, else on the
        decoder's own generator."""
        rng = ensure_rng(random_state) if random_state is not None else self._rng
        return self.detect_batch([channel_use], parameters,
                                 random_states=[rng])[0]

    def detect_batch(self, channel_uses: Sequence[ChannelUse],
                     parameters: Optional[AnnealerParameters] = None,
                     random_state: RandomState = None,
                     random_states: Optional[Sequence[RandomState]] = None,
                     rng: str = "sequential"
                     ) -> List[QuAMaxDetectionResult]:
        """Decode many channel uses, packing same-size problems into QA jobs.

        Subcarriers whose reduced problems share one size and coupling
        structure (the usual case across an OFDM symbol) are grouped and
        submitted through :meth:`QuantumAnnealerSimulator.run_batch`, which
        shares the embedding, temperature profile and sampler structure and
        anneals all of them as replica rows of one Metropolis batch (the
        paper's Section 5.5 parallelization).

        Each channel use is decoded with its own child generator derived from
        *random_state*, so a job's bits are the ones a one-job call on that
        child gives, independent of how the problems were grouped.  Callers
        that have already derived per-use streams (e.g. the frame decode,
        which derives one child per subcarrier of the *whole* frame and
        submits a chunk at a time) pass them via *random_states* instead;
        *random_state* is then ignored.

        *rng* is the draw discipline forwarded to the annealer:
        ``"sequential"`` (default, the reference streams) or ``"counter"``
        (keyed Philox streams — a different, equally exact stream that is
        identical across backends and CPU counts).
        """
        channel_uses = list(channel_uses)
        if not channel_uses:
            raise DetectionError("detect_batch needs at least one channel use")
        # Once per distinct channel shape, not once per job.
        for channel_use in {channel_use.channel.shape: channel_use
                            for channel_use in channel_uses}.values():
            self._check_square_or_tall(channel_use)
        parameters = parameters or self.parameters
        if rng not in RNG_MODES:
            raise DetectionError(
                f"rng must be one of {RNG_MODES}, got {rng!r}")
        if random_states is not None:
            if len(random_states) != len(channel_uses):
                raise DetectionError(
                    f"need one random state per channel use: expected "
                    f"{len(channel_uses)}, got {len(random_states)}"
                )
            rngs = list(random_states)  # run_batch makes them generators
        else:
            generator = (ensure_rng(random_state) if random_state is not None
                         else self._rng)
            rngs = list(child_rngs(generator, len(channel_uses)))

        reduced = self._reducer.reduce_pack(channel_uses)
        # One QA job per (size, coupling key tuple): the reducer hands
        # problems of one structure — the identity every layer below plans
        # and caches by — the rows of one pack, in input order.
        groups: Dict[IsingPack, List[int]] = {}
        for index, problem in enumerate(reduced):
            groups.setdefault(problem.pack, []).append(index)

        results: List[Optional[QuAMaxDetectionResult]] = [None] * len(reduced)
        for pack, indices in groups.items():
            runs = self.annealer.run_batch(
                pack, parameters,
                random_states=[rngs[index] for index in indices],
                rng=rng)
            assembled = self._assemble_pack(
                [reduced[index] for index in indices], runs)
            for index, result in zip(indices, assembled):
                results[index] = result
        return results

    # ------------------------------------------------------------------ #
    def _assemble_pack(self, reduced: Sequence[ReducedProblem],
                       runs: Sequence[AnnealResult]
                       ) -> List[QuAMaxDetectionResult]:
        """:meth:`ReducedProblem.decode_spins` for the best read of every run
        of one QA job — the rows of one reduced pack, hence one
        constellation and user count: :func:`_decode_reads` once.  The ML
        metric stays per job: the floating-point order of its matvec and
        ``vdot`` *is* its value.
        """
        symbols, bits = _decode_reads(
            get_transform(reduced[0].constellation),
            runs[0].solutions.samples[:1] if len(runs) == 1 else np.array(
                [run.solutions.samples[0] for run in runs]))
        results = []
        for problem, run, symbols_b, bits_b in zip(reduced, runs, symbols,
                                                   bits):
            channel_use = problem.channel_use
            metric = ml_metric_of_symbols(
                channel_use.channel, channel_use.received, symbols_b)
            results.append(QuAMaxDetectionResult(
                DetectionResult.from_arrays(symbols_b, bits_b, metric,
                                            self.name),
                problem, run))
        return results

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (f"QuAMaxDecoder(annealer={self.annealer!r}, "
                f"num_anneals={self.parameters.num_anneals})")
