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
from repro.transform.symbols import get_transform
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


#: Per modulation, the exact ``T(q)`` symbol and Gray bits of each user code
#: ``sum_k q_k 2^k`` (``q @ weights + offset``, ``b ^ (b >> 1)`` per group).
_CODE_TABLES: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}


def _code_tables(name: str) -> Tuple[np.ndarray, np.ndarray]:
    tables = _CODE_TABLES.get(name)
    if tables is None:
        transform = get_transform(name)
        width = transform.bits_per_symbol
        codes = np.arange(1 << width)
        bits = ((codes[:, None] >> np.arange(width)) & 1).astype(np.uint8)
        # Natural binary to Gray per axis group: g = b ^ (b >> 1).
        axes = bits.reshape(codes.size, -1, max(width // 2, 1))
        gray = axes.copy()
        gray[..., 1:] ^= axes[..., :-1]
        tables = _CODE_TABLES[name] = (
            bits @ np.asarray(transform.weights) + transform.offset,
            gray.reshape(bits.shape))
    return tables


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
                     rng: str = "sequential",
                     threads: int = 1
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
        identical across backends and thread counts).  *threads* is the
        counter call's kernel width; it never changes seeded detections.
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
        threads = int(threads)
        if threads < 1:
            raise DetectionError("threads must be a positive integer")
        if threads > 1 and rng != "counter":
            raise DetectionError(
                "threads > 1 requires rng='counter' (a sequential cext call "
                "spreads its blocks, or one block's replicas, by itself)")
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
                rng=rng, threads=threads)
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
        constellation and user count: one spin-to-bit conversion, then one
        lookup each in the exact ``T(q)`` and Gray tables of the users'
        codes.  The ML metric stays per job: the floating-point order of its
        matvec and ``vdot`` *is* its value.
        """
        symbol_of, gray_of = _code_tables(reduced[0].constellation.name)
        quamax_bits = spins_to_bits(
            np.array([run.solutions.samples[0] for run in runs]))
        # One code per user, its bits little-endian: a row of both tables.
        codes = np.packbits(
            quamax_bits.reshape(len(runs), -1, gray_of.shape[1]), axis=2,
            bitorder="little")[..., 0]
        symbols = symbol_of[codes]
        bits = gray_of[codes].reshape(quamax_bits.shape)
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
