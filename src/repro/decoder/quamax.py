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

The result exposes both the standard detector interface (symbols, bits,
metric) and the QA-specific statistics (solution ranks, ground-state
probability, compute time, TTB profile) needed by the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.annealer.backends import BACKENDS, RNG_MODES
from repro.annealer.machine import (
    AnnealerParameters,
    AnnealResult,
    QuantumAnnealerSimulator,
)
from repro.detectors.base import DetectionResult, Detector
from repro.exceptions import DetectionError
from repro.ising.model import IsingPack, spins_to_bits
from repro.metrics.ttb import InstanceSolutionProfile
from repro.mimo.system import ChannelUse
from repro.transform.qubo_builder import ml_metric_of_symbols
from repro.transform.reduction import MLToIsingReducer, ReducedProblem
from repro.utils.random import RandomState, child_rngs, ensure_rng


@dataclass(frozen=True)
class QuAMaxDetectionResult:
    """Detection result plus the quantum-annealing run that produced it."""

    #: Standard detector-style result (symbols, Gray-coded bits, ML metric).
    detection: DetectionResult
    #: The reduced (logical Ising) problem that was solved.
    reduced: ReducedProblem
    #: Raw annealer run statistics.
    run: AnnealResult

    @property
    def compute_time_us(self) -> float:
        """Amortised pure compute time of the run (µs)."""
        return self.run.compute_time_us

    @property
    def ground_state_probability(self) -> float:
        """Per-anneal probability of the lowest energy observed in the run."""
        return self.run.ground_state_probability()

    def solution_profile(self) -> InstanceSolutionProfile:
        """Energy-ranked solution profile for TTB / TTF computation.

        Requires the originating channel use to carry ground-truth bits.
        """
        return InstanceSolutionProfile.from_anneal_result(self.run, self.reduced)


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
    backend:
        Sweep-kernel implementation forwarded to the annealer on every run
        (``"auto"``, ``"numpy"`` or ``"cext"``).  Seeded detections are
        bit-identical across backends — the knob only moves the sweep loop
        between the NumPy reference and the compiled implementation.
    rng:
        Draw discipline forwarded to the annealer on every run:
        ``"sequential"`` (default, the reference streams) or ``"counter"``
        (keyed Philox streams — a different, equally exact stream that is
        identical across backends and thread counts and legalises
        ``threads``).
    threads:
        Kernel threads forwarded alongside; requires ``rng="counter"``
        when > 1.  Thread count never changes seeded detections.
    """

    name = "quamax"

    def __init__(self, annealer: Optional[QuantumAnnealerSimulator] = None,
                 parameters: Optional[AnnealerParameters] = None,
                 random_state: RandomState = None,
                 backend: str = "auto", rng: str = "sequential",
                 threads: int = 1):
        if backend not in BACKENDS:
            raise DetectionError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
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
        self.annealer = annealer or QuantumAnnealerSimulator()
        self.parameters = parameters or AnnealerParameters()
        self.backend = backend
        self.rng_mode = rng
        self.threads = threads
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
        """Full QuAMax decode returning annealer statistics as well."""
        self._check_square_or_tall(channel_use)
        parameters = parameters or self.parameters
        rng = ensure_rng(random_state) if random_state is not None else self._rng

        reduced = self._reducer.reduce(channel_use)
        run = self.annealer.run(reduced.ising, parameters, random_state=rng,
                                backend=self.backend, rng=self.rng_mode,
                                threads=self.threads)
        return self._assemble_pack([reduced], [run], parameters)[0]

    def detect_batch(self, channel_uses: Sequence[ChannelUse],
                     parameters: Optional[AnnealerParameters] = None,
                     random_state: RandomState = None,
                     random_states: Optional[Sequence[RandomState]] = None,
                     rng: Optional[str] = None,
                     threads: Optional[int] = None
                     ) -> List[QuAMaxDetectionResult]:
        """Decode many channel uses, packing same-size problems into QA jobs.

        Subcarriers whose reduced problems share one size and coupling
        structure (the usual case across an OFDM symbol) are grouped and
        submitted through :meth:`QuantumAnnealerSimulator.run_batch`, which
        shares the embedding, temperature profile and sampler structure and
        anneals all of them as replica rows of one Metropolis batch (the
        paper's Section 5.5 parallelization).

        Each channel use is decoded with its own child generator derived from
        *random_state*, in exactly the stream a serial
        :meth:`detect_with_run` with that child would consume — so the
        returned results are bit-for-bit identical to serial decoding,
        independent of how the problems were grouped.  Callers that have
        already derived per-use streams (e.g. the chunked frame decode,
        which derives one child per subcarrier of the *whole* frame and
        submits a chunk at a time) pass them via *random_states* instead;
        *random_state* is then ignored.

        *rng* / *threads* override the decoder's configured draw discipline
        and kernel thread count for this call only — the hook the serving
        pool uses to honour per-job hints without rebuilding the decoder.
        """
        channel_uses = list(channel_uses)
        if not channel_uses:
            raise DetectionError("detect_batch needs at least one channel use")
        # Once per distinct channel shape, not once per job.
        for channel_use in {channel_use.channel.shape: channel_use
                            for channel_use in channel_uses}.values():
            self._check_square_or_tall(channel_use)
        parameters = parameters or self.parameters
        rng_mode = self.rng_mode if rng is None else rng
        if rng_mode not in RNG_MODES:
            raise DetectionError(
                f"rng must be one of {RNG_MODES}, got {rng_mode!r}")
        threads = self.threads if threads is None else int(threads)
        if threads < 1:
            raise DetectionError("threads must be a positive integer")
        if threads > 1 and rng_mode != "counter":
            raise DetectionError(
                "threads > 1 requires rng='counter' (a sequential cext call "
                "spreads its blocks, or one block's replicas, by itself)")
        if random_states is not None:
            if len(random_states) != len(channel_uses):
                raise DetectionError(
                    f"need one random state per channel use: expected "
                    f"{len(channel_uses)}, got {len(random_states)}"
                )
            rngs = [ensure_rng(state) for state in random_states]
        else:
            rng = (ensure_rng(random_state) if random_state is not None
                   else self._rng)
            rngs = list(child_rngs(rng, len(channel_uses)))

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
                backend=self.backend, rng=rng_mode, threads=threads)
            assembled = self._assemble_pack(
                [reduced[index] for index in indices], runs, parameters)
            for index, result in zip(indices, assembled):
                results[index] = result
        return results

    # ------------------------------------------------------------------ #
    def _assemble_pack(self, reduced: Sequence[ReducedProblem],
                       runs: Sequence[AnnealResult],
                       parameters: AnnealerParameters
                       ) -> List[QuAMaxDetectionResult]:
        """:meth:`ReducedProblem.decode_spins` for the best read of every run
        of one QA job — the rows of one reduced pack, hence one
        constellation and user count: spin-to-bit, ``T(q)`` symbols and
        binary-to-Gray are one (exact, small-integer) array operation each.
        The ML metric stays per job: the floating-point order of its matvec
        and ``vdot`` *is* its value.
        """
        transform, num_users = reduced[0].transform, reduced[0].num_users
        width = transform.bits_per_symbol
        quamax_bits = spins_to_bits(
            np.array([run.solutions.samples[0] for run in runs]))
        symbols = (quamax_bits.reshape(len(runs), num_users, width)
                   @ np.asarray(transform.weights) + transform.offset)
        # Natural binary to Gray per axis group: g = b ^ (b >> 1).
        axes = quamax_bits.reshape(len(runs), -1, max(width // 2, 1))
        bits = axes.copy()
        bits[..., 1:] ^= axes[..., :-1]
        bits = bits.reshape(quamax_bits.shape)
        results = []
        for row, (problem, run) in enumerate(zip(reduced, runs)):
            channel_use = problem.channel_use
            metric = ml_metric_of_symbols(
                channel_use.channel, channel_use.received, symbols[row])
            extra = {
                "num_anneals": run.num_anneals,
                "compute_time_us": run.compute_time_us,
                "ground_state_probability": run.ground_state_probability(),
                "broken_chain_fraction": run.unembedding.broken_fraction,
                "chain_strength": parameters.chain_strength,
                "extended_range": parameters.extended_range,
            }
            results.append(QuAMaxDetectionResult(
                DetectionResult.from_arrays(symbols[row], bits[row], metric,
                                            self.name, extra),
                problem, run))
        return results

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (f"QuAMaxDecoder(annealer={self.annealer!r}, "
                f"num_anneals={self.parameters.num_anneals}, "
                f"backend={self.backend!r}, "
                f"rng={self.rng_mode!r}, threads={self.threads})")
