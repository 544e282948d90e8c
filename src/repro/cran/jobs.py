"""Decode jobs and results — the unit of work of the C-RAN serving layer.

The paper's deployment model (Section 1, Section 7) is a *centralized* RAN:
many base stations forward raw uplink signal to one QuAMax-equipped
processing pool.  A :class:`DecodeJob` is one subcarrier's detection problem
from that stream, carrying everything the serving layer needs to schedule it
(arrival time, deadline, problem-structure key) and everything the decoder
needs to solve it deterministically (the channel use and the job's private
random seed).  A :class:`JobResult` pairs the decode outcome with the serving
timeline (queueing delay, batch ride-along, virtual completion time) that the
telemetry layer aggregates.

All times are absolute microseconds on the service's virtual clock, matching
the time unit used throughout the annealer and metrics layers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.decoder.quamax import QuAMaxDetectionResult
from repro.exceptions import SchedulingError
from repro.metrics.error_rates import bit_errors
from repro.mimo.system import ChannelUse

#: Per-job randomness must be *re-creatable* (the job may be decoded in any
#: batch, or serially for verification), so jobs carry seed material rather
#: than a live generator.
JobSeed = Union[None, int, np.random.SeedSequence]

#: ``(N_t, N_r, modulation)``, see :attr:`DecodeJob.structure_key`.
StructureKey = Tuple[int, int, str]


@dataclass(frozen=True)
class DecodeJob:
    """One uplink subcarrier decode request submitted to the serving pool.

    Attributes
    ----------
    job_id:
        Unique, monotonically assigned identifier (ties in EDF ordering are
        broken by it, keeping schedules deterministic).
    user_id:
        The user/cell whose frame burst this job belongs to (used for
        per-user SNR and per-user accounting; the decode itself is joint over
        all spatially multiplexed users of the channel use).
    frame:
        Frame index of the originating transmission.
    subcarrier:
        OFDM subcarrier index within the frame.
    channel_use:
        The detection problem: ``y = H v + n`` plus ground truth when known.
    arrival_time_us:
        Absolute arrival time at the scheduler (virtual clock, µs).
    deadline_us:
        Absolute completion deadline (µs); ``inf`` when best-effort.
    seed:
        Seed material for the job's private random stream.  Decoding the job
        with :meth:`rng` inside any batch is bit-for-bit identical to
        decoding it alone on the same stream.  When omitted the
        job id is used, keeping manually constructed workloads replayable.
    retries:
        How many times this job has been requeued after a pack failure.
        The seed is carried across retries unchanged, so a retried decode
        is bit-identical to the first attempt.
    rng_mode:
        Draw discipline of the decode: ``"sequential"`` (default, the
        reference streams) or ``"counter"`` (keyed Philox streams,
        identical across backends and CPU counts).  A pack is decoded
        under one discipline, so the scheduler queues each separately.
    """

    job_id: int
    user_id: int
    frame: int
    subcarrier: int
    channel_use: ChannelUse
    arrival_time_us: float
    deadline_us: float = math.inf
    seed: JobSeed = None
    retries: int = 0
    rng_mode: str = "sequential"

    def __post_init__(self) -> None:
        # Spelled so that NaN fails too: every comparison with it is false.
        if not 0 <= self.arrival_time_us < math.inf:
            raise SchedulingError(
                f"arrival_time_us must be finite and non-negative, got "
                f"{self.arrival_time_us}")
        if math.isnan(self.deadline_us):
            raise SchedulingError(
                "deadline_us must not be NaN (inf is the best-effort "
                "spelling)")
        if self.deadline_us < self.arrival_time_us:
            raise SchedulingError(
                f"deadline_us ({self.deadline_us}) precedes arrival_time_us "
                f"({self.arrival_time_us})")
        if self.retries < 0:
            raise SchedulingError(
                f"retries must be non-negative, got {self.retries}")
        if self.rng_mode not in ("sequential", "counter"):
            raise SchedulingError(
                f"rng_mode must be 'sequential' or 'counter', got "
                f"{self.rng_mode!r}")
        if self.seed is None:
            # The stream must be re-creatable (serial verification, replay),
            # so an omitted seed falls back to the job's unique id rather
            # than OS entropy.
            object.__setattr__(self, "seed", self.job_id)

    # ------------------------------------------------------------------ #
    @property
    def modulation(self) -> str:
        """Constellation name of the transmission."""
        return self.channel_use.constellation.name

    @property
    def num_users(self) -> int:
        """Spatially multiplexed users of the channel use, ``N_t``."""
        return self.channel_use.num_tx

    @property
    def structure_key(self) -> StructureKey:
        """Problem structure: ``(N_t, N_r, modulation)``.

        Jobs sharing this key reduce to Ising problems of identical variable
        count and coupling structure (the ML reduction couples every variable
        pair of an ``N_t x modulation`` problem): in a pack they are the
        blocks of one block-diagonal sub-pack, each the same share of the chip.
        """
        return (self.channel_use.num_tx, self.channel_use.num_rx,
                self.modulation)

    def rng(self) -> np.random.Generator:
        """A *fresh* generator positioned at the start of the job's stream."""
        return np.random.default_rng(self.seed)


def structure_counts(jobs: Iterable[DecodeJob]
                     ) -> List[Tuple[StructureKey, int]]:
    """The distinct structure keys of *jobs*, sorted, with member counts."""
    return sorted(Counter(job.structure_key for job in jobs).items())


@dataclass(frozen=True)
class JobResult:
    """Decode outcome of one job, with its full serving timeline.

    The timeline is expressed on the service's virtual clock: the job waited
    in the scheduler from ``arrival_time_us`` to ``flush_time_us``, then its
    batch occupied a (virtual) QA worker from ``start_time_us`` to
    ``finish_time_us``.
    """

    job: DecodeJob
    result: QuAMaxDetectionResult
    batch_size: int
    flush_reason: str
    flush_time_us: float
    start_time_us: float
    finish_time_us: float

    # ------------------------------------------------------------------ #
    @property
    def latency_us(self) -> float:
        """Arrival-to-completion latency (µs)."""
        return self.finish_time_us - self.job.arrival_time_us

    @property
    def queue_delay_us(self) -> float:
        """Time spent pending in the scheduler before the flush (µs)."""
        return self.flush_time_us - self.job.arrival_time_us

    @property
    def deadline_met(self) -> bool:
        """Whether the job completed by its deadline."""
        return self.finish_time_us <= self.job.deadline_us

    def bit_errors(self) -> Optional[int]:
        """Bit errors against ground truth (``None`` when unavailable)."""
        if self.job.channel_use.transmitted_bits is None:
            return None
        return bit_errors(self.job.channel_use.transmitted_bits,
                          self.result.detection.bits)
