"""The five named workloads: offered load, decoder and service settings.

Each builder turns a seed into the ``DecodeJob`` list the program will
receive — the seed itself stays in the harness.  Every job comes from
``ArgosLikeTraceGenerator`` + ``PoissonTrafficGenerator`` at 20 dB.  Why
each workload exists, and which layers it leans on, is recorded in
``BENCHMARK.json`` and the README next to this file.
"""

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.jobs import DecodeJob
from repro.cran.traffic import PoissonTrafficGenerator
from repro.decoder.quamax import QuAMaxDecoder

SNR_DB = 20.0
BURST_SUBCARRIERS = 4
#: ``mixed_modulation`` draws its arrival *timeline* from this constant, not
#: from ``--seed``: an open-loop schedule is part of the workload's
#: definition.  With seeded arrivals the virtual-clock tail (p99 of 800
#: jobs is its 8 worst) moved 15 % between seeds for one scheduling policy.
MIXED_SCHEDULE_SEED = 2019


@dataclass(frozen=True)
class Sizes:
    """Knobs that differ between the measured and the ``--smoke`` scale."""

    qpsk_bursts: int
    mixed_bursts_per_stream: int
    large_users: int
    large_antennas: int
    large_chip_cells: int
    large_bursts: int
    num_anneals: int
    large_num_anneals: int


FULL = Sizes(qpsk_bursts=200, mixed_bursts_per_stream=17, large_users=48,
             large_antennas=96, large_chip_cells=16, large_bursts=5,
             num_anneals=50, large_num_anneals=200)
SMOKE = Sizes(qpsk_bursts=4, mixed_bursts_per_stream=1, large_users=12,
              large_antennas=24, large_chip_cells=4, large_bursts=1,
              num_anneals=10, large_num_anneals=10)


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the serving configuration it runs under."""

    name: str
    jobs: List[DecodeJob]
    decoder: QuAMaxDecoder
    #: Keyword arguments of ``CranService`` (always an inline pool).
    service: Dict[str, Any]
    #: Service settings of a twin workload that serves the same jobs and
    #: must detect the same bits (``batch1_qpsk`` -> ``saturating_qpsk``).
    twin_service: Optional[Dict[str, Any]] = None


def _trace(seed, users: int, antennas: int):
    return ArgosLikeTraceGenerator(
        num_bs_antennas=antennas, num_users=users,
        num_subcarriers=16).generate(num_frames=2, random_state=seed)


def _traffic(trace, seed, *, modulation: str, bursts: int,
             interarrival_us: float, rx_antennas=None) -> List[DecodeJob]:
    """Best-effort (no deadline) Poisson bursts over *trace*."""
    generator = PoissonTrafficGenerator(
        trace, modulations=modulation, mean_interarrival_us=interarrival_us,
        burst_subcarriers=BURST_SUBCARRIERS, user_snrs_db=SNR_DB,
        deadline_us=math.inf, num_rx_antennas=rx_antennas)
    return generator.generate(bursts, random_state=seed)


def _default_decoder(num_anneals: int) -> QuAMaxDecoder:
    return QuAMaxDecoder(QuantumAnnealerSimulator(),
                         AnnealerParameters(num_anneals=num_anneals))


def _qpsk_jobs(seed: int, sizes: Sizes) -> List[DecodeJob]:
    """3-user QPSK over 12 antennas, bursts 10 us apart: packs always fill."""
    trace_seed, traffic_seed = np.random.SeedSequence(seed).spawn(2)
    return _traffic(_trace(trace_seed, users=3, antennas=12), traffic_seed,
                    modulation="QPSK", bursts=sizes.qpsk_bursts,
                    interarrival_us=10.0)


SATURATING_SERVICE = dict(max_batch=16, max_wait_us=2e5)


def saturating_qpsk(seed: int, sizes: Sizes) -> Workload:
    return Workload("saturating_qpsk", _qpsk_jobs(seed, sizes),
                    _default_decoder(sizes.num_anneals), SATURATING_SERVICE)


def batch1_qpsk(seed: int, sizes: Sizes) -> Workload:
    jobs = _qpsk_jobs(seed, sizes)
    return Workload("batch1_qpsk", jobs[:len(jobs) // 2],
                    _default_decoder(sizes.num_anneals),
                    dict(max_batch=1, max_wait_us=math.inf),
                    twin_service=SATURATING_SERVICE)


def counter_qpsk(seed: int, sizes: Sizes) -> Workload:
    jobs = [replace(job, rng_mode="counter")
            for job in _qpsk_jobs(seed, sizes)]
    return Workload("counter_qpsk", jobs,
                    _default_decoder(sizes.num_anneals),
                    dict(SATURATING_SERVICE, threads=1))


def mixed_modulation(seed: int, sizes: Sizes) -> Workload:
    """Four cells x three modulations = 12 structure keys, light load.

    Each (cell, modulation) pair is its own Poisson stream at a third of
    the cell's rate — by Poisson splitting the same process as one stream
    per cell choosing its modulation uniformly per burst — so the sequence
    of structure keys is as fixed as the timeline (see
    ``MIXED_SCHEDULE_SEED``) while channels, payloads, noise and per-job
    decode seeds all come from ``--seed``.
    """
    cells = (2, 3, 4, 6)
    modulations = ("BPSK", "QPSK", "16-QAM")
    cell_interarrival_us = 320_000.0
    # With the fixed timeline the modelled p99 latency is 211 ms, so the
    # 250 ms deadline this workload was first drafted with is never missed;
    # at 150 ms 16 % of the jobs miss, and a batching-policy change moves
    # ``deadline_met_share`` instead of leaving it pinned at 1.
    deadline_us = 150_000.0
    schedule = np.random.default_rng(MIXED_SCHEDULE_SEED)
    stream_seeds = iter(np.random.SeedSequence(seed).spawn(
        len(cells) * (1 + len(modulations))))
    jobs: List[DecodeJob] = []
    for users in cells:
        trace = _trace(next(stream_seeds), users=users, antennas=12)
        for modulation in modulations:
            stream = _traffic(
                trace, next(stream_seeds), modulation=modulation,
                bursts=sizes.mixed_bursts_per_stream,
                interarrival_us=cell_interarrival_us * len(modulations))
            arrivals = np.cumsum(schedule.exponential(
                cell_interarrival_us * len(modulations),
                size=sizes.mixed_bursts_per_stream))
            for index, job in enumerate(stream):
                arrival = float(arrivals[index // BURST_SUBCARRIERS])
                jobs.append(replace(job, arrival_time_us=arrival,
                                    deadline_us=arrival + deadline_us))
    # Each stream numbered its own jobs from 0: renumber the merged load in
    # arrival order (ids must be unique and monotone in arrival time).
    jobs.sort(key=lambda job: job.arrival_time_us)
    jobs = [replace(job, job_id=index) for index, job in enumerate(jobs)]
    return Workload("mixed_modulation", jobs,
                    _default_decoder(sizes.num_anneals),
                    dict(max_batch=16, max_wait_us=5e4))


def large_mimo_bpsk(seed: int, sizes: Sizes) -> Workload:
    """The paper's headline size: 48-user BPSK on 48 of 96 antennas.

    The default ``dw2q()`` topology cannot embed 48 logical variables
    (``EmbeddingError``), so the decoder runs on an ideal Chimera chip, as
    ``ExperimentConfig.paper_scale()`` does.
    """
    trace_seed, traffic_seed = np.random.SeedSequence(seed).spawn(2)
    trace = _trace(trace_seed, users=sizes.large_users,
                   antennas=sizes.large_antennas)
    jobs = _traffic(trace, traffic_seed, modulation="BPSK",
                    bursts=sizes.large_bursts, interarrival_us=10.0,
                    rx_antennas=sizes.large_users)
    chip = ChimeraGraph.ideal(sizes.large_chip_cells, sizes.large_chip_cells)
    decoder = QuAMaxDecoder(
        QuantumAnnealerSimulator(chip),
        AnnealerParameters(num_anneals=sizes.large_num_anneals))
    return Workload("large_mimo_bpsk", jobs, decoder,
                    dict(max_batch=1, max_wait_us=math.inf))


BUILDERS = {builder.__name__: builder for builder in (
    saturating_qpsk, batch1_qpsk, counter_qpsk, mixed_modulation,
    large_mimo_bpsk)}
