"""Workload generation: Poisson frame bursts over a wideband channel trace.

Drives the serving layer with the kind of uplink stream a centralized RAN
front-haul actually delivers: frames arrive as a Poisson process; each frame
burst belongs to one user/cell and spans several OFDM subcarriers of one
trace snapshot (all sharing that frame's channel state, each with its own
random antenna subset, the paper's Section 5.5 procedure); different bursts
use different modulations with configurable mix, and each user has its own
large-scale SNR.  Every emitted :class:`~repro.cran.jobs.DecodeJob` carries a
private seed spawned from the generator's stream, so an entire offered load
regenerates bit-for-bit from one top-level seed — which is what lets the test
suite compare batched serving against serial decoding job by job.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.channel.trace import ChannelTrace
from repro.cran.jobs import DecodeJob
from repro.exceptions import SchedulingError
from repro.mimo.system import MimoUplink
from repro.utils.random import RandomState, ensure_rng, spawn_seed
from repro.utils.validation import check_integer_in_range, check_positive


class PoissonTrafficGenerator:
    """Generates Poisson-arriving multi-user decode jobs from a channel trace.

    Parameters
    ----------
    trace:
        Wideband trace supplying channel state; its user count fixes the
        spatial multiplexing order of every job.
    modulations:
        Constellation mix: a name, a sequence of names (uniform mix), or a
        ``{name: weight}`` mapping.
    mean_interarrival_us:
        Mean of the exponential gap between frame bursts (µs); the offered
        load knob.
    burst_subcarriers:
        Subcarriers decoded per frame burst (jobs arriving together).
    user_snrs_db:
        Per-user SNR (dB): a scalar shared by all users or one value per
        trace user.
    deadline_us:
        Relative decode deadline applied to every job (µs after arrival);
        ``inf`` for best-effort traffic.
    num_rx_antennas:
        Antennas drawn per channel use; defaults to the trace's user count
        (the paper's square configuration).
    """

    def __init__(self, trace: ChannelTrace, *,
                 modulations: Union[str, Sequence[str],
                                    Mapping[str, float]] = ("BPSK", "QPSK"),
                 mean_interarrival_us: float = 5_000.0,
                 burst_subcarriers: int = 4,
                 user_snrs_db: Union[float, Sequence[float]] = 20.0,
                 deadline_us: float = 60_000.0,
                 num_rx_antennas: Optional[int] = None):
        if not isinstance(trace, ChannelTrace):
            raise SchedulingError(
                "PoissonTrafficGenerator requires a ChannelTrace")
        self.trace = trace
        if isinstance(modulations, str):
            modulations = {modulations: 1.0}
        elif not isinstance(modulations, Mapping):
            modulations = {name: 1.0 for name in modulations}
        if not modulations:
            raise SchedulingError("need at least one modulation")
        weights = np.asarray(list(modulations.values()), dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise SchedulingError(
                "modulation weights must be non-negative with a positive sum")
        self._modulation_names = list(modulations.keys())
        self._modulation_probs = weights / weights.sum()
        self.mean_interarrival_us = check_positive("mean_interarrival_us",
                                                   mean_interarrival_us)
        self.burst_subcarriers = check_integer_in_range(
            "burst_subcarriers", burst_subcarriers, minimum=1,
            maximum=trace.num_subcarriers)
        snrs = np.asarray(user_snrs_db, dtype=float)
        if snrs.ndim == 0:
            snrs = np.full(trace.num_users, float(snrs))
        if snrs.shape != (trace.num_users,):
            raise SchedulingError(
                f"user_snrs_db must be scalar or one value per trace user "
                f"({trace.num_users}), got shape {snrs.shape}")
        self.user_snrs_db = snrs
        self.deadline_us = check_positive("deadline_us", deadline_us)
        if num_rx_antennas is None:
            num_rx_antennas = trace.num_users
        self.num_rx_antennas = check_integer_in_range(
            "num_rx_antennas", num_rx_antennas, minimum=trace.num_users,
            maximum=trace.num_bs_antennas)
        # One uplink model per modulation, all over the trace's user count.
        self._links: Dict[str, MimoUplink] = {
            name: MimoUplink(num_users=trace.num_users, constellation=name,
                             num_rx_antennas=self.num_rx_antennas)
            for name in self._modulation_names
        }
        self._next_job_id = 0
        self._last_arrival_us = 0.0

    # ------------------------------------------------------------------ #
    def generate(self, num_bursts: int,
                 random_state: RandomState = None,
                 start_time_us: float = 0.0) -> List[DecodeJob]:
        """Generate *num_bursts* frame bursts of decode jobs.

        Jobs are returned in arrival order with consecutive ids; all jobs of
        a burst share one arrival time (they leave the FFT together).  The
        id counter persists across calls, so loads generated in several
        chained calls (via *start_time_us*) can be concatenated without
        violating the jobs' unique-id contract.  To keep the concatenation
        also *arrival-ordered* (ids monotone in arrival time, which the
        strict scheduler clock relies on), *start_time_us* must not precede
        the last arrival emitted by a previous call — chain with
        ``start_time_us=previous[-1].arrival_time_us`` (equality is fine,
        the first gap of the new call is strictly positive almost surely).
        """
        num_bursts = check_integer_in_range("num_bursts", num_bursts,
                                            minimum=1)
        if start_time_us < 0 or not math.isfinite(start_time_us):
            raise SchedulingError(
                f"start_time_us must be finite and non-negative, got "
                f"{start_time_us}")
        if start_time_us < self._last_arrival_us:
            raise SchedulingError(
                f"start_time_us ({start_time_us}) precedes the last arrival "
                f"already emitted ({self._last_arrival_us}); chained "
                f"generate calls must move forward in time so job ids stay "
                f"monotone in arrival time")
        rng = ensure_rng(random_state)
        channels = self.trace.channels
        jobs: List[DecodeJob] = []
        now_us = float(start_time_us)
        for _ in range(num_bursts):
            now_us += float(rng.exponential(self.mean_interarrival_us))
            user_id = int(rng.integers(self.trace.num_users))
            modulation = self._modulation_names[
                int(rng.choice(len(self._modulation_names),
                               p=self._modulation_probs))]
            link = self._links[modulation]
            frame = int(rng.integers(self.trace.num_frames))
            subcarriers = np.sort(rng.choice(self.trace.num_subcarriers,
                                             size=self.burst_subcarriers,
                                             replace=False))
            snr_db = float(self.user_snrs_db[user_id])
            for subcarrier in subcarriers:
                subset = rng.choice(self.trace.num_bs_antennas,
                                    size=self.num_rx_antennas, replace=False)
                # ``trace.channel_use`` without its range checks: every
                # index here was drawn in range just above.
                channel = channels[frame, subcarrier][subset]
                channel_use = link.transmit_valid(
                    link.mapper.random_bits(rng), rng, channel, snr_db)
                jobs.append(DecodeJob(
                    job_id=self._next_job_id,
                    user_id=user_id,
                    frame=frame,
                    subcarrier=int(subcarrier),
                    channel_use=channel_use,
                    arrival_time_us=now_us,
                    deadline_us=now_us + self.deadline_us,
                    seed=spawn_seed(rng),
                ))
                self._next_job_id += 1
        self._last_arrival_us = now_us
        return jobs

    def __repr__(self) -> str:
        mix = ", ".join(f"{name}:{prob:.2f}" for name, prob in
                        zip(self._modulation_names, self._modulation_probs))
        return (f"PoissonTrafficGenerator(users={self.trace.num_users}, "
                f"mix=[{mix}], "
                f"mean_interarrival_us={self.mean_interarrival_us}, "
                f"burst_subcarriers={self.burst_subcarriers})")
