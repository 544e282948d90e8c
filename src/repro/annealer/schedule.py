"""Annealing schedule: anneal time, optional mid-anneal pause.

The DW2Q lets the user choose the anneal duration ``T_a`` (1-300 µs) and
insert a pause of duration ``T_p`` at a normalised schedule position ``s_p``
(Section 2.2 and Section 4 of the paper).  In the simulator, the schedule is
translated into a sequence of Metropolis sweep temperatures: the anneal
contributes sweeps whose temperature decreases geometrically from ``hot`` to
``cold`` as the normalised time ``s`` goes from 0 to 1, and the pause
contributes additional sweeps at the fixed temperature corresponding to
``s_p``.  Pausing near the temperature at which the system falls out of
equilibrium therefore genuinely improves the ground-state probability, which
is the mechanism the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import constants
from repro.exceptions import AnnealerError
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class AnnealSchedule:
    """One annealing schedule (per-anneal, not per-run).

    Parameters
    ----------
    anneal_time_us:
        ``T_a``, duration of the ramp, in microseconds (1-300 on the DW2Q).
    pause_time_us:
        ``T_p``, duration of the optional pause (0 disables pausing).
    pause_position:
        ``s_p``, normalised position of the pause within the ramp (0-1).
    """

    anneal_time_us: float = constants.DEFAULT_ANNEAL_TIME_US
    pause_time_us: float = 0.0
    pause_position: float = constants.DEFAULT_PAUSE_POSITION

    def __post_init__(self) -> None:
        check_positive("anneal_time_us", self.anneal_time_us)
        if not (constants.MIN_ANNEAL_TIME_US <= self.anneal_time_us
                <= constants.MAX_ANNEAL_TIME_US):
            raise AnnealerError(
                f"anneal_time_us must be within "
                f"[{constants.MIN_ANNEAL_TIME_US}, {constants.MAX_ANNEAL_TIME_US}] µs, "
                f"got {self.anneal_time_us}"
            )
        if self.pause_time_us < 0:
            raise AnnealerError(
                f"pause_time_us must be non-negative, got {self.pause_time_us}")
        check_probability("pause_position", self.pause_position)

    # ------------------------------------------------------------------ #
    @property
    def has_pause(self) -> bool:
        """Whether this schedule includes a mid-anneal pause."""
        return self.pause_time_us > 0

    @property
    def duration_us(self) -> float:
        """Total wall-clock duration of one anneal (ramp plus pause)."""
        return float(self.anneal_time_us + self.pause_time_us)

    # ------------------------------------------------------------------ #
    def temperature_profile(self, *, sweeps_per_us: float, hot: float,
                            cold: float,
                            pause_sweeps_per_us: Optional[float] = None) -> np.ndarray:
        """Metropolis temperature sequence implementing this schedule.

        Parameters
        ----------
        sweeps_per_us:
            Monte Carlo sweeps performed per microsecond of ramp time.
        hot, cold:
            Temperatures (in units of the problem's energy scale) at the start
            and end of the ramp.
        pause_sweeps_per_us:
            Sweeps per microsecond during the pause; defaults to the ramp
            value.

        The result is read-only and contiguous float64, so a sampler that
        has validated it can recognise it by identity: a machine builds it
        once per parameters object and keeps it with the structures it
        serves.
        """
        check_positive("sweeps_per_us", sweeps_per_us)
        hot = check_positive("hot", hot)
        cold = check_positive("cold", cold)
        if cold > hot:
            raise AnnealerError(f"cold ({cold}) must not exceed hot ({hot})")
        ramp_sweeps = max(2, int(round(sweeps_per_us * self.anneal_time_us)))
        positions = np.linspace(0.0, 1.0, ramp_sweeps)
        profile = hot * (cold / hot) ** positions
        if self.has_pause:
            pause_rate = (sweeps_per_us if pause_sweeps_per_us is None
                          else check_positive("pause_sweeps_per_us",
                                              pause_sweeps_per_us))
            pause_sweeps = max(1, int(round(pause_rate * self.pause_time_us)))
            pause_temperature = hot * (cold / hot) ** self.pause_position
            insert_at = int(np.searchsorted(positions, self.pause_position))
            pause = np.full(pause_sweeps, pause_temperature)
            profile = np.concatenate([profile[:insert_at], pause,
                                      profile[insert_at:]])
        profile.setflags(write=False)
        return profile
