"""Figure 8: expected BER versus anneal count and versus time, pause vs no pause.

The paper compares, for 18x18 QPSK, the expected BER (Eq. 9) as a function of
the number of anneals and of wall-clock time, for the pausing and non-pausing
schedules, each with two parameter-setting policies:

* ``Fix`` — one parameter setting chosen for the whole problem class;
* ``Opt`` — an oracle that picks the best setting instance by instance.

The paper's finding: the pausing schedule reaches lower BER at equal time
even though each of its anneals lasts twice as long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.schedule import AnnealSchedule
from repro.experiments.config import ExperimentConfig, MimoScenario
from repro.experiments.runner import InstanceRecord, ScenarioRunner, format_table
from repro.metrics.ttb import InstanceSolutionProfile

#: The paper's Fig. 8 scenario.
PAPER_SCENARIO: Tuple[str, int] = ("QPSK", 18)

#: Anneal counts at which the BER curves are evaluated.
DEFAULT_ANNEAL_COUNTS: Tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: Candidate chain strengths the ``Opt`` oracle may choose between.
DEFAULT_OPT_CHAIN_STRENGTHS: Tuple[float, ...] = (3.0, 4.0, 6.0)


@dataclass(frozen=True)
class BerCurve:
    """Median expected BER vs anneal count (and time) for one setting."""

    label: str
    pause: bool
    anneal_duration_us: float
    anneal_counts: np.ndarray
    median_ber: np.ndarray

    @property
    def times_us(self) -> np.ndarray:
        """Wall-clock time corresponding to each anneal count."""
        return self.anneal_counts * self.anneal_duration_us

    def ber_at_time(self, time_us: float) -> float:
        """Median BER of the largest anneal count that fits in *time_us*."""
        mask = self.times_us <= time_us
        if not np.any(mask):
            return float(self.median_ber[0])
        return float(self.median_ber[mask][-1])


@dataclass(frozen=True)
class Fig08Result:
    """All four curves (pause / no-pause x Fix / Opt)."""

    curves: List[BerCurve]

    def curve(self, label: str) -> BerCurve:
        """Look up one curve by label."""
        for candidate in self.curves:
            if candidate.label == label:
                return candidate
        raise KeyError(f"no curve labelled {label!r}")


def _median_ber_curve(profiles: Sequence[InstanceSolutionProfile],
                      anneal_counts: Sequence[int]) -> np.ndarray:
    counts = np.asarray(anneal_counts, dtype=int)
    per_instance = np.array([
        [profile.expected_ber(int(count)) for count in counts]
        for profile in profiles
    ])
    return np.median(per_instance, axis=0)


def _best_profile(records: Sequence[InstanceRecord]) -> InstanceSolutionProfile:
    """The oracle choice: the record with the lowest TTB among candidates."""
    best = min(records, key=lambda record: record.ttb())
    return best.profile


def run(config: ExperimentConfig,
        scenario: Tuple[str, int] = PAPER_SCENARIO,
        anneal_counts: Sequence[int] = DEFAULT_ANNEAL_COUNTS,
        opt_chain_strengths: Sequence[float] = DEFAULT_OPT_CHAIN_STRENGTHS,
        ) -> Fig08Result:
    """Compute the four BER-vs-anneals curves of Fig. 8."""
    runner = ScenarioRunner(config)
    modulation, num_users = scenario
    mimo_scenario = MimoScenario(modulation, num_users, snr_db=None)

    schedules = {
        "no pause": AnnealSchedule(anneal_time_us=1.0, pause_time_us=0.0),
        "pause": AnnealSchedule(anneal_time_us=1.0, pause_time_us=1.0),
    }

    curves: List[BerCurve] = []
    for schedule_label, schedule in schedules.items():
        # One pack per chain strength; an instance's candidates are its
        # record in each.
        packs = [runner.run_scenario(mimo_scenario, runner.default_parameters(
            schedule=schedule, chain_strength=chain_strength))
            for chain_strength in opt_chain_strengths]
        fixed_profiles: List[InstanceSolutionProfile] = []
        opt_profiles: List[InstanceSolutionProfile] = []
        for candidates in zip(*packs):
            fixed_record = next(
                (record for record in candidates
                 if record.outcome.run.parameters.chain_strength
                 == config.chain_strength),
                candidates[0])
            fixed_profiles.append(fixed_record.profile)
            opt_profiles.append(_best_profile(candidates))
        for policy, profiles in (("Fix", fixed_profiles), ("Opt", opt_profiles)):
            curves.append(BerCurve(
                label=f"{schedule_label} / {policy}",
                pause=schedule.has_pause,
                anneal_duration_us=schedule.duration_us,
                anneal_counts=np.asarray(anneal_counts, dtype=int),
                median_ber=_median_ber_curve(profiles, anneal_counts),
            ))
    return Fig08Result(curves=curves)


def format_result(result: Fig08Result) -> str:
    """Render the BER curves as text."""
    rows = []
    for curve in result.curves:
        for count, ber in zip(curve.anneal_counts, curve.median_ber):
            rows.append([curve.label, int(count),
                         float(count * curve.anneal_duration_us), float(ber)])
    return format_table(
        ["setting", "anneals", "time (us)", "median E[BER]"], rows,
        title="Figure 8: expected BER vs anneal count / time (18x18 QPSK)")
