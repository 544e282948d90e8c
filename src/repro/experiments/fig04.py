"""Figure 4: energy-ranked solution distributions of individual QA runs.

The paper's Fig. 4 takes six decoding problems that all need 36 logical
qubits (36-user BPSK, 18-user QPSK, 9-user 16-QAM; two channel uses each)
and shows, for each, the solutions found by the annealer ranked by their
Ising energy gap from the minimum, with the frequency of occurrence of each
rank and the number of bit errors each solution carries.  The qualitative
observations the figure supports are: (a) the ground-state probability drops
as the modulation order rises at fixed logical size, and (b) low-energy
non-ground solutions tend to carry few bit errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.config import ExperimentConfig, MimoScenario
from repro.experiments.runner import InstanceRecord, ScenarioRunner, format_table

#: The paper's six panels: (modulation, users), two channel uses per pair.
PAPER_SCENARIOS: Tuple[Tuple[str, int], ...] = (
    ("BPSK", 36), ("QPSK", 18), ("16-QAM", 9),
)


@dataclass(frozen=True)
class SolutionRankProfile:
    """The rank/frequency/bit-error profile of one QA run (one Fig. 4 panel)."""

    scenario: MimoScenario
    instance_index: int
    #: Relative energy gap of each distinct solution from the best one found.
    energy_gaps: np.ndarray
    #: Empirical probability of each distinct solution.
    probabilities: np.ndarray
    #: Bit errors of each distinct solution against ground truth.
    bit_errors: np.ndarray
    #: Per-anneal probability of the true ground state.
    ground_state_probability: float

    @property
    def num_ranks(self) -> int:
        """Number of distinct solutions observed."""
        return int(self.energy_gaps.size)


@dataclass(frozen=True)
class Fig04Result:
    """All panels of the reproduced Fig. 4."""

    profiles: List[SolutionRankProfile]

    def by_modulation(self) -> Dict[str, List[SolutionRankProfile]]:
        """Group panels by modulation name."""
        grouped: Dict[str, List[SolutionRankProfile]] = {}
        for profile in self.profiles:
            grouped.setdefault(profile.scenario.modulation.name, []).append(profile)
        return grouped

    def median_ground_state_probability(self, modulation: str) -> float:
        """Median ground-state probability across a modulation's panels."""
        values = [p.ground_state_probability
                  for p in self.by_modulation().get(modulation, [])]
        if not values:
            return 0.0
        return float(np.median(values))


def profile_from_record(record: InstanceRecord) -> SolutionRankProfile:
    """Convert one annealer run into a Fig. 4 rank profile."""
    run = record.outcome.run
    energies = run.solutions.energies
    best = energies[0]
    # Relative gap: normalise by the problem's energy scale.  For noiseless
    # channels the ground energy itself is ~0 (the Ising offset makes energies
    # equal ML metrics), so the coefficient scale is the meaningful reference.
    scale = max(abs(best),
                record.outcome.reduced.ising.max_abs_coefficient, 1e-12)
    gaps = (energies - best) / scale
    errors = np.array([
        record.outcome.reduced.bit_errors(run.solutions.samples[rank])
        for rank in range(run.solutions.num_samples)
    ])
    return SolutionRankProfile(
        scenario=record.scenario,
        instance_index=record.instance_index,
        energy_gaps=gaps,
        probabilities=run.solution_probabilities(),
        bit_errors=errors,
        ground_state_probability=run.ground_state_probability(
            record.ground_truth_energy),
    )


def run(config: ExperimentConfig,
        scenarios: Sequence[Tuple[str, int]] = PAPER_SCENARIOS,
        instances_per_scenario: int = 2) -> Fig04Result:
    """Reproduce the Fig. 4 panels (noiseless channels)."""
    runner = ScenarioRunner(config)
    profiles: List[SolutionRankProfile] = []
    for modulation, num_users in scenarios:
        scenario = MimoScenario(modulation, num_users, snr_db=None)
        profiles.extend(map(profile_from_record, runner.run_scenario(
            scenario, num_instances=instances_per_scenario)))
    return Fig04Result(profiles=profiles)


def format_result(result: Fig04Result, max_ranks: int = 5) -> str:
    """Render the reproduced Fig. 4 panels as text."""
    rows = []
    for profile in result.profiles:
        top = min(max_ranks, profile.num_ranks)
        gap_text = ", ".join(f"{g:.3f}" for g in profile.energy_gaps[:top])
        prob_text = ", ".join(f"{p:.2f}" for p in profile.probabilities[:top])
        err_text = ", ".join(str(int(e)) for e in profile.bit_errors[:top])
        rows.append([
            profile.scenario.label, profile.instance_index, profile.num_ranks,
            f"{profile.ground_state_probability:.3f}",
            gap_text, prob_text, err_text,
        ])
    return format_table(
        ["scenario", "inst", "ranks", "P0", "dE (top)", "p(r) (top)",
         "bit errs (top)"],
        rows,
        title="Figure 4: energy-ranked solution distributions")
