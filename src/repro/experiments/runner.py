"""Shared machinery for running QuAMax over batches of problem instances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.channel.models import ChannelModel
from repro.decoder.quamax import QuAMaxDecoder, QuAMaxDetectionResult
from repro.experiments.config import ExperimentConfig, MimoScenario
from repro.metrics.ttb import InstanceSolutionProfile
from repro.metrics.tts import tts_from_run
from repro.mimo.system import ChannelUse, MimoUplink
from repro.utils.random import derive_rng


@dataclass(frozen=True)
class InstanceRecord:
    """Outcome of one QA run on one problem instance."""

    scenario: MimoScenario
    instance_index: int
    outcome: QuAMaxDetectionResult
    ground_truth_energy: float

    @property
    def profile(self) -> InstanceSolutionProfile:
        """Energy-ranked solution profile of the run."""
        return InstanceSolutionProfile.from_anneal_result(
            self.outcome.run, self.outcome.reduced)

    @property
    def bit_errors(self) -> int:
        """Bit errors of the run's best solution against ground truth."""
        transmitted = self.outcome.reduced.channel_use.transmitted_bits
        return int(np.count_nonzero(self.outcome.detection.bits != transmitted))

    def tts(self, target_probability: float = 0.99) -> float:
        """Time-to-Solution (µs) against the true ground energy."""
        return tts_from_run(self.outcome.run, self.ground_truth_energy,
                            target_probability=target_probability)

    def ttb(self, target_ber: float = 1e-6) -> float:
        """Time-to-BER (µs) of this instance."""
        return self.profile.time_to_ber(target_ber)

    def ttf(self, target_fer: float = 1e-4, frame_size_bytes: int = 1500) -> float:
        """Time-to-FER (µs) of this instance."""
        return self.profile.time_to_fer(target_fer,
                                        frame_size_bytes=frame_size_bytes)


class ScenarioRunner:
    """Generates instances of a scenario and runs QuAMax on them.

    The runner derives all randomness from the experiment seed, the scenario
    label and the instance index, so re-running any experiment reproduces the
    same channels, payloads, ICE draws and annealing trajectories.
    """

    def __init__(self, config: ExperimentConfig,
                 annealer: Optional[QuantumAnnealerSimulator] = None,
                 channel_model: Optional[ChannelModel] = None):
        self.config = config
        self.annealer = annealer if annealer is not None else config.build_annealer()
        self._channel_model = channel_model

    # ------------------------------------------------------------------ #
    def make_channel_use(self, scenario: MimoScenario,
                         instance_index: int) -> ChannelUse:
        """Generate the channel use of one instance, deterministically."""
        channel_model = (self._channel_model
                         if self._channel_model is not None
                         else self.config.channel_model(scenario))
        link = MimoUplink(num_users=scenario.num_users,
                          constellation=scenario.constellation,
                          channel_model=channel_model)
        rng = derive_rng(self.config.seed, scenario.label, instance_index)
        return link.transmit(random_state=rng, snr_db=scenario.snr_db)

    def default_parameters(self, **overrides) -> AnnealerParameters:
        """The run parameters implied by the experiment configuration."""
        base = AnnealerParameters(
            schedule=self.config.schedule,
            chain_strength=self.config.chain_strength,
            extended_range=self.config.extended_range,
            num_anneals=self.config.num_anneals,
        )
        if not overrides:
            return base
        from dataclasses import replace
        return replace(base, **overrides)

    def _qa_rng(self, scenario: MimoScenario,
                instance_index: int) -> np.random.Generator:
        return derive_rng(self.config.seed, "qa-run", scenario.label,
                          instance_index)

    @staticmethod
    def _record(scenario: MimoScenario, instance_index: int,
                outcome: QuAMaxDetectionResult) -> InstanceRecord:
        ground_truth_energy = outcome.reduced.ising.energy(
            outcome.reduced.ground_truth_spins())
        return InstanceRecord(scenario=scenario, instance_index=instance_index,
                              outcome=outcome,
                              ground_truth_energy=ground_truth_energy)

    def run_scenario(self, scenario: MimoScenario,
                     parameters: Optional[AnnealerParameters] = None,
                     num_instances: Optional[int] = None,
                     channel_uses: Optional[Sequence[ChannelUse]] = None
                     ) -> List[InstanceRecord]:
        """Run QuAMax over all instances of a scenario.

        The instances are decoded by ONE
        :meth:`~repro.decoder.quamax.QuAMaxDecoder.detect_batch` call, each
        on its own ``"qa-run"`` stream — the pack pipeline the serving
        benchmark measures; packing never changes a job's bits.
        *channel_uses*, when given, are the instances in place of
        *num_instances* generated ones (a fixed channel, say): instance
        ``i`` decodes ``channel_uses[i]``.
        """
        if channel_uses is None:
            count = (num_instances if num_instances is not None
                     else self.config.num_instances)
            channel_uses = [self.make_channel_use(scenario, index)
                            for index in range(count)]
        parameters = parameters or self.default_parameters()
        outcomes = QuAMaxDecoder(self.annealer, parameters).detect_batch(
            channel_uses, parameters,
            random_states=[self._qa_rng(scenario, index)
                           for index in range(len(channel_uses))])
        return [self._record(scenario, index, outcome)
                for index, outcome in enumerate(outcomes)]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a plain-text table (the format every driver's report uses)."""
    columns = [str(h) for h in headers]
    text_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if not np.isfinite(cell):
            return "inf"
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)
