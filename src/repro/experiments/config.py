"""Shared configuration objects for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import QuantumAnnealerSimulator
from repro.annealer.schedule import AnnealSchedule
from repro.channel.models import ChannelModel, RandomPhaseChannel
from repro.exceptions import ExperimentError
from repro.modulation.constellation import Constellation, get_constellation
from repro.utils.validation import check_integer_in_range


@dataclass(frozen=True)
class MimoScenario:
    """One MIMO workload point: modulation, user count, channel, SNR.

    ``snr_db = None`` means a noiseless channel (the paper's Section 5.3
    "annealer noise only" regime).
    """

    constellation: str
    num_users: int
    snr_db: Optional[float] = None

    def __post_init__(self) -> None:
        get_constellation(self.constellation)
        check_integer_in_range("num_users", self.num_users, minimum=1)

    @property
    def modulation(self) -> Constellation:
        """The constellation object of this scenario."""
        return get_constellation(self.constellation)

    @property
    def label(self) -> str:
        """Human-readable scenario label, e.g. ``"18x18 QPSK @ 20 dB"``."""
        base = f"{self.num_users}x{self.num_users} {self.modulation.name}"
        if self.snr_db is None:
            return f"{base} (noiseless)"
        return f"{base} @ {self.snr_db:g} dB"


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment driver.

    The defaults are sized for continuous-integration runs; the paper-scale
    studies are obtained with :meth:`paper_scale` (more instances, more
    anneals, a full-size chip).
    """

    #: Independent problem instances per scenario (channel + bit realisations).
    num_instances: int = 5
    #: Anneal cycles per QA run.
    num_anneals: int = 100
    #: Top-level seed from which per-instance seeds are derived.
    seed: int = 2019
    #: Anneal schedule used unless a driver sweeps it.
    schedule: AnnealSchedule = field(
        default_factory=lambda: AnnealSchedule(anneal_time_us=1.0,
                                               pause_time_us=1.0))
    #: Default chain strength unless a driver sweeps it.
    chain_strength: float = 4.0
    #: Default dynamic-range setting unless a driver sweeps it.
    extended_range: bool = True
    #: Chimera grid size (unit cells per side) of the simulated chip; 16 for
    #: the full DW2Q, smaller for faster CI runs of small problems.
    chip_cells: int = 16
    #: Metropolis sweeps per microsecond of schedule time (simulator fidelity).
    sweeps_per_us: float = 30.0

    def __post_init__(self) -> None:
        check_integer_in_range("num_instances", self.num_instances, minimum=1)
        check_integer_in_range("num_anneals", self.num_anneals, minimum=1)
        check_integer_in_range("chip_cells", self.chip_cells, minimum=1,
                               maximum=16)

    # ------------------------------------------------------------------ #
    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A deliberately small configuration for tests and CI benchmarks."""
        return cls(num_instances=3, num_anneals=60, chip_cells=12)

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """A configuration approaching the paper's statistical weight."""
        return cls(num_instances=20, num_anneals=1000, chip_cells=16)

    def scaled(self, **overrides) -> "ExperimentConfig":
        """Copy of this configuration with selected fields overridden."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    def build_annealer(self) -> QuantumAnnealerSimulator:
        """Construct the simulated annealer this configuration describes."""
        topology = ChimeraGraph.ideal(self.chip_cells, self.chip_cells)
        return QuantumAnnealerSimulator(topology, sweeps_per_us=self.sweeps_per_us)

    def channel_model(self, scenario: MimoScenario) -> ChannelModel:
        """Default channel model for a scenario (unit-gain random phase)."""
        if scenario is None:
            raise ExperimentError("scenario must not be None")
        return RandomPhaseChannel()
