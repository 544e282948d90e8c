"""Communications-facing performance metrics: BER/FER, TTS, TTB and TTF."""

from repro.metrics.error_rates import bit_error_rate, bit_errors
from repro.metrics.statistics import DistributionSummary, summarize
from repro.metrics.tts import time_to_solution, tts_from_run
from repro.metrics.ttb import (
    InstanceSolutionProfile,
    expected_ber_after_anneals,
    time_to_ber,
    time_to_fer,
)

__all__ = [
    "bit_errors",
    "bit_error_rate",
    "DistributionSummary",
    "summarize",
    "time_to_solution",
    "tts_from_run",
    "InstanceSolutionProfile",
    "expected_ber_after_anneals",
    "time_to_ber",
    "time_to_fer",
]
