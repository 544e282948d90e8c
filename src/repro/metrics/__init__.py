"""Communications-facing performance metrics: BER/FER, TTS, TTB and TTF."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".error_rates": ("bit_error_rate", "bit_errors"),
    ".statistics": ("DistributionSummary", "summarize"),
    ".tts": ("time_to_solution", "tts_from_run"),
    ".ttb": (
        "InstanceSolutionProfile", "expected_ber_after_anneals",
        "time_to_ber", "time_to_fer"),
})

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
