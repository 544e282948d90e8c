"""Wireless channel substrate: Rayleigh and random-phase channel models,
AWGN, and channel traces."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".models": ("ChannelModel", "RandomPhaseChannel", "RayleighChannel"),
    ".noise": ("awgn", "noise_variance_for_snr", "snr_db_to_linear"),
    ".trace": ("ArgosLikeTraceGenerator", "ChannelTrace", "TraceChannel"),
})

__all__ = [
    "ChannelModel",
    "RayleighChannel",
    "RandomPhaseChannel",
    "awgn",
    "noise_variance_for_snr",
    "snr_db_to_linear",
    "ArgosLikeTraceGenerator",
    "ChannelTrace",
    "TraceChannel",
]
