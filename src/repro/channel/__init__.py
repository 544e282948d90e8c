"""Wireless channel substrate: Rayleigh and random-phase channel models,
AWGN, and channel traces."""

from repro.channel.models import ChannelModel, RandomPhaseChannel, RayleighChannel
from repro.channel.noise import awgn, noise_variance_for_snr, snr_db_to_linear
from repro.channel.trace import ArgosLikeTraceGenerator, ChannelTrace, TraceChannel

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
