"""Multi-user MIMO uplink system model and frame bookkeeping."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".frame": ("Frame", "frame_error_rate_from_ber"),
    ".system": ("ChannelUse", "MimoUplink"),
})

__all__ = [
    "MimoUplink",
    "ChannelUse",
    "Frame",
    "frame_error_rate_from_ber",
]
