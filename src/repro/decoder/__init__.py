"""End-to-end QuAMax decoder built on the annealer simulator."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".quamax": ("QuAMaxDecoder", "QuAMaxDetectionResult"),
    ".pipeline": (
        "FrameResult", "OFDMDecodingPipeline", "PipelineReport",
        "SubcarrierResult"),
})

__all__ = [
    "QuAMaxDecoder",
    "QuAMaxDetectionResult",
    "FrameResult",
    "OFDMDecodingPipeline",
    "PipelineReport",
    "SubcarrierResult",
]
