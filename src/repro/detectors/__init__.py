"""Classical MIMO detectors: linear filters, brute-force ML, Sphere Decoder.

These are the baselines the paper compares against (zero-forcing in Fig. 14,
the Sphere Decoder in Table 1) and the reference implementations used to
validate that the QuAMax reduction's ground state really is the ML solution.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".base": ("Detector", "DetectionResult"),
    ".linear": ("MMSEDetector", "ZeroForcingDetector"),
    ".ml": ("ExhaustiveMLDetector",),
    ".sphere": ("SphereDecoder", "SphereDecoderStats"),
    ".timing": (
        "ClassicalTimingModel", "sphere_decoder_time_us",
        "zero_forcing_time_us"),
})

__all__ = [
    "Detector",
    "DetectionResult",
    "ZeroForcingDetector",
    "MMSEDetector",
    "ExhaustiveMLDetector",
    "SphereDecoder",
    "SphereDecoderStats",
    "ClassicalTimingModel",
    "zero_forcing_time_us",
    "sphere_decoder_time_us",
]
