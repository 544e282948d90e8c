"""Common detector interface and result container."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import DetectionError
from repro.mimo.system import ChannelUse
from repro.utils.validation import ensure_bit_array, ensure_complex_vector


@dataclass(frozen=True)
class DetectionResult:
    """Output of a MIMO detector for one channel use.

    Attributes
    ----------
    symbols:
        Detected symbol vector (length ``N_t``).
    bits:
        Hard-demapped bits (users ordered first).
    metric:
        Euclidean cost ``||y - H v||^2`` of the detected vector.
    detector:
        Name of the detector that produced this result.
    extra:
        Detector-specific metadata (e.g. visited-node counts).
    """

    symbols: np.ndarray
    bits: np.ndarray
    metric: float
    detector: str
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols",
                           ensure_complex_vector("symbols", self.symbols))
        object.__setattr__(self, "bits", ensure_bit_array(self.bits))

    @classmethod
    def from_arrays(cls, symbols: np.ndarray, bits: np.ndarray, metric: float,
                    detector: str) -> "DetectionResult":
        """Trusted construction: the caller guarantees 1-D ``complex128``
        symbols and 1-D ``uint8`` 0/1 bits; nothing is re-validated."""
        result = object.__new__(cls)
        result.__dict__.update(symbols=symbols, bits=bits, metric=metric,
                               detector=detector, extra={})
        return result


class Detector(ABC):
    """Base class for MIMO detectors operating on :class:`ChannelUse`."""

    #: Short name used in reports and DetectionResult.detector.
    name: str = "detector"

    @abstractmethod
    def detect(self, channel_use: ChannelUse) -> DetectionResult:
        """Detect the transmitted symbols of one channel use."""

    @staticmethod
    def euclidean_metric(channel_use: ChannelUse, symbols) -> float:
        """Euclidean cost ``||y - H v||^2`` of a candidate symbol vector."""
        symbols = ensure_complex_vector("symbols", symbols,
                                        length=channel_use.num_tx)
        residual = channel_use.received - channel_use.channel @ symbols
        return float(np.real(np.vdot(residual, residual)))

    @staticmethod
    def _check_square_or_tall(channel_use: ChannelUse) -> None:
        if channel_use.num_rx < channel_use.num_tx:
            raise DetectionError(
                f"detector requires N_r >= N_t, got "
                f"{channel_use.num_rx} x {channel_use.num_tx}"
            )
