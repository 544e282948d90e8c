"""MIMO channel matrix models.

The paper's experiments use three kinds of channels:

* i.i.d. Rayleigh fading (Table 1 sphere-decoder complexity study);
* unit-gain, random-phase channels (Section 5.3, annealer-noise-only study);
* measured Argos trace channels (Section 5.5) — reproduced here by the
  synthetic generator in :mod:`repro.channel.trace`.

Each model is a small object with a ``sample(num_rx, num_tx, rng)`` method
returning a complex ``num_rx x num_tx`` matrix, so experiment drivers can be
written once and parameterised by channel model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range, check_positive


class ChannelModel(ABC):
    """Base class for random MIMO channel generators."""

    @abstractmethod
    def sample(self, num_rx: int, num_tx: int,
               random_state: RandomState = None) -> np.ndarray:
        """Draw one ``num_rx x num_tx`` complex channel matrix."""

    @staticmethod
    def _check_dims(num_rx: int, num_tx: int) -> None:
        check_integer_in_range("num_rx", num_rx, minimum=1)
        check_integer_in_range("num_tx", num_tx, minimum=1)


class RayleighChannel(ChannelModel):
    """I.i.d. Rayleigh-fading channel: entries are CN(0, gain).

    This is the classic rich-scattering model used for the Table 1
    sphere-decoder complexity study.
    """

    def __init__(self, average_gain: float = 1.0):
        self.average_gain = check_positive("average_gain", average_gain)

    def sample(self, num_rx: int, num_tx: int,
               random_state: RandomState = None) -> np.ndarray:
        self._check_dims(num_rx, num_tx)
        rng = ensure_rng(random_state)
        scale = np.sqrt(self.average_gain / 2.0)
        return scale * (rng.normal(size=(num_rx, num_tx))
                        + 1j * rng.normal(size=(num_rx, num_tx)))

    def __repr__(self) -> str:
        return f"RayleighChannel(average_gain={self.average_gain})"


class RandomPhaseChannel(ChannelModel):
    """Unit-magnitude channel entries with uniformly random phases.

    Section 5.3 of the paper characterises the annealer itself using
    "unit fixed channel gain and average transmitted power" with a
    "random-phase channel"; each entry is ``sqrt(gain) * exp(j*theta)`` with
    ``theta ~ U[0, 2*pi)``.
    """

    def __init__(self, gain: float = 1.0):
        self.gain = check_positive("gain", gain)

    def sample(self, num_rx: int, num_tx: int,
               random_state: RandomState = None) -> np.ndarray:
        self._check_dims(num_rx, num_tx)
        rng = ensure_rng(random_state)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_rx, num_tx))
        return np.sqrt(self.gain) * np.exp(1j * phases)

    def __repr__(self) -> str:
        return f"RandomPhaseChannel(gain={self.gain})"
