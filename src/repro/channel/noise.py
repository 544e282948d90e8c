"""Additive white Gaussian noise (AWGN) and SNR helpers.

The paper defines SNR per receive antenna: the received signal power
(averaged over the constellation and the channel realisation) divided by the
complex noise variance.  These helpers keep that convention in one place so
the detectors, the QuAMax decoder and the experiment drivers all agree on
what "20 dB SNR" means.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ChannelError
from repro.utils.random import RandomState, ensure_rng


def snr_db_to_linear(snr_db: float) -> float:
    """Convert an SNR in decibels to a linear power ratio."""
    return float(10.0 ** (float(snr_db) / 10.0))


def received_signal_power(channel: np.ndarray, symbol_energy: float) -> float:
    """Average per-receive-antenna signal power of ``H v`` for i.i.d. symbols.

    With symbols of average energy ``E_s`` independently drawn per user, the
    expected power at receive antenna *r* is ``E_s * sum_t |H_{r,t}|^2``; the
    value returned is the mean across receive antennas.
    """
    channel = np.asarray(channel, dtype=np.complex128)
    if channel.ndim != 2:
        raise ChannelError(f"channel must be a 2-D matrix, got shape {channel.shape}")
    per_antenna = symbol_energy * np.sum(np.abs(channel) ** 2, axis=1)
    return float(np.mean(per_antenna))


def noise_variance_for_snr(channel: np.ndarray, symbol_energy: float,
                           snr_db: float) -> float:
    """Complex noise variance that realises *snr_db* for the given channel."""
    signal_power = received_signal_power(channel, symbol_energy)
    return signal_power / snr_db_to_linear(snr_db)


def awgn(shape, noise_variance: float,
         random_state: RandomState = None) -> np.ndarray:
    """Draw circularly-symmetric complex Gaussian noise.

    Parameters
    ----------
    shape:
        Output shape (int or tuple).
    noise_variance:
        Total complex variance ``E[|n|^2]`` per element; the real and
        imaginary parts each carry half of it.
    random_state:
        Seed or generator.
    """
    if noise_variance < 0:
        raise ChannelError(f"noise variance must be non-negative, got {noise_variance}")
    rng = ensure_rng(random_state)
    scale = np.sqrt(noise_variance / 2.0)
    real = rng.normal(0.0, 1.0, size=shape)
    imag = rng.normal(0.0, 1.0, size=shape)
    return scale * (real + 1j * imag)
