"""Uplink multi-user MIMO system model.

The paper's setting (Section 2.1): ``N_t`` single-antenna users concurrently
transmit constellation symbols to an ``N_r``-antenna access point over a flat
OFDM subcarrier, ``y = H v + n``.  A :class:`MimoUplink` bundles the
constellation, antenna counts and channel model, and produces
:class:`ChannelUse` instances — the unit of work every detector and the
QuAMax decoder operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.models import ChannelModel, RayleighChannel
from repro.channel.noise import awgn, noise_variance_for_snr
from repro.exceptions import ConfigurationError
from repro.modulation.constellation import Constellation, get_constellation
from repro.modulation.mapper import SymbolMapper
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import (
    check_integer_in_range,
    ensure_bit_array,
    ensure_complex_matrix,
    ensure_complex_vector,
)


@dataclass(frozen=True)
class ChannelUse:
    """One MIMO channel use: everything a detector needs, plus ground truth.

    Attributes
    ----------
    channel:
        Complex ``N_r x N_t`` channel matrix ``H``.
    received:
        Complex length-``N_r`` received vector ``y = H v + n``.
    constellation:
        The constellation the users transmitted from.
    transmitted_bits:
        Ground-truth payload bits (users ordered first), length
        ``N_t * bits_per_symbol``.  ``None`` when unknown (live operation).
    transmitted_symbols:
        Ground-truth symbol vector ``v``; ``None`` when unknown.
    noise_variance:
        Complex AWGN variance used to generate ``received`` (0 for noiseless).
    snr_db:
        The target SNR used to derive ``noise_variance`` (``None`` for
        noiseless channel uses).
    """

    channel: np.ndarray
    received: np.ndarray
    constellation: Constellation
    transmitted_bits: Optional[np.ndarray] = None
    transmitted_symbols: Optional[np.ndarray] = None
    noise_variance: float = 0.0
    snr_db: Optional[float] = None

    def __post_init__(self) -> None:
        channel = ensure_complex_matrix("channel", self.channel)
        received = ensure_complex_vector("received", self.received,
                                         length=channel.shape[0])
        # Checked here, once, so that no decode has to: a NaN or inf would
        # otherwise be detected into arbitrary bits with a NaN metric.
        for name, array in (("channel", channel), ("received", received)):
            if not np.isfinite(array).all():
                raise ConfigurationError(f"{name} must be finite")
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "received", received)
        if self.transmitted_symbols is not None:
            symbols = ensure_complex_vector("transmitted_symbols",
                                            self.transmitted_symbols,
                                            length=channel.shape[1])
            object.__setattr__(self, "transmitted_symbols", symbols)
        if self.transmitted_bits is not None:
            expected = channel.shape[1] * self.constellation.bits_per_symbol
            bits = ensure_bit_array(self.transmitted_bits, length=expected)
            object.__setattr__(self, "transmitted_bits", bits)

    @property
    def num_rx(self) -> int:
        """Number of receive (access point) antennas, ``N_r``."""
        return int(self.channel.shape[0])

    @property
    def num_tx(self) -> int:
        """Number of transmit antennas (users), ``N_t``."""
        return int(self.channel.shape[1])

    @property
    def num_bits(self) -> int:
        """Number of payload bits carried by this channel use."""
        return self.num_tx * self.constellation.bits_per_symbol


class MimoUplink:
    """Generator of uplink MIMO channel uses.

    Parameters
    ----------
    num_users:
        Number of single-antenna transmitters, ``N_t``.
    num_rx_antennas:
        Number of access-point antennas, ``N_r`` (defaults to ``num_users``,
        the paper's square configuration).
    constellation:
        A :class:`Constellation` or its name (``"BPSK"``, ``"QPSK"``, ...).
    channel_model:
        Source of channel matrices; defaults to i.i.d. Rayleigh.
    """

    def __init__(self, num_users: int, constellation, *,
                 num_rx_antennas: Optional[int] = None,
                 channel_model: Optional[ChannelModel] = None):
        self.num_users = check_integer_in_range("num_users", num_users, minimum=1)
        if num_rx_antennas is None:
            num_rx_antennas = num_users
        self.num_rx_antennas = check_integer_in_range(
            "num_rx_antennas", num_rx_antennas, minimum=1)
        if self.num_rx_antennas < self.num_users:
            raise ConfigurationError(
                f"num_rx_antennas ({self.num_rx_antennas}) must be >= "
                f"num_users ({self.num_users})"
            )
        if isinstance(constellation, str):
            constellation = get_constellation(constellation)
        if not isinstance(constellation, Constellation):
            raise ConfigurationError(
                "constellation must be a Constellation or a known name"
            )
        self.constellation = constellation
        self.channel_model = channel_model or RayleighChannel()
        self.mapper = SymbolMapper(constellation=constellation, num_users=self.num_users)

    # ------------------------------------------------------------------ #
    @property
    def bits_per_channel_use(self) -> int:
        """Total payload bits per channel use across all users."""
        return self.mapper.bits_per_channel_use

    def transmit(self, bits=None, random_state: RandomState = None,
                 channel: Optional[np.ndarray] = None,
                 snr_db: Optional[float] = None) -> ChannelUse:
        """Simulate one channel use.

        Parameters
        ----------
        bits:
            Payload bits; drawn uniformly at random when omitted.
        random_state:
            Seed or generator controlling bits, channel and noise.
        channel:
            Channel matrix to use; drawn from ``channel_model`` when omitted.
        snr_db:
            Per-receive-antenna SNR; ``None`` produces a noiseless channel use
            (the paper's Section 5.3 "annealer noise only" regime).
        """
        rng = ensure_rng(random_state)
        if bits is None:
            bits = self.mapper.random_bits(rng)
        bits = ensure_bit_array(bits, length=self.bits_per_channel_use)
        symbols = self.mapper.map_bits(bits)
        if channel is None:
            channel = self.channel_model.sample(
                self.num_rx_antennas, self.num_users, rng)
        else:
            channel = ensure_complex_matrix(
                "channel", channel, shape=(self.num_rx_antennas, self.num_users))
        clean = channel @ symbols
        if snr_db is None:
            received = clean
            noise_variance = 0.0
        else:
            noise_variance = noise_variance_for_snr(
                channel, self.constellation.average_energy, snr_db)
            received = clean + awgn(clean.shape, noise_variance, rng)
        return ChannelUse(
            channel=channel,
            received=received,
            constellation=self.constellation,
            transmitted_bits=bits,
            transmitted_symbols=symbols,
            noise_variance=noise_variance,
            snr_db=snr_db,
        )

    def __repr__(self) -> str:
        return (f"MimoUplink(num_users={self.num_users}, "
                f"num_rx_antennas={self.num_rx_antennas}, "
                f"constellation={self.constellation.name}, "
                f"channel_model={self.channel_model!r})")
