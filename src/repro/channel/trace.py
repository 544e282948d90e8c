"""Synthetic Argos-like channel traces.

Section 5.5 of the paper evaluates QuAMax on measured 2.4 GHz channels
between 96 base-station antennas and 8 static users (the Argos dataset of
Shepard et al.).  That trace is not redistributable, so this module provides
a synthetic generator reproducing the properties the experiment actually
relies on:

* a tall 96 x 8 matrix per (frame, subcarrier) from which random 8-antenna
  subsets are drawn to form 8 x 8 channel uses;
* unequal per-user large-scale gains (users at different distances);
* spatial correlation across the base-station array (users are not i.i.d.
  across antennas);
* frequency selectivity across OFDM subcarriers from a small number of
  multipath taps;
* slow temporal evolution across frames (static users, channel coherence of
  tens of milliseconds).

The resulting 8 x 8 sub-channels are notably worse conditioned than i.i.d.
Rayleigh, which is exactly the regime in which the paper's trace results sit.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.channel.models import ChannelModel
from repro.exceptions import ChannelError
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range, check_positive


@dataclass(frozen=True)
class ChannelTrace:
    """A wideband multi-antenna channel trace.

    Attributes
    ----------
    channels:
        Complex array of shape ``(num_frames, num_subcarriers,
        num_bs_antennas, num_users)``.
    carrier_frequency_hz:
        Nominal carrier frequency (metadata only).
    frame_interval_s:
        Time between consecutive frames (metadata only).
    """

    channels: np.ndarray
    carrier_frequency_hz: float = 2.4e9
    frame_interval_s: float = 1e-3

    def __post_init__(self) -> None:
        channels = np.asarray(self.channels, dtype=np.complex128)
        if channels.ndim != 4:
            raise ChannelError(
                "trace channels must have shape (frames, subcarriers, "
                f"bs_antennas, users), got {channels.shape}"
            )
        object.__setattr__(self, "channels", channels)

    # ------------------------------------------------------------------ #
    @property
    def num_frames(self) -> int:
        return int(self.channels.shape[0])

    @property
    def num_subcarriers(self) -> int:
        return int(self.channels.shape[1])

    @property
    def num_bs_antennas(self) -> int:
        return int(self.channels.shape[2])

    @property
    def num_users(self) -> int:
        return int(self.channels.shape[3])

    # ------------------------------------------------------------------ #
    def channel_use(self, frame: int, subcarrier: int,
                    antenna_subset: Optional[Sequence[int]] = None) -> np.ndarray:
        """Return the channel matrix of one (frame, subcarrier) channel use.

        If *antenna_subset* is given, only those base-station antennas' rows
        are returned (in the given order), producing e.g. the 8 x 8 matrices
        used in the paper's Section 5.5.
        """
        frame = check_integer_in_range("frame", frame, minimum=0,
                                       maximum=self.num_frames - 1)
        subcarrier = check_integer_in_range("subcarrier", subcarrier, minimum=0,
                                            maximum=self.num_subcarriers - 1)
        matrix = self.channels[frame, subcarrier]
        if antenna_subset is None:
            return matrix.copy()
        subset = np.asarray(antenna_subset, dtype=int)
        if subset.ndim != 1 or subset.size == 0:
            raise ChannelError("antenna_subset must be a non-empty 1-D index list")
        if subset.min() < 0 or subset.max() >= self.num_bs_antennas:
            raise ChannelError(
                f"antenna_subset indices must be in [0, {self.num_bs_antennas})"
            )
        return matrix[subset, :].copy()

    def random_square_channel(self, random_state: RandomState = None,
                              num_antennas: Optional[int] = None) -> np.ndarray:
        """Draw a random (frame, subcarrier, antenna-subset) square channel.

        This is the paper's Section 5.5 procedure: "for each channel use, we
        randomly pick eight base station antennas to evaluate the 8 x 8 MIMO
        channel".
        """
        rng = ensure_rng(random_state)
        if num_antennas is None:
            num_antennas = self.num_users
        num_antennas = check_integer_in_range(
            "num_antennas", num_antennas, minimum=1, maximum=self.num_bs_antennas
        )
        frame = int(rng.integers(0, self.num_frames))
        subcarrier = int(rng.integers(0, self.num_subcarriers))
        subset = rng.choice(self.num_bs_antennas, size=num_antennas, replace=False)
        return self.channel_use(frame, subcarrier, subset)

    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Persist the trace to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            channels=self.channels,
            carrier_frequency_hz=self.carrier_frequency_hz,
            frame_interval_s=self.frame_interval_s,
        )

    @classmethod
    def load(cls, path) -> "ChannelTrace":
        """Load a trace previously stored with :meth:`save`.

        A file that is not such an archive — truncated, corrupted, not a
        zip, a field missing or of the wrong kind — raises :class:`ChannelError` naming
        *path*; a missing file stays the ``OSError`` it is.
        """
        with open(path, "rb") as handle:  # closed on every archive error
            try:
                with np.load(handle) as data:
                    return cls(
                        channels=data["channels"],
                        carrier_frequency_hz=float(
                            data["carrier_frequency_hz"]),
                        frame_interval_s=float(data["frame_interval_s"]),
                    )
            except (zipfile.BadZipFile, zlib.error, EOFError, KeyError,
                    TypeError, ValueError) as error:
                raise ChannelError(f"{path} is not a stored channel trace: "
                                   f"{error!r}") from error


class ArgosLikeTraceGenerator:
    """Generate synthetic traces with Argos-like statistics.

    Parameters
    ----------
    num_bs_antennas, num_users:
        Array geometry; defaults match the paper's 96 x 8 dataset.
    num_subcarriers:
        OFDM subcarriers in the wideband trace.
    num_taps:
        Multipath taps used to induce frequency selectivity.
    rician_k:
        Rician K-factor of each user's dominant path (static users have a
        strong specular component).
    gain_spread_db:
        Peak-to-peak spread of per-user large-scale gains.
    temporal_correlation:
        AR(1) coefficient between consecutive frames (close to 1 for static
        users).
    """

    def __init__(self, num_bs_antennas: int = 96, num_users: int = 8,
                 num_subcarriers: int = 52, num_taps: int = 4,
                 rician_k: float = 5.0, gain_spread_db: float = 6.0,
                 temporal_correlation: float = 0.99):
        self.num_bs_antennas = check_integer_in_range(
            "num_bs_antennas", num_bs_antennas, minimum=1)
        self.num_users = check_integer_in_range("num_users", num_users, minimum=1)
        self.num_subcarriers = check_integer_in_range(
            "num_subcarriers", num_subcarriers, minimum=1)
        self.num_taps = check_integer_in_range("num_taps", num_taps, minimum=1)
        if rician_k < 0:
            raise ChannelError(f"rician_k must be non-negative, got {rician_k}")
        self.rician_k = float(rician_k)
        self.gain_spread_db = check_positive("gain_spread_db", gain_spread_db,
                                             strict=False)
        if not 0.0 <= temporal_correlation <= 1.0:
            raise ChannelError(
                f"temporal_correlation must be in [0, 1], got {temporal_correlation}"
            )
        self.temporal_correlation = float(temporal_correlation)

    # ------------------------------------------------------------------ #
    def _steering_vector(self, angle: float) -> np.ndarray:
        """Uniform-linear-array steering vector at half-wavelength spacing."""
        indices = np.arange(self.num_bs_antennas)
        return np.exp(1j * np.pi * indices * np.sin(angle))

    def _user_gains(self, rng: np.random.Generator) -> np.ndarray:
        """Per-user large-scale amplitude gains spread over ``gain_spread_db``."""
        gains_db = rng.uniform(-self.gain_spread_db / 2.0,
                               self.gain_spread_db / 2.0, size=self.num_users)
        return 10.0 ** (gains_db / 20.0)

    def _tap_impulse_response(self, rng: np.random.Generator,
                              gains: np.ndarray) -> np.ndarray:
        """Draw a multipath impulse response of shape (taps, antennas, users)."""
        k = self.rician_k
        taps = np.empty((self.num_taps, self.num_bs_antennas, self.num_users),
                        dtype=np.complex128)
        tap_powers = np.exp(-np.arange(self.num_taps, dtype=float))
        tap_powers /= tap_powers.sum()
        for user in range(self.num_users):
            angle = rng.uniform(-np.pi / 3.0, np.pi / 3.0)
            los = self._steering_vector(angle)
            for tap in range(self.num_taps):
                scatter = (rng.normal(size=self.num_bs_antennas)
                           + 1j * rng.normal(size=self.num_bs_antennas)) / np.sqrt(2.0)
                if tap == 0 and k > 0:
                    component = (np.sqrt(k / (k + 1.0)) * los
                                 + np.sqrt(1.0 / (k + 1.0)) * scatter)
                else:
                    component = scatter
                taps[tap, :, user] = (gains[user] * np.sqrt(tap_powers[tap])
                                      * component)
        return taps

    def _taps_to_subcarriers(self, taps: np.ndarray) -> np.ndarray:
        """DFT the tap-domain response onto the subcarrier grid."""
        subcarriers = np.arange(self.num_subcarriers)
        tap_indices = np.arange(self.num_taps)
        # (subcarriers, taps) DFT matrix over an FFT of num_subcarriers bins.
        dft = np.exp(-2j * np.pi * np.outer(subcarriers, tap_indices)
                     / self.num_subcarriers)
        # channels[s] = sum_t dft[s, t] * taps[t]
        return np.tensordot(dft, taps, axes=([1], [0]))

    # ------------------------------------------------------------------ #
    def generate(self, num_frames: int = 20,
                 random_state: RandomState = None) -> ChannelTrace:
        """Generate a trace of *num_frames* wideband channel snapshots."""
        num_frames = check_integer_in_range("num_frames", num_frames, minimum=1)
        rng = ensure_rng(random_state)
        gains = self._user_gains(rng)
        rho = self.temporal_correlation
        innovation_scale = np.sqrt(max(0.0, 1.0 - rho ** 2))

        frames = np.empty(
            (num_frames, self.num_subcarriers, self.num_bs_antennas, self.num_users),
            dtype=np.complex128,
        )
        taps = self._tap_impulse_response(rng, gains)
        frames[0] = self._taps_to_subcarriers(taps)
        for frame in range(1, num_frames):
            innovation = self._tap_impulse_response(rng, gains)
            taps = rho * taps + innovation_scale * innovation
            frames[frame] = self._taps_to_subcarriers(taps)
        return ChannelTrace(channels=frames)


class TraceChannel(ChannelModel):
    """Adapter exposing a :class:`ChannelTrace` through the ChannelModel API.

    ``sample(num_rx, num_tx, rng)`` draws a random frame/subcarrier and a
    random subset of ``num_rx`` base-station antennas; ``num_tx`` must equal
    the number of users recorded in the trace.
    """

    def __init__(self, trace: ChannelTrace):
        if not isinstance(trace, ChannelTrace):
            raise ChannelError("TraceChannel requires a ChannelTrace instance")
        self.trace = trace

    def sample(self, num_rx: int, num_tx: int,
               random_state: RandomState = None) -> np.ndarray:
        if num_tx != self.trace.num_users:
            raise ChannelError(
                f"trace records {self.trace.num_users} users, requested {num_tx}"
            )
        if num_rx > self.trace.num_bs_antennas:
            raise ChannelError(
                f"trace records {self.trace.num_bs_antennas} BS antennas, "
                f"requested {num_rx}"
            )
        return self.trace.random_square_channel(random_state, num_antennas=num_rx)

    def __repr__(self) -> str:
        return (f"TraceChannel(frames={self.trace.num_frames}, "
                f"subcarriers={self.trace.num_subcarriers}, "
                f"bs_antennas={self.trace.num_bs_antennas}, "
                f"users={self.trace.num_users})")
