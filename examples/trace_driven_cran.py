#!/usr/bin/env python3
"""Trace-driven C-RAN evaluation: 8x8 MIMO from a 96-antenna array.

Mirrors the paper's Section 5.5 experiment: a wideband channel trace between
a 96-antenna base station and 8 static users is replayed; for every channel
use, 8 base-station antennas are selected at random to form an 8x8 MIMO
system at ~30 dB SNR, and QuAMax decodes it on the simulated annealer.  The
script reports BER, frame error accounting, and the per-channel-use compute
time for BPSK and QPSK.  The measured Argos trace is not redistributable, so
a synthetic trace with matching structure (spatial correlation across the
array, unequal user gains, frequency selectivity) is generated instead.

Run with::

    python examples/trace_driven_cran.py [--channel-uses 5]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import MimoUplink, QuAMaxDecoder
from repro.channel import ArgosLikeTraceGenerator, TraceChannel
from repro.mimo import Frame
from repro.metrics import bit_error_rate


def run_modulation(modulation: str, trace_channel: TraceChannel,
                   num_channel_uses: int, snr_db: float, seed: int) -> None:
    """Decode several trace-driven channel uses for one modulation."""
    link = MimoUplink(num_users=8, constellation=modulation,
                      channel_model=trace_channel)
    decoder = QuAMaxDecoder(random_state=seed)
    rng = np.random.default_rng(seed)

    frame = Frame(size_bytes=50)
    total_errors, total_bits, total_time_us = 0, 0, 0.0
    for _ in range(num_channel_uses):
        channel_use = link.transmit(snr_db=snr_db, random_state=rng)
        outcome = decoder.detect_with_run(channel_use)
        errors = int(np.count_nonzero(outcome.detection.bits
                                      != channel_use.transmitted_bits))
        total_errors += errors
        total_bits += channel_use.num_bits
        total_time_us += outcome.run.compute_time_us
        frame.add(channel_use.transmitted_bits, outcome.detection.bits)

    print(f"{modulation:>6}: BER {total_errors / total_bits:.4f} over "
          f"{total_bits} bits | mean compute "
          f"{total_time_us / num_channel_uses:.1f} us/channel use | "
          f"frame errored: {frame.is_errored()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--channel-uses", type=int, default=5)
    parser.add_argument("--snr-db", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()

    print("Generating synthetic Argos-like trace (96 BS antennas x 8 users)...")
    trace = ArgosLikeTraceGenerator().generate(num_frames=10,
                                               random_state=args.seed)
    trace_channel = TraceChannel(trace)
    print(f"Trace: {trace.num_frames} frames x {trace.num_subcarriers} "
          f"subcarriers x {trace.num_bs_antennas} antennas x "
          f"{trace.num_users} users\n")
    for modulation in ("BPSK", "QPSK"):
        run_modulation(modulation, trace_channel, args.channel_uses,
                       args.snr_db, args.seed)


if __name__ == "__main__":
    main()
