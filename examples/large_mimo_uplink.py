#!/usr/bin/env python3
"""Large-MIMO uplink study: QuAMax vs classical detectors as users scale.

This is the scenario the paper's introduction motivates: a centralized RAN
data center decoding many concurrent users whose count approaches the number
of access-point antennas.  For each system size the script reports

* the Sphere Decoder's visited-node count (the classical ML cost that blows
  up exponentially, Table 1 of the paper);
* the zero-forcing BER and its single-core processing time (the linear
  baseline of Fig. 14);
* QuAMax's BER, the amortised annealing time it spent, and the measured
  wall-clock per channel use of the batched decode path (all channel uses of
  one size are packed into shared QA runs, Section 5.5).

The frame decode's early exit is demonstrated at the end:
:meth:`~repro.decoder.pipeline.OFDMDecodingPipeline.decode_frame` packs
only the subcarriers the running estimate says the frame still needs, so it
decodes no subcarrier past the one that completes the frame.

Run with::

    python examples/large_mimo_uplink.py [--users 8 12 16] [--modulation QPSK]
        [--frame-bytes 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro import MimoUplink, QuAMaxDecoder, SphereDecoder, ZeroForcingDetector
from repro.annealer.machine import AnnealerParameters
from repro.annealer.schedule import AnnealSchedule
from repro.decoder.pipeline import OFDMDecodingPipeline
from repro.detectors.timing import sphere_decoder_time_us, zero_forcing_time_us
from repro.metrics import bit_error_rate


def evaluate_size(num_users: int, modulation: str, snr_db: float,
                  num_channel_uses: int, seed: int) -> dict:
    """Decode several channel uses at one system size and collect statistics."""
    link = MimoUplink(num_users=num_users, constellation=modulation)
    rng = np.random.default_rng(seed)

    sphere = SphereDecoder()
    zero_forcing = ZeroForcingDetector()
    quamax = QuAMaxDecoder(
        parameters=AnnealerParameters(
            schedule=AnnealSchedule(anneal_time_us=1.0, pause_time_us=1.0),
            num_anneals=100),
        random_state=seed)

    channel_uses = [link.transmit(snr_db=snr_db, random_state=rng)
                    for _ in range(num_channel_uses)]
    total_bits = sum(channel_use.num_bits for channel_use in channel_uses)

    visited_nodes, zf_errors = [], 0
    for channel_use in channel_uses:
        sphere_result = sphere.detect(channel_use)
        visited_nodes.append(sphere_result.extra["visited_nodes"])

        zf_result = zero_forcing.detect(channel_use)
        zf_errors += np.count_nonzero(zf_result.bits
                                      != channel_use.transmitted_bits)

    # All channel uses reduce to same-size Ising problems, so the batched
    # decode path packs them into shared QA runs (Section 5.5).
    start = time.perf_counter()
    qa_outcomes = quamax.detect_batch(channel_uses, random_state=seed)
    qa_wall_ms = (time.perf_counter() - start) * 1e3 / num_channel_uses
    qa_errors, qa_time = 0, 0.0
    for channel_use, qa_outcome in zip(channel_uses, qa_outcomes):
        qa_errors += np.count_nonzero(qa_outcome.detection.bits
                                      != channel_use.transmitted_bits)
        qa_time += qa_outcome.run.compute_time_us

    constellation_size = link.constellation.size
    return {
        "users": num_users,
        "sphere_nodes": float(np.mean(visited_nodes)),
        "sphere_time_us": sphere_decoder_time_us(
            int(np.mean(visited_nodes)), num_users, constellation_size),
        "zf_ber": zf_errors / total_bits,
        "zf_time_us": zero_forcing_time_us(num_users, num_users),
        "quamax_ber": qa_errors / total_bits,
        "quamax_time_us": qa_time / num_channel_uses,
        "quamax_wall_ms": qa_wall_ms,
    }


def demonstrate_frame_early_exit(num_users: int, modulation: str,
                                 snr_db: float, frame_bytes: int,
                                 num_subcarriers: int, seed: int) -> None:
    """Decode one frame out of more subcarriers than it needs."""
    link = MimoUplink(num_users=num_users, constellation=modulation)
    rng = np.random.default_rng(seed)
    channel_uses = [link.transmit(snr_db=snr_db, random_state=rng)
                    for _ in range(num_subcarriers)]
    pipeline = OFDMDecodingPipeline(QuAMaxDecoder(
        parameters=AnnealerParameters(
            schedule=AnnealSchedule(anneal_time_us=1.0, pause_time_us=1.0),
            num_anneals=100)))
    pipeline.decode_subcarriers(channel_uses[:1], random_state=seed)  # warm-up

    start = time.perf_counter()
    result = pipeline.decode_frame(channel_uses, frame_bytes,
                                   random_state=seed)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"\ndecode_frame ({frame_bytes}-byte frame, {num_subcarriers} "
          f"subcarriers available): decoded {result.num_decoded} in "
          f"{elapsed_ms:.1f} ms, frame BER {result.bit_error_rate():.4f}, "
          f"attributed compute {result.total_compute_time_us:.1f} us")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, nargs="+", default=[8, 12, 16])
    parser.add_argument("--modulation", default="QPSK")
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--channel-uses", type=int, default=3)
    parser.add_argument("--frame-bytes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()

    header = (f"{'users':>5}  {'sphere nodes':>12}  {'sphere us':>9}  "
              f"{'ZF BER':>8}  {'ZF us':>7}  {'QuAMax BER':>10}  {'QuAMax us':>9}  "
              f"{'wall ms/use':>11}")
    print(header)
    print("-" * len(header))
    for num_users in args.users:
        row = evaluate_size(num_users, args.modulation, args.snr_db,
                            args.channel_uses, args.seed)
        print(f"{row['users']:>5}  {row['sphere_nodes']:>12.1f}  "
              f"{row['sphere_time_us']:>9.2f}  {row['zf_ber']:>8.4f}  "
              f"{row['zf_time_us']:>7.2f}  {row['quamax_ber']:>10.4f}  "
              f"{row['quamax_time_us']:>9.2f}  {row['quamax_wall_ms']:>11.1f}")

    demonstrate_frame_early_exit(args.users[0], args.modulation, args.snr_db,
                                 args.frame_bytes, num_subcarriers=8,
                                 seed=args.seed)


if __name__ == "__main__":
    main()
