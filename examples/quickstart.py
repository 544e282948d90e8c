#!/usr/bin/env python3
"""Quickstart: decode one multi-user MIMO channel use with QuAMax.

Simulates an uplink in which several single-antenna users transmit QPSK
symbols to an access point over a 20 dB SNR channel, reduces the resulting
maximum-likelihood detection problem to Ising form, runs it on the simulated
D-Wave 2000Q, and compares the decoded bits against the transmitted payload
and against classical detectors.  It then decodes a whole OFDM symbol's
worth of subcarriers through the batched pipeline (the paper's Section 5.5
parallelization) and reports the amortised per-subcarrier time.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ExhaustiveMLDetector,
    MimoUplink,
    OFDMDecodingPipeline,
    QuAMaxDecoder,
    ZeroForcingDetector,
)
from repro.metrics import bit_error_rate


def main() -> None:
    # A 6-user QPSK uplink with as many access-point antennas as users — the
    # poorly conditioned regime where linear detectors struggle.
    link = MimoUplink(num_users=6, constellation="QPSK")
    channel_use = link.transmit(snr_db=20.0, random_state=7)
    print(f"Transmitted bits : {channel_use.transmitted_bits}")

    # QuAMax: reduce to Ising, anneal, post-translate back to bits.
    decoder = QuAMaxDecoder(random_state=7)
    outcome = decoder.detect_with_run(channel_use)
    quamax_bits = outcome.detection.bits
    print(f"QuAMax bits      : {quamax_bits}")
    print(f"  bit errors     : "
          f"{np.count_nonzero(quamax_bits != channel_use.transmitted_bits)}")
    print(f"  anneals        : {outcome.run.num_anneals}")
    print(f"  compute time   : {outcome.run.compute_time_us:.1f} us "
          "(amortised)")
    print(f"  P(ground state): {outcome.run.ground_state_probability():.2f}")

    # Classical references.
    ml_bits = ExhaustiveMLDetector().detect(channel_use).bits
    zf_bits = ZeroForcingDetector().detect(channel_use).bits
    print(f"Exact ML bits    : {ml_bits} "
          f"(BER {bit_error_rate(channel_use.transmitted_bits, ml_bits):.3f})")
    print(f"Zero-forcing bits: {zf_bits} "
          f"(BER {bit_error_rate(channel_use.transmitted_bits, zf_bits):.3f})")

    # Batched OFDM decode: all subcarriers' (same-size) problems are packed
    # into shared QA runs, so setup and sampling cost is amortised across the
    # whole symbol.
    num_subcarriers = 8
    rng = np.random.default_rng(7)
    subcarriers = [link.transmit(snr_db=20.0, random_state=rng)
                   for _ in range(num_subcarriers)]
    pipeline = OFDMDecodingPipeline(decoder)
    start = time.perf_counter()
    report = pipeline.decode_subcarriers(subcarriers, random_state=7)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"Batched OFDM decode of {report.num_subcarriers} subcarriers:")
    print(f"  aggregate BER  : {report.bit_error_rate():.3f}")
    print(f"  amortised time : {elapsed_ms / report.num_subcarriers:.1f} "
          f"ms/subcarrier wall-clock, "
          f"{report.total_compute_time_us / report.num_subcarriers:.1f} "
          f"us/subcarrier annealing")


if __name__ == "__main__":
    main()
