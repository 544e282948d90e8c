#!/usr/bin/env python3
"""Offered-load benchmark of the C-RAN serving subsystem.

Two measurements over a synthetic Argos-like trace workload:

* ``cran_serving`` — the headline pair: the same saturating offered load
  (every burst arrives almost immediately, so batches fill) replayed through
  a batch-size-1 scheduler (every job becomes its own QA submission — the
  serial serving baseline) versus the EDF batching scheduler flushing
  full ``max_batch`` packs into :meth:`QuAMaxDecoder.detect_batch`.  Decode
  results are bit-identical between the two; the difference is pure
  throughput (wall-clock jobs/s) and virtual-clock latency.
* ``cran_warm_cache`` — the batch-size-1 load replayed with the annealer's
  structure-keyed sampler cache disabled versus enabled: bit-identical
  detections, with the warm path skipping per-submission sampler
  reconstruction (colouring, CSR templates, entry maps).
* ``cran_load_sweep`` — the same service at three offered loads (under,
  near, over the pool's service rate), recording virtual throughput, p50/p99
  latency, batch fill and deadline misses at each point.
* ``cran_process_scaling`` — the saturating load replayed through
  ``mode="process"`` worker pools of 1, 2 and 4 processes (plus the inline
  reference), recording the wall-clock jobs/s curve and the machine's core
  count (the curve can only scale to the cores actually present).
* ``cran_threaded_serving`` — the saturating batched load replayed with
  counter-mode jobs (``rng_mode="counter"``) through inline services whose
  kernel-thread budget is 1, 2 and 4 (``threads=``), against the sequential
  serving baseline: jobs/s per thread count, with completed detections
  bit-identical across every thread count (the counter contract at the
  serving layer).  Thread speedups only materialise on multi-core machines;
  ``cpu_cores`` is recorded alongside the curve.
* ``cran_adaptive_wait`` — a low offered load with tight deadlines served
  with the fixed ``max_wait_us`` timeout, the analytic deadline-driven
  model, and the online model (``adaptive_wait=True``: per-structure EWMA
  of observed pack decode times, analytic fallback during warm-up):
  identical detections, lower p99 latency and fewer deadline misses.
* ``cran_trace_overhead`` — the saturating batched load replayed with
  tracing off versus ``tracing=True``: bit-identical detections and
  identical virtual-clock telemetry, with the wall-clock cost of recording
  the full lifecycle event stream pinned (the perf-smoke bar holds it to a
  few percent of throughput).
* ``cran_fault_recovery`` — the saturating batched load replayed clean
  versus under a seeded per-pack decode-error :class:`FaultPlan` with
  retries enabled (the rate is set so a handful of the run's packs
  actually fail): no job is lost (``completed + shed == submitted``),
  completed detections stay bit-identical (retries re-use the jobs'
  private seeds), and the pair records the wall-clock cost of the retry
  round trips (the perf-smoke bar bounds the slowdown).

Results are *merged* into ``BENCH_core.json`` (next to this file by default)
alongside the core benchmarks, preserving whatever entries are already there.

Run with::

    PYTHONPATH=src python benchmarks/perf/bench_cran.py [--scale quick|full]
"""

from __future__ import annotations

import argparse
import json
import math
import time
from datetime import datetime, timezone
from pathlib import Path

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_core.json"

#: Workload knobs per scale.  ``full`` is the acceptance configuration — an
#: offered load that fills batches of 16; ``quick`` is a seconds-scale CI
#: smoke configuration.
SCALES = {
    "quick": dict(num_users=3, num_bs_antennas=12, num_subcarriers=16,
                  num_frames=2, num_bursts=6, burst_subcarriers=4,
                  max_batch=8, num_anneals=25, max_wait_us=50_000.0,
                  sweep_interarrival_us=(2_000.0, 20_000.0, 60_000.0),
                  sweep_bursts=4, deadline_us=120_000.0,
                  process_workers=(1, 2, 4), process_bursts=4,
                  serving_threads=(1, 2, 4),
                  adaptive_interarrival_us=40_000.0, adaptive_bursts=6,
                  adaptive_deadline_us=60_000.0,
                  fault_pack_error_rate=0.25, fault_seed=0,
                  fault_retries=3),
    "full": dict(num_users=3, num_bs_antennas=12, num_subcarriers=16,
                 num_frames=2, num_bursts=16, burst_subcarriers=4,
                 max_batch=16, num_anneals=50, max_wait_us=200_000.0,
                 sweep_interarrival_us=(2_000.0, 20_000.0, 60_000.0),
                 sweep_bursts=8, deadline_us=120_000.0,
                 process_workers=(1, 2, 4), process_bursts=12,
                 serving_threads=(1, 2, 4),
                 adaptive_interarrival_us=100_000.0, adaptive_bursts=12,
                 adaptive_deadline_us=150_000.0,
                 fault_pack_error_rate=0.25, fault_seed=0,
                 fault_retries=3),
}


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def _make_decoder(num_anneals: int):
    from repro.annealer.machine import (AnnealerParameters,
                                        QuantumAnnealerSimulator)
    from repro.decoder.quamax import QuAMaxDecoder

    return QuAMaxDecoder(QuantumAnnealerSimulator(),
                         AnnealerParameters(num_anneals=num_anneals))


def _make_trace(knobs: dict, seed: int):
    from repro.channel.trace import ArgosLikeTraceGenerator

    return ArgosLikeTraceGenerator(
        num_bs_antennas=knobs["num_bs_antennas"],
        num_users=knobs["num_users"],
        num_subcarriers=knobs["num_subcarriers"],
    ).generate(num_frames=knobs["num_frames"], random_state=seed)


def _make_jobs(knobs: dict, trace, mean_interarrival_us: float,
               num_bursts: int, seed: int, modulations="QPSK"):
    from repro.cran.traffic import PoissonTrafficGenerator

    generator = PoissonTrafficGenerator(
        trace,
        modulations=modulations,
        mean_interarrival_us=mean_interarrival_us,
        burst_subcarriers=knobs["burst_subcarriers"],
        user_snrs_db=20.0,
        deadline_us=knobs["deadline_us"],
    )
    return generator.generate(num_bursts, random_state=seed)


def bench_serving_speedup(knobs: dict, seed: int = 0) -> dict:
    """Batch-size-1 scheduler vs. full-pack batching, saturating load."""
    import numpy as np

    from repro.cran.service import CranService

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    # A saturating load: bursts arrive ~back to back, so the batched
    # scheduler's groups fill to max_batch.  One modulation keeps a single
    # structure group, the configuration the acceptance criterion measures.
    jobs = _make_jobs(knobs, trace, mean_interarrival_us=10.0,
                      num_bursts=knobs["num_bursts"], seed=seed)
    # Warm the embedding cache so both paths time pure serving work.
    CranService(decoder, max_batch=1, max_wait_us=math.inf).run(jobs[:1])

    baseline = CranService(decoder, max_batch=1, max_wait_us=math.inf)
    batched = CranService(decoder, max_batch=knobs["max_batch"],
                          max_wait_us=knobs["max_wait_us"])
    before_s, report_1 = _timed(baseline.run, jobs)
    after_s, report_b = _timed(batched.run, jobs)
    identical = all(
        np.array_equal(a.result.detection.bits, b.result.detection.bits)
        for a, b in zip(report_1.results, report_b.results))
    return {
        "params": {
            "num_users": knobs["num_users"],
            "num_jobs": len(jobs),
            "max_batch": knobs["max_batch"],
            "num_anneals": knobs["num_anneals"],
        },
        "before_s": before_s,
        "after_s": after_s,
        "jobs_per_s_before": len(jobs) / before_s,
        "jobs_per_s_after": len(jobs) / after_s,
        "speedup": before_s / after_s,
        "mean_batch_fill": report_b.telemetry["mean_batch_fill"],
        "p99_latency_us_before": report_1.telemetry["latency_us"]["p99"],
        "p99_latency_us_after": report_b.telemetry["latency_us"]["p99"],
        "detections_identical": identical,
    }


def bench_warm_cache(knobs: dict, seed: int = 0) -> dict:
    """Cold vs. warm structure-keyed sampler cache, batch-size-1 serving.

    Batch-1 serving is the configuration the warm cache targets: every job
    is its own QA submission, so without the cache every submission rebuilds
    the block-diagonal sampler (colouring, CSR templates, entry maps,
    cluster descriptors) from scratch.  The pair replays the same saturating
    load through a decoder whose annealer has the cache disabled
    (``sampler_cache_size=0``) and one with the default cache; detections
    must be bit-identical — the cache only skips reconstruction, never
    changes the seeded sweep stream.
    """
    import numpy as np

    from repro.annealer.machine import (AnnealerParameters,
                                        QuantumAnnealerSimulator)
    from repro.cran.service import CranService
    from repro.decoder.quamax import QuAMaxDecoder

    trace = _make_trace(knobs, seed)
    jobs = None

    def serve(sampler_cache_size):
        nonlocal jobs
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(sampler_cache_size=sampler_cache_size),
            AnnealerParameters(num_anneals=knobs["num_anneals"]))
        if jobs is None:
            jobs = _make_jobs(knobs, trace, mean_interarrival_us=10.0,
                              num_bursts=knobs["num_bursts"], seed=seed)
        service = CranService(decoder, max_batch=1, max_wait_us=math.inf)
        # Warm the embedding cache (and, on the warm side, the sampler
        # cache) so the pair isolates steady-state per-job cost.
        service.run(jobs[:1])
        wall_s, report = _timed(service.run, jobs)
        return wall_s, report, decoder

    cold_s, cold_report, _ = serve(0)
    warm_s, warm_report, warm_decoder = serve(8)
    identical = all(
        np.array_equal(a.result.detection.bits, b.result.detection.bits)
        for a, b in zip(cold_report.results, warm_report.results))
    return {
        "params": {
            "num_jobs": len(jobs),
            "num_anneals": knobs["num_anneals"],
            "max_batch": 1,
        },
        "before_s": cold_s,
        "after_s": warm_s,
        "jobs_per_s_before": len(jobs) / cold_s,
        "jobs_per_s_after": len(jobs) / warm_s,
        "speedup": cold_s / warm_s,
        "sampler_cache": warm_decoder.sampler_cache_info(),
        "detections_identical": identical,
    }


def bench_offered_load_sweep(knobs: dict, seed: int = 0) -> dict:
    """One service, three offered loads: throughput and latency vs. load."""
    from repro.cran.service import CranService

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    service = CranService(decoder, max_batch=knobs["max_batch"],
                          max_wait_us=knobs["max_wait_us"])
    points = []
    for interarrival_us in knobs["sweep_interarrival_us"]:
        jobs = _make_jobs(knobs, trace, mean_interarrival_us=interarrival_us,
                          num_bursts=knobs["sweep_bursts"], seed=seed + 1,
                          modulations=("BPSK", "QPSK"))
        report = service.run(jobs)
        telemetry = report.telemetry
        points.append({
            "mean_interarrival_us": interarrival_us,
            "offered_jobs_per_s": (knobs["burst_subcarriers"]
                                   / (interarrival_us * 1e-6)),
            "virtual_jobs_per_s": telemetry["throughput_jobs_per_s"],
            "wall_jobs_per_s": report.wall_jobs_per_s,
            "p50_latency_us": telemetry["latency_us"]["p50"],
            "p99_latency_us": telemetry["latency_us"]["p99"],
            "mean_batch_fill": telemetry["mean_batch_fill"],
            "deadline_miss_rate": telemetry["deadline_miss_rate"],
            "max_queue_depth": telemetry["queue_depth_max"],
        })
    return {
        "params": {
            "max_batch": knobs["max_batch"],
            "burst_subcarriers": knobs["burst_subcarriers"],
            "num_bursts": knobs["sweep_bursts"],
            "num_anneals": knobs["num_anneals"],
            "deadline_us": knobs["deadline_us"],
        },
        "points": points,
    }


def bench_process_scaling(knobs: dict, seed: int = 0) -> dict:
    """Wall-clock jobs/s of the process pool at 1..N workers, saturating load."""
    import os

    import numpy as np

    from repro.cran.service import CranService

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    jobs = _make_jobs(knobs, trace, mean_interarrival_us=10.0,
                      num_bursts=knobs["process_bursts"], seed=seed)
    # Warm the embedding cache (the pickled decoder ships it to every
    # worker) so all points time pure serving work.
    inline_service = CranService(decoder, max_batch=knobs["max_batch"],
                                 max_wait_us=knobs["max_wait_us"])
    inline_service.run(jobs[:1])
    inline_s, inline_report = _timed(inline_service.run, jobs)
    points = []
    identical = True
    for workers in knobs["process_workers"]:
        service = CranService(decoder, max_batch=knobs["max_batch"],
                              max_wait_us=knobs["max_wait_us"],
                              num_workers=workers, mode="process")
        wall_s, report = _timed(service.run, jobs)
        identical = identical and all(
            np.array_equal(a.result.detection.bits, b.result.detection.bits)
            for a, b in zip(inline_report.results, report.results))
        points.append({
            "num_workers": workers,
            "wall_s": wall_s,
            "wall_jobs_per_s": len(jobs) / wall_s,
            "speedup_vs_inline": inline_s / wall_s,
        })
    return {
        "params": {
            "num_jobs": len(jobs),
            "max_batch": knobs["max_batch"],
            "num_anneals": knobs["num_anneals"],
            "cpu_cores": os.cpu_count(),
        },
        "inline_s": inline_s,
        "inline_jobs_per_s": len(jobs) / inline_s,
        "points": points,
        "detections_identical": identical,
    }


def bench_threaded_serving(knobs: dict, seed: int = 0) -> dict:
    """Counter-mode serving at kernel threads 1/2/4 vs. the sequential baseline.

    The replica-parallel contract measured at the serving layer: the same
    saturating load, first with default sequential-discipline jobs, then with
    ``rng_mode="counter"`` jobs through inline services whose per-pack
    kernel-thread budget (``threads=``) sweeps 1, 2 and 4.  Counter streams
    are order-independent, so the completed detections must be bit-identical
    across every thread count; the jobs/s curve is the throughput payoff and
    only rises past 1 thread on multi-core machines (``cpu_cores`` recorded).
    """
    import dataclasses
    import os

    import numpy as np

    from repro.annealer import backends
    from repro.cran.service import CranService

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    jobs = _make_jobs(knobs, trace, mean_interarrival_us=10.0,
                      num_bursts=knobs["num_bursts"], seed=seed)
    resolved = backends.resolve_backend("auto")
    entry = {
        "params": {
            "num_jobs": len(jobs),
            "max_batch": knobs["max_batch"],
            "num_anneals": knobs["num_anneals"],
            "serving_threads": list(knobs["serving_threads"]),
            "cpu_cores": os.cpu_count(),
        },
        "openmp_enabled": backends.openmp_enabled(),
        "compiled_backend": resolved if resolved != "numpy" else None,
        "compiled_available": resolved != "numpy",
    }
    baseline = CranService(decoder, max_batch=knobs["max_batch"],
                           max_wait_us=knobs["max_wait_us"])
    # Warm the embedding/sampler caches so every point times steady state.
    baseline.run(jobs[:1])
    sequential_s, _ = _timed(baseline.run, jobs)
    entry["sequential_s"] = sequential_s
    entry["sequential_jobs_per_s"] = len(jobs) / sequential_s
    counter_jobs = [dataclasses.replace(job, rng_mode="counter")
                    for job in jobs]
    reference_bits = None
    identical = True
    points = []
    for threads in knobs["serving_threads"]:
        service = CranService(decoder, max_batch=knobs["max_batch"],
                              max_wait_us=knobs["max_wait_us"],
                              threads=threads)
        service.run(counter_jobs[:1])
        wall_s, report = _timed(service.run, counter_jobs)
        bits = {r.job.job_id: r.result.detection.bits
                for r in report.results}
        if reference_bits is None:
            reference_bits = bits
        else:
            identical = identical and all(
                np.array_equal(reference_bits[job_id], job_bits)
                for job_id, job_bits in bits.items())
        points.append({
            "threads": threads,
            "wall_s": wall_s,
            "wall_jobs_per_s": len(jobs) / wall_s,
            "speedup_vs_sequential": sequential_s / wall_s,
        })
    entry["points"] = points
    entry["detections_identical_across_threads"] = identical
    return entry


def bench_adaptive_wait(knobs: dict, seed: int = 0) -> dict:
    """Fixed max_wait vs. analytic vs. online adaptive wait, low load.

    Three policies over one offered load: the fixed ``max_wait_us`` timeout,
    the purely analytic deadline-driven model (overhead + amortised compute,
    passed explicitly via ``decode_time_model=``), and the default
    ``adaptive_wait=True`` online model — an EWMA of observed per-structure
    pack decode times with the analytic model as warm-up fallback.
    Detections are identical across all three; the policies only move flush
    timing, i.e. latency and deadline telemetry.
    """
    import numpy as np

    from repro.cran.service import CranService, decode_time_model_for

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    generator_knobs = dict(knobs, deadline_us=knobs["adaptive_deadline_us"])
    jobs = _make_jobs(generator_knobs, trace,
                      mean_interarrival_us=knobs["adaptive_interarrival_us"],
                      num_bursts=knobs["adaptive_bursts"], seed=seed + 2)
    fixed = CranService(decoder, max_batch=knobs["max_batch"],
                        max_wait_us=knobs["max_wait_us"]).run(jobs)
    analytic = CranService(
        decoder, max_batch=knobs["max_batch"],
        max_wait_us=knobs["max_wait_us"],
        decode_time_model=decode_time_model_for(decoder)).run(jobs)
    online = CranService(decoder, max_batch=knobs["max_batch"],
                         max_wait_us=knobs["max_wait_us"],
                         adaptive_wait=True).run(jobs)
    identical = all(
        np.array_equal(a.result.detection.bits, b.result.detection.bits)
        and np.array_equal(a.result.detection.bits, c.result.detection.bits)
        for a, b, c in zip(fixed.results, analytic.results, online.results))
    return {
        "params": {
            "num_jobs": len(jobs),
            "max_batch": knobs["max_batch"],
            "max_wait_us": knobs["max_wait_us"],
            "deadline_us": knobs["adaptive_deadline_us"],
            "mean_interarrival_us": knobs["adaptive_interarrival_us"],
            "num_anneals": knobs["num_anneals"],
        },
        "model": "online_ewma(analytic fallback)",
        "p50_latency_us_fixed": fixed.telemetry["latency_us"]["p50"],
        "p50_latency_us_analytic": analytic.telemetry["latency_us"]["p50"],
        "p50_latency_us_adaptive": online.telemetry["latency_us"]["p50"],
        "p99_latency_us_fixed": fixed.telemetry["latency_us"]["p99"],
        "p99_latency_us_analytic": analytic.telemetry["latency_us"]["p99"],
        "p99_latency_us_adaptive": online.telemetry["latency_us"]["p99"],
        "deadline_miss_rate_fixed": fixed.telemetry["deadline_miss_rate"],
        "deadline_miss_rate_analytic":
            analytic.telemetry["deadline_miss_rate"],
        "deadline_miss_rate_adaptive":
            online.telemetry["deadline_miss_rate"],
        "decode_time_per_job_us":
            online.telemetry["decode_time_per_job_us"],
        "detections_identical": identical,
    }


def bench_trace_overhead(knobs: dict, seed: int = 0) -> dict:
    """Tracing off vs. on over the saturating batched load.

    The recorder is a passive append buffer behind locks the pool already
    takes, so the overhead should be noise-level; the pair pins it (and the
    perf-smoke bar enforces ≤ a few percent).  Detections and the virtual
    event stream are deterministic, so the traced side also reports the
    event count and the per-job event rate.
    """
    import numpy as np

    from repro.cran.service import CranService

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    jobs = _make_jobs(knobs, trace, mean_interarrival_us=10.0,
                      num_bursts=knobs["num_bursts"], seed=seed)
    untraced = CranService(decoder, max_batch=knobs["max_batch"],
                           max_wait_us=knobs["max_wait_us"])
    traced = CranService(decoder, max_batch=knobs["max_batch"],
                         max_wait_us=knobs["max_wait_us"], tracing=True)
    # Warm the embedding/sampler caches so the pair times steady state.
    untraced.run(jobs[:1])
    before_s, plain_report = _timed(untraced.run, jobs)
    after_s, traced_report = _timed(traced.run, jobs)
    identical = all(
        np.array_equal(a.result.detection.bits, b.result.detection.bits)
        for a, b in zip(plain_report.results, traced_report.results))
    return {
        "params": {
            "num_jobs": len(jobs),
            "max_batch": knobs["max_batch"],
            "num_anneals": knobs["num_anneals"],
        },
        "before_s": before_s,
        "after_s": after_s,
        "jobs_per_s_before": len(jobs) / before_s,
        "jobs_per_s_after": len(jobs) / after_s,
        "speedup": before_s / after_s,
        "overhead_fraction": after_s / before_s - 1.0,
        "trace_events": len(traced_report.trace),
        "events_per_job": len(traced_report.trace) / len(jobs),
        "detections_identical": identical,
    }


def bench_fault_recovery(knobs: dict, seed: int = 0) -> dict:
    """Clean vs. seeded pack-failure serving with retries, saturating load.

    The faulty side injects seeded decode errors on a fraction of the
    packs and lets the session's retry layer requeue the failed jobs
    (ample retry budget, generous deadlines, so nothing is shed).  The
    contract under measurement: zero lost jobs, bit-identical completed
    detections, and a bounded wall-clock cost for the recovery round trips.
    """
    import numpy as np

    from repro.cran.faults import FaultPlan
    from repro.cran.service import CranService

    trace = _make_trace(knobs, seed)
    decoder = _make_decoder(knobs["num_anneals"])
    jobs = _make_jobs(knobs, trace, mean_interarrival_us=10.0,
                      num_bursts=knobs["num_bursts"], seed=seed)
    # The plan seed is part of the scale configuration: it is chosen so
    # the run's few pack indices actually draw failures at the configured
    # rate (a handful of packs flush per run, so an unlucky seed would
    # measure a no-op).
    plan = FaultPlan(seed=knobs["fault_seed"],
                     decode_error_rate=knobs["fault_pack_error_rate"])
    clean = CranService(decoder, max_batch=knobs["max_batch"],
                        max_wait_us=knobs["max_wait_us"])
    faulty = CranService(decoder, max_batch=knobs["max_batch"],
                         max_wait_us=knobs["max_wait_us"],
                         fault_plan=plan, max_retries=knobs["fault_retries"])
    # Warm the embedding/sampler caches so the pair times steady state.
    clean.run(jobs[:1])
    before_s, clean_report = _timed(clean.run, jobs)
    after_s, faulty_report = _timed(faulty.run, jobs)
    clean_bits = {r.job.job_id: r.result.detection.bits
                  for r in clean_report.results}
    identical = all(
        np.array_equal(clean_bits[r.job.job_id], r.result.detection.bits)
        for r in faulty_report.results)
    faults = faulty_report.telemetry["faults"]
    return {
        "params": {
            "num_jobs": len(jobs),
            "max_batch": knobs["max_batch"],
            "num_anneals": knobs["num_anneals"],
            "pack_error_rate": knobs["fault_pack_error_rate"],
            "max_retries": knobs["fault_retries"],
        },
        "before_s": before_s,
        "after_s": after_s,
        "jobs_per_s_before": len(jobs) / before_s,
        "jobs_per_s_after": len(jobs) / after_s,
        "slowdown_fraction": after_s / before_s - 1.0,
        "p99_latency_us_before": clean_report.telemetry["latency_us"]["p99"],
        "p99_latency_us_after": faulty_report.telemetry["latency_us"]["p99"],
        "packs_failed": faults["packs_failed"],
        "jobs_retried": faults["jobs_retried"],
        "jobs_shed": len(faulty_report.shed_jobs),
        "no_jobs_lost": (faulty_report.jobs_completed
                         + len(faulty_report.shed_jobs) == len(jobs)),
        "detections_identical": identical,
    }


def run_suite(scale: str = "quick") -> dict:
    """Run the C-RAN benchmarks at *scale* and return their entries."""
    knobs = SCALES[scale]
    return {
        "cran_serving": bench_serving_speedup(knobs),
        "cran_warm_cache": bench_warm_cache(knobs),
        "cran_load_sweep": bench_offered_load_sweep(knobs),
        "cran_process_scaling": bench_process_scaling(knobs),
        "cran_threaded_serving": bench_threaded_serving(knobs),
        "cran_adaptive_wait": bench_adaptive_wait(knobs),
        "cran_trace_overhead": bench_trace_overhead(knobs),
        "cran_fault_recovery": bench_fault_recovery(knobs),
    }


def merge_report(entries: dict, scale: str, output: Path,
                 force: bool = False) -> dict:
    """Merge *entries* into the (possibly existing) BENCH_core.json report.

    Refuses to overwrite a record of a *different* scale (e.g. quick-scale
    entries over the committed full-scale acceptance record) unless *force*.
    """
    if output.exists():
        report = json.loads(output.read_text(encoding="utf-8"))
        existing = report.get("cran_scale") or report.get("scale")
        if existing and existing != scale and not force:
            raise SystemExit(
                f"refusing to merge {scale}-scale cran entries into {output} "
                f"recorded at scale {existing!r}; pass --force or use a "
                f"different --output")
    else:
        report = {"scale": scale, "benchmarks": {}}
    report.setdefault("benchmarks", {}).update(entries)
    report["cran_generated"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    report["cran_scale"] = scale
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--force", action="store_true",
                        help="merge even when the existing record was "
                             "produced at a different scale")
    args = parser.parse_args()

    entries = run_suite(args.scale)
    report = merge_report(entries, args.scale, args.output, force=args.force)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    serving = entries["cran_serving"]
    print(f"cran_serving      batch-1 {serving['jobs_per_s_before']:8.1f} "
          f"jobs/s  batched {serving['jobs_per_s_after']:8.1f} jobs/s  "
          f"speedup {serving['speedup']:5.1f}x  "
          f"fill {serving['mean_batch_fill']:.1f}")
    cache = entries["cran_warm_cache"]
    print(f"cran_warm_cache   cold {cache['jobs_per_s_before']:8.1f} jobs/s  "
          f"warm {cache['jobs_per_s_after']:8.1f} jobs/s  "
          f"speedup {cache['speedup']:5.1f}x  "
          f"hits {cache['sampler_cache']['hits']}")
    for point in entries["cran_load_sweep"]["points"]:
        print(f"cran_load_sweep   offered {point['offered_jobs_per_s']:8.1f} "
              f"jobs/s  p99 {point['p99_latency_us']:10.0f} us  "
              f"miss {point['deadline_miss_rate']:.2f}  "
              f"fill {point['mean_batch_fill']:.1f}")
    scaling = entries["cran_process_scaling"]
    print(f"cran_process      inline {scaling['inline_jobs_per_s']:8.1f} "
          f"jobs/s  (cores={scaling['params']['cpu_cores']})")
    for point in scaling["points"]:
        print(f"cran_process      {point['num_workers']} workers "
              f"{point['wall_jobs_per_s']:8.1f} jobs/s  "
              f"x{point['speedup_vs_inline']:.2f} vs inline")
    threaded = entries["cran_threaded_serving"]
    print(f"cran_threaded     sequential "
          f"{threaded['sequential_jobs_per_s']:8.1f} jobs/s  "
          f"(cores={threaded['params']['cpu_cores']}, "
          f"bits {'ok' if threaded['detections_identical_across_threads'] else 'DIFF'})")
    for point in threaded["points"]:
        print(f"cran_threaded     {point['threads']} threads "
              f"{point['wall_jobs_per_s']:8.1f} jobs/s  "
              f"x{point['speedup_vs_sequential']:.2f} vs sequential")
    adaptive = entries["cran_adaptive_wait"]
    print(f"cran_adaptive     p99 fixed {adaptive['p99_latency_us_fixed']:10.0f} us"
          f"  analytic {adaptive['p99_latency_us_analytic']:10.0f} us"
          f"  online {adaptive['p99_latency_us_adaptive']:10.0f} us  "
          f"miss {adaptive['deadline_miss_rate_fixed']:.2f}"
          f" -> {adaptive['deadline_miss_rate_adaptive']:.2f}")
    overhead = entries["cran_trace_overhead"]
    print(f"cran_trace        off {overhead['jobs_per_s_before']:8.1f} jobs/s"
          f"  on {overhead['jobs_per_s_after']:8.1f} jobs/s  overhead "
          f"{overhead['overhead_fraction'] * 100:+.1f}%  "
          f"{overhead['events_per_job']:.1f} events/job")
    recovery = entries["cran_fault_recovery"]
    print(f"cran_faults       clean {recovery['jobs_per_s_before']:8.1f} "
          f"jobs/s  faulty {recovery['jobs_per_s_after']:8.1f} jobs/s  "
          f"slowdown {recovery['slowdown_fraction'] * 100:+.1f}%  "
          f"retried {recovery['jobs_retried']}  "
          f"lost {'0' if recovery['no_jobs_lost'] else '!'}  "
          f"bits {'ok' if recovery['detections_identical'] else 'DIFF'}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
