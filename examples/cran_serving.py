#!/usr/bin/env python3
"""C-RAN serving demo: a QuAMax pool under Poisson multi-user load.

The paper's deployment model is a centralized RAN: one quantum-annealer
processing pool decodes the uplink of many base stations.  This demo stands
that pool up in software and drives it with realistic traffic:

1. a synthetic Argos-like trace supplies channel state for every user;
2. a Poisson generator emits frame bursts with mixed BPSK/QPSK modulation,
   per-user SNR and per-job deadlines;
3. the deadline-aware EDF scheduler queues whatever is pending — BPSK and
   QPSK jobs alike, one chip programming serves them all — and flushes full
   packs into the block-diagonal batched decoder;
4. telemetry reports throughput, latency percentiles, batch fill and
   deadline misses.

The same offered load is replayed through a batch-size-1 scheduler first, so
the printout shows exactly what chip-level batching buys — with decode
results that are bit-for-bit identical between the two (batching is pure
scheduling, never a numerics change).  The demo then walks the execution
matrix on the very same load: the multi-core process pool
(``mode="process"``) and the deadline-driven
adaptive wait (``adaptive_wait=True``) — every variant decoding to
identical bits.
Finally the same load is offered through the :class:`IngressGateway` by one
concurrent producer thread per cell, showing the admission-controlled merge
front end — still bit-identical to the serial replay.

A fault-injection leg then replays the load under a seeded
:class:`~repro.cran.faults.FaultPlan` — worker crashes and decode errors on
a fraction of the packs — with supervision restarting crashed workers and
the deadline-aware retry layer requeueing failed jobs: no job is lost
(completed + shed == submitted) and the completed bits still match the
fault-free replay, because retries re-use each job's private seed.

The last leg turns on per-job lifecycle tracing (``tracing=True``): the run
is replayed once more with the worker pool's lifecycle log exported as
trace events, the per-stage latency breakdown (queue/dispatch/overhead/
anneal) is printed via :mod:`repro.obs.report`, and the trace is written
both as JSONL (for ``python -m repro.obs.report``) and as a Chrome trace
JSON you can load in Perfetto / ``chrome://tracing`` — with decode results
still bit-identical to the untraced passes.

Run with::

    python examples/cran_serving.py [--bursts 8] [--max-batch 8] [--workers 2]
                                    [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import math

from repro import (
    AnnealerParameters,
    ArgosLikeTraceGenerator,
    CranService,
    PoissonTrafficGenerator,
    QuAMaxDecoder,
    QuantumAnnealerSimulator,
)


def build_workload(num_bursts: int, seed: int):
    """Generate the offered load: Poisson frame bursts over a trace."""
    trace = ArgosLikeTraceGenerator(
        num_bs_antennas=12, num_users=3, num_subcarriers=16,
    ).generate(num_frames=2, random_state=seed)
    generator = PoissonTrafficGenerator(
        trace,
        modulations={"BPSK": 0.5, "QPSK": 0.5},
        mean_interarrival_us=2_000.0,
        burst_subcarriers=4,
        user_snrs_db=(18.0, 22.0, 26.0),
        deadline_us=150_000.0,
    )
    return generator.generate(num_bursts, random_state=seed)


def describe(tag: str, report) -> None:
    telemetry = report.telemetry
    latency = telemetry["latency_us"]
    ber = report.bit_error_rate()
    print(f"{tag:>10}: {report.jobs_completed} jobs in "
          f"{report.wall_time_s:.2f}s wall ({report.wall_jobs_per_s:.0f} "
          f"jobs/s) | batch fill {telemetry['mean_batch_fill']:.1f} | "
          f"p50/p99 latency {latency['p50'] / 1e3:.1f}/"
          f"{latency['p99'] / 1e3:.1f} ms | deadline misses "
          f"{telemetry['deadline_misses']} | BER "
          f"{'n/a' if ber is None else f'{ber:.4f}'}")


def identical_bits(reference, report) -> bool:
    return all(
        (a.result.detection.bits == b.result.detection.bits).all()
        for a, b in zip(reference.results, report.results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bursts", type=int, default=8)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=50.0)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the mode='process' pass")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--trace-dir", default=None,
                        help="directory for the traced leg's JSONL and "
                             "Chrome trace dumps (default: skip writing)")
    args = parser.parse_args()

    from repro.annealer import backends

    print("Generating Poisson multi-user workload over an Argos-like trace...")
    jobs = build_workload(args.bursts, args.seed)
    modulations = sorted({job.modulation for job in jobs})
    print(f"Offered load: {len(jobs)} jobs in {args.bursts} bursts, "
          f"modulations {modulations}")
    print(f"C artefact loaded: {backends.cext_available()}\n")

    decoder = QuAMaxDecoder(QuantumAnnealerSimulator(),
                            AnnealerParameters(num_anneals=25))
    max_wait_us = args.max_wait_ms * 1e3
    serial = CranService(decoder, max_batch=1, max_wait_us=math.inf)
    batched = CranService(decoder, max_batch=args.max_batch,
                          max_wait_us=max_wait_us)

    serial_report = serial.run(jobs)
    describe("batch=1", serial_report)
    batched_report = batched.run(jobs)
    describe(f"batch={args.max_batch}", batched_report)

    speedup = serial_report.wall_time_s / batched_report.wall_time_s
    print(f"\nChip-level batching: {speedup:.1f}x jobs/s, decode "
          f"results identical: {identical_bits(serial_report, batched_report)}")

    # The rest of the execution matrix, same load, same bits every time.
    process_report = CranService(decoder, max_batch=args.max_batch,
                                 max_wait_us=max_wait_us,
                                 num_workers=args.workers,
                                 mode="process").run(jobs)
    describe(f"{args.workers}-proc", process_report)
    adaptive_report = CranService(decoder, max_batch=args.max_batch,
                                  max_wait_us=max_wait_us,
                                  adaptive_wait=True).run(jobs)
    describe("adaptive", adaptive_report)
    print(f"\nProcess pool identical: "
          f"{identical_bits(serial_report, process_report)}; "
          f"adaptive wait identical: "
          f"{identical_bits(serial_report, adaptive_report)}")

    # Concurrent ingress: one producer thread per cell races into the
    # gateway's per-cell shards; the dispatcher merges them into the
    # session in (arrival, id) order under admission control.
    import threading

    gateway = CranService(decoder, max_batch=args.max_batch,
                          max_wait_us=max_wait_us).gateway(
        admission_limit=64, overload_policy="block")
    by_cell: dict = {}
    for job in jobs:
        by_cell.setdefault(job.user_id, []).append(job)
    threads = [
        threading.Thread(target=lambda cell=cell, feed=feed: [
            gateway.submit(job, cell=cell) for job in feed])
        for cell, feed in by_cell.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    gateway_report = gateway.close()
    describe("gateway", gateway_report)
    ingress = gateway_report.telemetry["ingress"]
    print(f"\nGateway ingress: {ingress['cells']} cells, "
          f"{ingress['dispatched']} dispatched, "
          f"{ingress['late_restamped']} re-stamped, backlog max "
          f"{ingress['backlog_max']}; decode results identical: "
          f"{identical_bits(serial_report, gateway_report)}")

    # Fault tolerance: replay the same load under a seeded chaos plan —
    # worker crashes and decode errors on a fraction of the packs, with
    # supervision restarting crashed workers and the retry layer requeueing
    # failed jobs through the EDF scheduler.  Nothing is lost (completed +
    # shed == submitted) and retried decodes re-use each job's private
    # seed, so the bits still match the fault-free replay.
    from repro.cran import FaultPlan

    plan = FaultPlan(seed=args.seed, crash_rate=0.15, decode_error_rate=0.15)
    faulty_report = CranService(decoder, max_batch=args.max_batch,
                                max_wait_us=max_wait_us,
                                num_workers=args.workers, mode="thread",
                                fault_plan=plan, max_retries=3,
                                restart_budget=8).run(jobs)
    describe("faulty", faulty_report)
    faults = faulty_report.telemetry["faults"]
    lossless = (faulty_report.jobs_completed
                + len(faulty_report.shed_jobs) == len(jobs))
    print(f"\nFault injection: {faults['packs_failed']} packs failed "
          f"({faults['injected']}), {faults['jobs_retried']} jobs retried, "
          f"{faults['worker_restarts']} workers restarted, "
          f"{len(faulty_report.shed_jobs)} shed; no job lost: {lossless}; "
          f"decode results identical: "
          f"{identical_bits(serial_report, faulty_report)}")

    # Observability: replay once more with lifecycle tracing on and show
    # where each job's latency went.  Tracing is pure observation — the
    # decode results stay bit-identical.
    from repro.obs import build_report, render, write_chrome_trace, write_jsonl

    traced_report = CranService(decoder, max_batch=args.max_batch,
                                max_wait_us=max_wait_us,
                                tracing=True).run(jobs)
    print(f"\nTraced replay: {len(traced_report.trace)} lifecycle events, "
          f"decode results identical: "
          f"{identical_bits(batched_report, traced_report)}\n")
    print(render(build_report(traced_report.trace, worst=3)))
    if args.trace_dir is not None:
        from pathlib import Path

        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        jsonl = write_jsonl(trace_dir / "cran_trace.jsonl",
                            traced_report.trace)
        chrome = write_chrome_trace(trace_dir / "cran_trace.chrome.json",
                                    traced_report.trace)
        print(f"\nTrace written: {jsonl} (python -m repro.obs.report) and "
              f"{chrome} (load in Perfetto / chrome://tracing)")


if __name__ == "__main__":
    main()
