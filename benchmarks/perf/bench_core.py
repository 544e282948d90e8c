#!/usr/bin/env python3
"""Micro-benchmarks for the unified Metropolis core and the batched decode path.

Times the hot paths, each as a before/after pair so the repository carries
its own perf trajectory:

* ``sa_solver`` — the classical simulated-annealing baseline: the scalar
  per-spin reference loop (:meth:`SimulatedAnnealingSolver.sample_reference`)
  versus the replica-batched vectorised engine (:meth:`~.sample`);
* ``compiled_backend`` — one replica-batched anneal of a dense (logical)
  Ising problem, whose colouring is all singletons: the numpy reference
  loop versus the compiled backend (``backend="auto"`` → the C
  extension), the "escape the interpreter" pair; skipped gracefully
  (recorded with ``compiled_available: false``) when no C compiler is
  present;
* ``cluster_sweep_compiled`` — the embedded (chain-coupled) acceptance pair:
  the 128-variable path-chain workload annealed through the numpy
  single-spin+cluster reference loops versus the fused compiled cluster
  kernels (``backend="auto"``), bit-identical seeded samples;
* ``replica_parallel`` — the counter-RNG throughput pair: the same dense
  replica-batched anneal on the best compiled backend under the sequential
  draw discipline versus ``rng="counter"`` at 1/2/4 kernel threads; records
  per-thread-count timings, bit-identity across thread counts, and
  ``cpu_cores`` so the >1.5x throughput bar is only asserted on multi-core
  machines;
* ``annealer_engine`` — one ICE-batch cycle of the machine model: rebuilding
  the :class:`IsingSampler` (colour classes + CSR slicing) per batch versus
  rebinding the cached structure with :meth:`IsingSampler.refresh_values`;
* ``frame_decode`` — end-to-end OFDM decode of same-size subcarriers: one QA
  job per subcarrier versus the Section 5.5 packed block-diagonal batch;
* ``chunked_frame`` — early-exit frame decode: the batched path decoding the
  whole frame in one submission versus chunked submissions
  (``chunk_size=``) that stop at the first chunk boundary past completion.

Results are written to ``BENCH_core.json`` (next to this file by default).

Run with::

    PYTHONPATH=src python benchmarks/perf/bench_core.py [--scale quick|full]
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_core.json"

#: Workload knobs per scale.  ``full`` matches the acceptance-criteria sizes
#: (24-variable SA problem, 100 reads x 200 sweeps, 16 subcarriers); ``quick``
#: is a seconds-scale smoke configuration for CI.
SCALES = {
    "quick": dict(sa_variables=16, sa_reads=20, sa_sweeps=50,
                  dense_variables=16, dense_replicas=40, dense_sweeps=80,
                  engine_users=3, engine_batches=8, engine_anneals=25,
                  decode_users=3, decode_subcarriers=8, decode_anneals=50,
                  chunk_subcarriers=12, chunk_frame_bytes=3, chunk_size=2,
                  chunk_anneals=50,
                  cluster_variables=96, cluster_chain=16,
                  cluster_replicas=32, cluster_sweeps=50,
                  rp_variables=16, rp_replicas=64, rp_sweeps=80),
    "full": dict(sa_variables=24, sa_reads=100, sa_sweeps=200,
                 dense_variables=24, dense_replicas=100, dense_sweeps=200,
                 engine_users=4, engine_batches=12, engine_anneals=25,
                 decode_users=3, decode_subcarriers=16, decode_anneals=100,
                 chunk_subcarriers=16, chunk_frame_bytes=3, chunk_size=2,
                 chunk_anneals=100,
                 cluster_variables=128, cluster_chain=16,
                 cluster_replicas=96, cluster_sweeps=150,
                 rp_variables=24, rp_replicas=128, rp_sweeps=200),
}


def _dense_ising(num_variables: int, seed: int):
    from repro.ising.model import IsingModel

    rng = np.random.default_rng(seed)
    couplings = {(i, j): float(rng.normal())
                 for i in range(num_variables)
                 for j in range(i + 1, num_variables)}
    return IsingModel(num_variables=num_variables,
                      linear=rng.normal(size=num_variables),
                      couplings=couplings)


def _path_chain_ising(num_variables: int, chain_length: int, seed: int,
                      density: float = 0.05):
    """Embedded-shaped workload: ferromagnetic path chains (offered as flip
    clusters) + sparse cross couplings.

    Keep the construction in sync with
    ``tests/cluster_workloads.build_path_chain_problem`` (this module is a
    standalone script, so it cannot import the tests package): the golden
    digest `embedded_cluster_sampler_stream` pins exactly this problem at
    ``(128, 16, seed=2019, density=0.05)``.
    """
    from repro.ising.model import IsingModel

    rng = np.random.default_rng(seed)
    couplings = {}
    clusters = []
    for start in range(0, num_variables, chain_length):
        members = np.arange(start, min(start + chain_length, num_variables),
                            dtype=np.intp)
        clusters.append(members)
        for a, b in zip(members[:-1], members[1:]):
            couplings[(int(a), int(b))] = -2.0
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            if (i, j) not in couplings and rng.random() < density:
                couplings[(i, j)] = float(rng.normal())
    return IsingModel(num_variables=num_variables,
                      linear=rng.normal(size=num_variables),
                      couplings=couplings), clusters


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def bench_sa_solver(num_variables: int, num_reads: int, num_sweeps: int,
                    seed: int = 0) -> dict:
    """Reference per-read loop vs. one replica-batched vectorised anneal."""
    from repro.ising.model import IsingModel
    from repro.ising.solver import SimulatedAnnealingSolver

    rng = np.random.default_rng(seed)
    couplings = {(i, j): float(rng.normal())
                 for i in range(num_variables)
                 for j in range(i + 1, num_variables)}
    ising = IsingModel(num_variables=num_variables,
                       linear=rng.normal(size=num_variables),
                       couplings=couplings)
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads)
    after_s, vectorised = _timed(solver.sample, ising, 1)
    before_s, reference = _timed(solver.sample_reference, ising, 1)
    return {
        "params": {"num_variables": num_variables, "num_reads": num_reads,
                   "num_sweeps": num_sweeps},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "best_energy_before": reference.best_energy,
        "best_energy_after": vectorised.best_energy,
    }


def bench_compiled_backend(num_variables: int, num_replicas: int,
                           num_sweeps: int, seed: int = 0) -> dict:
    """Numpy reference sweep vs. the compiled backend, dense problem.

    The acceptance pair of the backend layer: the same dense logical anneal
    (identical seeded samples) with the inner loop in the interpreter versus
    C.  Records whether the compiled backend ran, so a record produced on a
    machine without a C compiler is explicit about it.
    """
    from repro.annealer import backends
    from repro.annealer.engine import IsingSampler
    from repro.ising.solver import geometric_temperature_schedule

    ising = _dense_ising(num_variables, seed)
    temperatures = geometric_temperature_schedule(num_sweeps, 5.0, 0.05)
    resolved = backends.resolve_backend("auto")
    entry = {
        "params": {"num_variables": num_variables,
                   "num_replicas": num_replicas, "num_sweeps": num_sweeps},
        "cext_available": backends.cext_available(),
        "compiled_backend": resolved if resolved != "numpy" else None,
        "compiled_available": resolved != "numpy",
    }
    python_sampler = IsingSampler(ising, backend="numpy")
    # Warm numpy dispatch setup out of the timed region.
    python_sampler.anneal(temperatures[:2], 2, random_state=seed)
    before_s, python_spins = _timed(python_sampler.anneal, temperatures,
                                    num_replicas, seed + 1)
    entry["before_s"] = before_s
    if resolved == "numpy":
        entry["after_s"] = None
        entry["speedup"] = None
        entry["samples_identical"] = None
        return entry
    compiled_sampler = IsingSampler(ising, backend=resolved)
    # Construction already loaded the C artefact; one tiny anneal also
    # warms the per-call glue.
    compiled_sampler.anneal(temperatures[:2], 2, random_state=seed)
    after_s, compiled_spins = _timed(compiled_sampler.anneal, temperatures,
                                     num_replicas, seed + 1)
    entry["after_s"] = after_s
    entry["speedup"] = before_s / after_s
    entry["samples_identical"] = bool(np.array_equal(python_spins,
                                                     compiled_spins))
    return entry


def bench_cluster_sweep_compiled(num_variables: int, chain_length: int,
                                 num_replicas: int, num_sweeps: int,
                                 seed: int = 0) -> dict:
    """Numpy cluster-flip path vs. the fused compiled cluster kernels.

    The acceptance pair of the cluster backend layer: the same embedded
    128-variable path-chain anneal (ferromagnetic chains plus sparse cross
    couplings), with the single-spin+cluster sweeps running in the numpy
    reference loops versus the fused compiled kernel
    (``pack_fused_colour_cluster_sweep``).  Seeded samples must be
    bit-identical.
    Skipped gracefully (``compiled_available: false``) when no C compiler
    is present.
    """
    from repro.annealer import backends
    from repro.annealer.engine import IsingSampler
    from repro.ising.solver import geometric_temperature_schedule

    ising, clusters = _path_chain_ising(num_variables, chain_length, seed)
    temperatures = geometric_temperature_schedule(num_sweeps, 5.0, 0.05)
    resolved = backends.resolve_backend("auto")
    reference = IsingSampler(ising, clusters=clusters, backend="numpy")
    entry = {
        "params": {"num_variables": num_variables,
                   "chain_length": chain_length,
                   "num_replicas": num_replicas, "num_sweeps": num_sweeps,
                   "num_clusters": len(clusters)},
        "cext_available": backends.cext_available(),
        "compiled_backend": resolved if resolved != "numpy" else None,
        "compiled_available": resolved != "numpy",
    }
    reference.anneal(temperatures[:2], 2, random_state=seed)
    before_s, reference_spins = _timed(reference.anneal, temperatures,
                                       num_replicas, seed + 1)
    entry["before_s"] = before_s
    if resolved == "numpy":
        entry["after_s"] = None
        entry["speedup"] = None
        entry["samples_identical"] = None
        return entry
    compiled = IsingSampler(ising, clusters=clusters, backend=resolved)
    compiled.anneal(temperatures[:2], 2, random_state=seed)
    after_s, compiled_spins = _timed(compiled.anneal, temperatures,
                                     num_replicas, seed + 1)
    entry["after_s"] = after_s
    entry["speedup"] = before_s / after_s
    entry["samples_identical"] = bool(np.array_equal(reference_spins,
                                                     compiled_spins))
    return entry


def bench_replica_parallel(num_variables: int, num_replicas: int,
                           num_sweeps: int, thread_counts=(1, 2, 4),
                           seed: int = 0) -> dict:
    """Sequential-discipline anneal vs. counter-mode threaded anneal.

    The acceptance pair of the counter-RNG contract: the same dense
    replica-batched anneal on the best compiled backend, first under the
    sequential draw discipline (one generator per block — inherently
    serial), then under ``rng="counter"`` at 1/2/4 kernel threads.  The
    counter stream is a different exact stream, so no cross-discipline
    bit-identity is asserted — the structural guard is that the counter
    samples are bit-identical across *all* thread counts.  Thread speedups
    are meaningful only on multi-core machines; ``cpu_cores`` is recorded
    so consumers (perf smoke, CI) can gate the throughput bar on it.
    """
    import os

    from repro.annealer import backends
    from repro.annealer.engine import IsingSampler
    from repro.ising.solver import geometric_temperature_schedule

    ising = _dense_ising(num_variables, seed)
    temperatures = geometric_temperature_schedule(num_sweeps, 5.0, 0.05)
    resolved = backends.resolve_backend("auto")
    entry = {
        "params": {"num_variables": num_variables,
                   "num_replicas": num_replicas, "num_sweeps": num_sweeps,
                   "thread_counts": list(thread_counts)},
        "cpu_cores": os.cpu_count() or 1,
        "openmp_enabled": backends.openmp_enabled(),
        "cext_available": backends.cext_available(),
        "compiled_backend": resolved if resolved != "numpy" else None,
        "compiled_available": resolved != "numpy",
    }
    sequential = IsingSampler(ising, backend=resolved)
    sequential.anneal(temperatures[:2], 2, random_state=seed)
    before_s, _ = _timed(sequential.anneal, temperatures, num_replicas,
                         seed + 1)
    entry["before_s"] = before_s
    if resolved == "numpy":
        entry["after_s"] = None
        entry["speedup"] = None
        entry["threads"] = None
        entry["samples_identical_across_threads"] = None
        return entry
    reference_spins = None
    times = {}
    identical = True
    for threads in thread_counts:
        sampler = IsingSampler(ising, backend=resolved, rng="counter",
                               threads=threads)
        sampler.anneal(temperatures[:2], 2, random_state=seed)
        time_s, spins = _timed(sampler.anneal, temperatures, num_replicas,
                               seed + 1)
        if reference_spins is None:
            reference_spins = spins
        elif not np.array_equal(spins, reference_spins):
            identical = False
        times[int(threads)] = time_s
    serial_counter_s = times[thread_counts[0]]
    entry["threads"] = {
        str(threads): {"time_s": time_s,
                       "speedup_vs_counter_serial": serial_counter_s / time_s}
        for threads, time_s in times.items()}
    after_s = min(times.values())
    entry["after_s"] = after_s
    entry["speedup"] = before_s / after_s
    entry["samples_identical_across_threads"] = identical
    return entry


def bench_annealer_engine(num_users: int, num_batches: int,
                          anneals_per_batch: int, seed: int = 0) -> dict:
    """Per-ICE-batch sampler rebuild vs. in-place ``refresh_values``."""
    from repro.annealer.engine import IsingSampler
    from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
    from repro.mimo.system import MimoUplink
    from repro.transform.reduction import MLToIsingReducer

    link = MimoUplink(num_users=num_users, constellation="QPSK")
    channel_use = link.transmit(snr_db=15.0, random_state=seed)
    reduced = MLToIsingReducer().reduce(channel_use)
    machine = QuantumAnnealerSimulator()
    parameters = AnnealerParameters()
    from repro.annealer.embedded import embed_ising
    embedding = machine.embedding_for(reduced.num_variables)
    embedded = embed_ising(reduced.ising, embedding,
                           chain_strength=parameters.chain_strength,
                           extended_range=parameters.extended_range)
    temperatures = parameters.schedule.temperature_profile(
        sweeps_per_us=machine.sweeps_per_us, hot=machine.hot_temperature,
        cold=machine.cold_temperature)
    clusters = [np.asarray(chain, dtype=np.intp)
                for chain in embedded.compact_chains.values()]
    perturbations = [machine.ice.perturb(embedded.ising,
                                         np.random.default_rng(seed + k))
                     for k in range(num_batches)]

    def rebuild_every_batch():
        rng = np.random.default_rng(seed)
        for perturbed in perturbations:
            sampler = IsingSampler(perturbed, clusters=clusters)
            sampler.anneal(temperatures, anneals_per_batch, random_state=rng)

    def refresh_between_batches():
        rng = np.random.default_rng(seed)
        sampler = IsingSampler(perturbations[0], clusters=clusters)
        for perturbed in perturbations:
            sampler.refresh_values(perturbed)
            sampler.anneal(temperatures, anneals_per_batch, random_state=rng)

    def setup_rebuild():
        for perturbed in perturbations:
            IsingSampler(perturbed, clusters=clusters)

    def setup_refresh():
        sampler = IsingSampler(perturbations[0], clusters=clusters)
        for perturbed in perturbations:
            sampler.refresh_values(perturbed)

    before_s, _ = _timed(rebuild_every_batch)
    after_s, _ = _timed(refresh_between_batches)
    setup_before_s, _ = _timed(setup_rebuild)
    setup_after_s, _ = _timed(setup_refresh)
    return {
        "params": {"num_users": num_users, "num_batches": num_batches,
                   "anneals_per_batch": anneals_per_batch,
                   "num_physical": embedded.num_physical},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "setup_before_s": setup_before_s,
        "setup_after_s": setup_after_s,
        "setup_speedup": setup_before_s / setup_after_s,
    }


def bench_frame_decode(num_users: int, num_subcarriers: int,
                       num_anneals: int, seed: int = 0) -> dict:
    """Serial per-subcarrier QA jobs vs. the packed batched decode."""
    from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
    from repro.decoder.pipeline import OFDMDecodingPipeline
    from repro.decoder.quamax import QuAMaxDecoder
    from repro.mimo.system import MimoUplink

    link = MimoUplink(num_users=num_users, constellation="QPSK")
    rng = np.random.default_rng(seed)
    channel_uses = [link.transmit(snr_db=20.0, random_state=rng)
                    for _ in range(num_subcarriers)]
    pipeline = OFDMDecodingPipeline(QuAMaxDecoder(
        QuantumAnnealerSimulator(),
        AnnealerParameters(num_anneals=num_anneals)))
    # Warm the embedding cache so both paths time pure decode work.
    pipeline.decode_subcarriers(channel_uses[:1], random_state=seed)
    before_s, serial = _timed(pipeline.decode_subcarriers,
                              channel_uses, seed)
    after_s, batched = _timed(pipeline.decode_subcarriers_batched,
                              channel_uses, seed)
    identical = all(
        np.array_equal(a.result.detection.bits, b.result.detection.bits)
        for a, b in zip(serial.subcarrier_results, batched.subcarrier_results))
    return {
        "params": {"num_users": num_users,
                   "num_subcarriers": num_subcarriers,
                   "num_anneals": num_anneals},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "amortized_before_ms": before_s / num_subcarriers * 1e3,
        "amortized_after_ms": after_s / num_subcarriers * 1e3,
        "detections_identical": identical,
    }


def bench_chunked_frame(num_users: int, num_subcarriers: int,
                        frame_size_bytes: int, chunk_size: int,
                        num_anneals: int, seed: int = 0) -> dict:
    """Whole-frame batched decode vs. chunked batched decode with early exit."""
    from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
    from repro.decoder.pipeline import OFDMDecodingPipeline
    from repro.decoder.quamax import QuAMaxDecoder
    from repro.mimo.system import MimoUplink

    link = MimoUplink(num_users=num_users, constellation="QPSK")
    rng = np.random.default_rng(seed)
    channel_uses = [link.transmit(snr_db=20.0, random_state=rng)
                    for _ in range(num_subcarriers)]
    pipeline = OFDMDecodingPipeline(QuAMaxDecoder(
        QuantumAnnealerSimulator(),
        AnnealerParameters(num_anneals=num_anneals)))
    # Warm the embedding cache so both paths time pure decode work.
    pipeline.decode_subcarriers(channel_uses[:1], random_state=seed)
    before_s, whole = _timed(pipeline.decode_frame, channel_uses,
                             frame_size_bytes, seed, True)
    after_s, chunked = _timed(pipeline.decode_frame, channel_uses,
                              frame_size_bytes, seed, True, chunk_size)
    serial = pipeline.decode_frame(channel_uses, frame_size_bytes, seed)
    identical = (
        chunked.bits_accumulated == serial.bits_accumulated
        and chunked.bit_errors() == serial.bit_errors()
        and chunked.total_compute_time_us == serial.total_compute_time_us)
    return {
        "params": {"num_users": num_users,
                   "num_subcarriers": num_subcarriers,
                   "frame_size_bytes": frame_size_bytes,
                   "chunk_size": chunk_size,
                   "num_anneals": num_anneals},
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "subcarriers_decoded_whole": whole.num_decoded,
        "subcarriers_decoded_chunked": chunked.num_decoded,
        "accounting_identical_to_serial": identical,
    }


def run_suite(scale: str = "quick") -> dict:
    """Run all benchmark pairs at *scale* and return the report."""
    knobs = SCALES[scale]
    return {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": scale,
        "benchmarks": {
            "sa_solver": bench_sa_solver(
                knobs["sa_variables"], knobs["sa_reads"], knobs["sa_sweeps"]),
            "compiled_backend": bench_compiled_backend(
                knobs["dense_variables"], knobs["dense_replicas"],
                knobs["dense_sweeps"]),
            "cluster_sweep_compiled": bench_cluster_sweep_compiled(
                knobs["cluster_variables"], knobs["cluster_chain"],
                knobs["cluster_replicas"], knobs["cluster_sweeps"]),
            "replica_parallel": bench_replica_parallel(
                knobs["rp_variables"], knobs["rp_replicas"],
                knobs["rp_sweeps"]),
            "annealer_engine": bench_annealer_engine(
                knobs["engine_users"], knobs["engine_batches"],
                knobs["engine_anneals"]),
            "frame_decode": bench_frame_decode(
                knobs["decode_users"], knobs["decode_subcarriers"],
                knobs["decode_anneals"]),
            "chunked_frame": bench_chunked_frame(
                knobs["decode_users"], knobs["chunk_subcarriers"],
                knobs["chunk_frame_bytes"], knobs["chunk_size"],
                knobs["chunk_anneals"]),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()

    report = run_suite(args.scale)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    for name, entry in report["benchmarks"].items():
        if entry.get("after_s") is None:
            print(f"{name:16s}  before {entry['before_s']:8.3f}s  "
                  f"after      n/a   (no compiled backend available)")
            continue
        print(f"{name:16s}  before {entry['before_s']:8.3f}s  "
              f"after {entry['after_s']:8.3f}s  "
              f"speedup {entry['speedup']:6.1f}x")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
