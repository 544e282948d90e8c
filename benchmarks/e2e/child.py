"""One measured process of the benchmark; ``run.py`` launches these one at a
time and reads the JSON document each prints as its last line.

A child sets its workload up (timed from process start, imports included),
checks the first served pack against a serial decode, replays the whole load
once untimed, and then measures for ``--seconds``:

* ``--phases e2e``: untraced replays;
* ``--phases layers``: untraced, span-traced and event-traced replays in
  turn, then the process-pool, pickle-size and counter-RNG probes.

Load is closed-loop from this one thread: the next job is submitted when
``ServiceSession.submit`` returns.  The same thread runs the host
calibration burns between submissions (see ``hostcal``).
"""

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up pays them

import argparse
import contextlib
import hashlib
import json
import pickle
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import hostcal
import spans as spanlib

#: Burns per calibration point of the set-up phase.
SETUP_BURNS = 8


@dataclass
class Replay:
    """One pass of a job list through a fresh ``CranService`` session."""

    #: ``session()`` ... ``close()`` less the calibration burns, seconds.
    wall_s: float
    #: ``session()`` alone (a process pool starts its workers here).
    open_s: float
    #: Wall of each ``submit`` that flushed at least one pack.
    stalls_s: List[float]
    #: Per stall, how many calibration burns had run when it began.
    stall_marks: List[int]
    #: The calibration burns interleaved with the submissions.
    burns_s: List[float]
    report: object
    spans: Optional[List[list]] = None


def replay(workload, jobs=None, traced: bool = False, calibrate: bool = True,
           **service) -> Replay:
    from repro.cran.service import CranService

    jobs = workload.jobs if jobs is None else jobs
    service = CranService(workload.decoder, **{**workload.service, **service})
    recorder = spanlib.SpanRecorder() if traced else None
    burn = (recorder.wrap(hostcal.burn, spanlib.CALIBRATION) if traced
            else hostcal.burn)
    stalls: List[float] = []
    stall_marks: List[int] = []
    burns: List[float] = []
    clock = time.perf_counter
    with recorder.replay() if traced else contextlib.nullcontext():
        start = clock()
        session = service.session()
        opened = clock()
        next_burn = opened if calibrate else float("inf")
        for job in jobs:
            if clock() >= next_burn:
                burns.append(burn())
                next_burn = clock() + hostcal.BURN_GAP_S
            depth = session.queue_depth
            before = clock()
            session.submit(job)
            elapsed = clock() - before
            # The queue did not grow, so this submit flushed >= 1 pack and
            # (inline pool) decoded it before returning: the head-of-line
            # block an ingress feeder sees.
            if session.queue_depth <= depth:
                stalls.append(elapsed)
                stall_marks.append(len(burns))
        report = session.close()
        wall = clock() - start - sum(burns)
    return Replay(wall, opened - start, stalls, stall_marks, burns, report,
                  recorder.spans if traced else None)


def digest(results) -> str:
    """SHA-256 over job-id-ordered detection bits."""
    sha = hashlib.sha256()
    for result in results:  # ServiceReport orders results by job id
        sha.update(result.job.job_id.to_bytes(8, "little"))
        sha.update(np.asarray(result.result.detection.bits,
                              dtype=np.uint8).tobytes())
    return sha.hexdigest()


def matches_serial_decode(workload, report) -> bool:
    """Served detections equal a one-job decode from the job's own stream."""
    for result in (report.results[0], report.results[-1]):
        job = result.job
        alone = workload.decoder.detect_batch(
            [job.channel_use], random_states=[job.rng()], rng=job.rng_mode)[0]
        if not np.array_equal(alone.detection.bits,
                              result.result.detection.bits):
            return False
    return True


def measure(workload, seconds: float, variants: Dict[str, dict]) -> List[dict]:
    """Replay in turn under each variant until *seconds* are used (whole
    cycles only, at least one)."""
    rounds: List[dict] = []
    phase_start = time.perf_counter()
    while True:
        for name, options in variants.items():
            played = replay(workload, **options)
            report = played.report
            telemetry = report.telemetry
            submitted = len(workload.jobs)
            completed = len(report.results)
            rounds.append({
                "variant": name,
                "wall_s": played.wall_s,
                "raw_stalls_ms": [1e3 * s for s in played.stalls_s],
                "stalls_ms": [
                    1e3 * stall * factor for stall, factor in zip(
                        played.stalls_s, hostcal.local_speed_factors(
                            played.burns_s, played.stall_marks))],
                "burn_mean_s": statistics.mean(played.burns_s),
                "speed_factor": hostcal.speed_factor(played.burns_s),
                "submitted": submitted,
                "completed": completed,
                "shed": len(report.shed_jobs),
                "digest": digest(report.results),
                # Functions of the inputs only: they repeat exactly.
                "deterministic": {
                    "virtual_latency_us_p99": telemetry["latency_us"]["p99"],
                    "deadline_met_share": (
                        1.0 - telemetry["deadline_miss_rate"]),
                    "bit_accuracy": 1.0 - report.bit_error_rate(),
                    "completed_share": completed / submitted,
                },
                "spans": played.spans,
                "telemetry": telemetry,
                "trace_events": len(report.trace or ()),
            })
        elapsed = time.perf_counter() - phase_start
        cycles = len(rounds) // len(variants)
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return rounds


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
def _overhead_share(rounds: List[dict], variant: str) -> float:
    """Median over cycles of *variant*'s host-normalised wall against the
    untraced replay of the same cycle (neighbours in time share a host
    speed level), less one."""
    walls = {name: [r["wall_s"] * r["speed_factor"]
                    for r in rounds if r["variant"] == name]
             for name in ("plain", variant)}
    return statistics.median(
        traced / plain
        for traced, plain in zip(walls[variant], walls["plain"])) - 1.0


def process_probe(workload, jobs) -> dict:
    """The same jobs through ``mode="process", num_workers=1`` and inline,
    twice each in turn; pool start (``session()``) is timed separately.
    No calibration burns: they would compete with the worker for the core.
    """
    inline, process, start = [], [], []
    identical = True
    for _ in range(2):
        played = replay(workload, jobs, calibrate=False)
        inline.append(played.wall_s - played.open_s)
        pooled = replay(workload, jobs, calibrate=False,
                        num_workers=1, mode="process")
        process.append(pooled.wall_s - pooled.open_s)
        start.append(pooled.open_s)
        identical &= (digest(played.report.results)
                      == digest(pooled.report.results))
    return {"overhead_share": (statistics.median(process)
                               / statistics.median(inline) - 1.0),
            "pool_start_ms": statistics.median(start) * 1e3,
            "identical": identical}


def pickle_bytes_per_pack(workload, jobs) -> float:
    from repro.cran.scheduler import EDFBatchScheduler

    scheduler = EDFBatchScheduler(max_batch=workload.service["max_batch"],
                                  max_wait_us=workload.service["max_wait_us"])
    batches = [batch for job in jobs for batch in scheduler.submit(job)]
    batches += scheduler.drain()
    return statistics.mean(len(pickle.dumps(batch)) for batch in batches)


def sweep_s_per_pack(workload, jobs, rng_mode: str) -> float:
    jobs = [replace(job, rng_mode=rng_mode) for job in jobs]
    replay(workload, jobs)  # warm this discipline's kernels and cache entries
    played = replay(workload, jobs, traced=True)
    table = spanlib.layer_table(played.spans)
    return (table["annealer.engine.anneal"]["self_s"]
            * hostcal.speed_factor(played.burns_s)
            / played.report.telemetry["batches_decoded"])


def layer_metrics(workload, rounds: List[dict]) -> dict:
    """Pool the span-traced rounds into the layer table and its metrics."""
    traced = [r for r in rounds if r["variant"] == "spans"]
    jobs = len(workload.jobs) * len(traced)
    last = traced[-1]["telemetry"]
    packs_per_round = last["batches_decoded"]
    packs = packs_per_round * len(traced)
    # Host-normalise each round before pooling; rows and wall scale alike,
    # so the table still closes.
    table: Dict[str, Dict[str, float]] = {}
    wall = 0.0
    closure_error_us = 0.0
    for r in traced:
        factor = r["speed_factor"]
        rows = spanlib.layer_table(r["spans"])
        round_wall = spanlib.replay_wall_s(r["spans"])
        wall += round_wall * factor
        closure_error_us = max(closure_error_us, 1e6 * abs(
            sum(row["self_s"] for row in rows.values()) - round_wall))
        for name, row in rows.items():
            pooled = table.setdefault(name,
                                      {"calls": 0, "self_s": 0.0, "work": 0})
            pooled["calls"] += row["calls"]
            pooled["self_s"] += row["self_s"] * factor
            pooled["work"] += row["work"]

    def self_s(*names: str) -> float:
        return sum(table[name]["self_s"] for name in names if name in table)

    def calls(name: str) -> int:
        return table[name]["calls"] if name in table else 0

    def per_call(name: str) -> float:
        return self_s(name) / calls(name) if calls(name) else 0.0

    probe_jobs = workload.jobs[:max(len(workload.jobs) // 4,
                                    workload.service["max_batch"])]
    process = process_probe(workload, probe_jobs)
    counter_tax = (sweep_s_per_pack(workload, probe_jobs, "counter")
                   / sweep_s_per_pack(workload, probe_jobs, "sequential"))
    cache = last["sampler_cache"]
    sweep = "annealer.engine.anneal"
    metrics = {
        "cran.service.self_us_per_job": 1e6 / jobs * self_s(
            "cran.service.submit", "cran.service.close"),
        "cran.service.residual_share": self_s(spanlib.ROOT) / wall,
        "cran.scheduler.self_us_per_job": 1e6 / jobs * self_s(
            "cran.scheduler.submit", "cran.scheduler.advance",
            "cran.scheduler.drain"),
        "cran.scheduler.packs": packs_per_round,
        "cran.scheduler.mean_batch_fill": last["mean_batch_fill"],
        "cran.scheduler.flush_timeout_share": (
            last["flush_reasons"].get("timeout", 0) / packs_per_round),
        "cran.scheduler.queue_delay_us_mean": last["queue_delay_us_mean"],
        "cran.workers.self_us_per_pack": 1e6 / packs * self_s(
            "cran.workers.submit"),
        "cran.workers.process_overhead_share": process["overhead_share"],
        "cran.workers.pickle_bytes_per_pack": pickle_bytes_per_pack(
            workload, probe_jobs),
        "cran.tracing.overhead_share": _overhead_share(rounds, "events"),
        "cran.tracing.events_per_job": (
            next(r["trace_events"] for r in rounds
                 if r["variant"] == "events") / len(workload.jobs)),
        "decoder.quamax.self_us_per_pack": 1e6 / packs * self_s(
            "decoder.quamax.detect_batch"),
        "transform.reduction.us_per_job": 1e6 / jobs * self_s(
            "transform.reduction.reduce"),
        "annealer.machine.self_us_per_pack": 1e6 / packs * self_s(
            "annealer.machine.run_batch"),
        "annealer.machine.ice_us_per_pack": 1e6 / packs * self_s(
            "annealer.ice.perturb"),
        "annealer.machine.sampler_cache_hit_share": (
            cache["hits"] / max(1, cache["hits"] + cache["misses"])),
        "annealer.embedded.embed_us_per_job": 1e6 / jobs * self_s(
            "annealer.embedded.embed_ising"),
        "annealer.engine.builds": calls("annealer.engine.build") / len(traced),
        "annealer.engine.build_ms_per_call": 1e3 * per_call(
            "annealer.engine.build"),
        "annealer.engine.rebinds": (calls("annealer.engine.rebind")
                                    / len(traced)),
        "annealer.engine.rebind_us_per_call": 1e6 * per_call(
            "annealer.engine.rebind"),
        "annealer.engine.anneal_calls": calls(sweep) / len(traced),
        "annealer.engine.sweep_ms_per_pack": 1e3 / packs * self_s(sweep),
        "annealer.engine.sweep_share": self_s(sweep) / wall,
        "annealer.engine.spin_updates_per_s": (
            table[sweep]["work"] / self_s(sweep)),
        "annealer.engine.counter_tax": counter_tax,
        "annealer.unembed.us_per_job": 1e6 / jobs * self_s(
            "annealer.unembed.unembed_samples"),
        "ising.solver.aggregate_us_per_job": 1e6 / jobs * self_s(
            "ising.solver.aggregate_samples"),
        "host.calib_burn_ms": 1e3 * statistics.median(
            r["burn_mean_s"] for r in rounds),
        "host.speed_factor": statistics.median(
            r["speed_factor"] for r in rounds),
        "bench.span_overhead_share": _overhead_share(rounds, "spans"),
    }
    rows = [{"span": name, "calls": row["calls"] / len(traced),
             "self_ms": 1e3 * row["self_s"] / len(traced),
             "share": row["self_s"] / wall}
            for name, row in sorted(table.items(),
                                    key=lambda item: -item[1]["self_s"])]
    return {"metrics": metrics, "table": rows,
            "traced_wall_ms": 1e3 * wall / len(traced),
            "closure_error_us": closure_error_us,
            "process_pool_start_ms": process["pool_start_ms"],
            "process_identical": process["identical"]}


# --------------------------------------------------------------------------- #
def run_workload(name: str, args, first: bool) -> dict:
    """Set one workload up, then measure it in the requested phases.

    Set-up is timed in three steps with a burst of burns after each, so it
    is scaled by the host speed it actually ran at.  Only the first workload
    of a process pays the imports; ``--smoke`` runs several per process.
    """
    burns: List[float] = []
    burn_s = 0.0

    def calibration_point() -> None:
        nonlocal burn_s
        before = time.perf_counter()
        burns.extend(hostcal.burn() for _ in range(SETUP_BURNS))
        burn_s += time.perf_counter() - before

    setup_start = _PROCESS_START if first else time.perf_counter()
    import workloads  # pulls in ``repro``
    calibration_point()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.BUILDERS[name](args.seed, sizes)
    calibration_point()
    first_pack = replay(workload,
                        workload.jobs[:workload.service["max_batch"]],
                        calibrate=False).report
    calibration_point()
    setup_s = time.perf_counter() - setup_start - burn_s

    result = {"workload": name, "seed": args.seed, "setup_s": setup_s,
              "setup_speed_factor": hostcal.speed_factor(burns),
              "matches_serial_decode": matches_serial_decode(workload,
                                                             first_pack)}
    if not args.phases:
        return result
    # Untimed: fills the sampler cache, settles the heap.
    warm = replay(workload, calibrate=False).report
    if workload.twin_service:
        twin = replay(workload, calibrate=False,
                      **workload.twin_service).report
        result["matches_twin"] = (digest(warm.results)
                                  == digest(twin.results))
    if "e2e" in args.phases:
        result["rounds"] = measure(workload, args.seconds, {"plain": {}})
    if "layers" in args.phases:
        rounds = measure(workload, args.seconds, {
            "plain": {}, "spans": {"traced": True},
            "events": {"tracing": True}})
        result["layers"] = layer_metrics(workload, rounds)
        result["layer_rounds"] = rounds
        if args.trace_dir:
            traced = [r for r in rounds if r["variant"] == "spans"]
            path = Path(args.trace_dir) / f"trace_{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "workload": name, "seed": args.seed,
                "spans": spanlib.export(traced[-1]["spans"])}))
    for rounds in (result.get("rounds", []), result.get("layer_rounds", [])):
        for r in rounds:  # bulky, and already folded into the numbers above
            del r["spans"], r["telemetry"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phases", default="",
                        help="comma-separated: e2e, layers; empty = set-up only")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)
    args.phases = [phase for phase in args.phases.split(",") if phase]
    results = [run_workload(name, args, first=index == 0)
               for index, name in enumerate(args.workloads.split(","))]
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
