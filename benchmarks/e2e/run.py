#!/usr/bin/env python3
"""The repo's benchmark: five named workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--output PATH] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every measurement happens in a fresh ``child.py`` process, launched one at a
time from here.  Per workload, the end-to-end phase (``--trace 0``) runs

* on a fresh checkout, one discarded set-up child that compiles the C
  kernels into ``.bench_build/``,
* ``SETUP_ONLY_CHILDREN`` children that only set up, and
* ``MEASURING_CHILDREN`` children that set up, replay once untimed and then
  replay for their share of ``--seconds`` with tracing off;

the per-layer phase (``--trace 1``) runs one child that alternates untraced,
span-traced and event-traced replays and then the probes.  Without
``--trace`` both phases run.  This process checks the outputs (see
``gate``), prints every metric by name with its unit and sample count,
stores the result and exits non-zero if any check failed.  With ``--trace``
it also prints, per workload, the one-line JSON document the driver reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"
HISTORY = HERE / "BENCH_history.jsonl"
#: The program's compiled-kernel cache, kept inside the checkout.
KERNEL_CACHE = ROOT / ".bench_build" / "cache"

SETUP_ONLY_CHILDREN = 3
MEASURING_CHILDREN = 2
#: Burns per process of the effective-parallelism probe (~0.6 s each).
PARALLELISM_BURNS = 200
SMOKE_PARALLELISM_BURNS = 5
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: Functions of the inputs only: they must repeat exactly for a fixed seed.
DETERMINISTIC = ("virtual_latency_us_p99", "deadline_met_share",
                 "bit_accuracy", "completed_share")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["XDG_CACHE_HOME"] = str(KERNEL_CACHE)
    # One load-generating thread and nothing else: BLAS helper threads would
    # compete for the ~1 core this box has.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(names: Sequence[str], args, phases: str,
              seconds: float = 0.0) -> List[dict]:
    """Run ``child.py`` over *names* to the end; its per-workload documents.
    A span-traced child leaves ``trace_<workload>.json`` beside the result."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workloads", ",".join(names), "--seed", str(args.seed),
               "--seconds", repr(seconds), "--phases", phases,
               "--trace-dir", str(args.output.parent)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child timed out: {' '.join(command)}")
    if done.returncode != 0:
        raise BenchmarkError(f"child failed ({done.returncode}): "
                             f"{' '.join(command)}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def effective_parallelism(burns: int) -> float:
    """Two concurrent calibration burns against one: 2 on two free cores,
    1 when the box delivers a single core whatever ``nproc`` says."""
    command = [sys.executable, str(HERE / "hostcal.py"), str(burns)]

    def mean_burn_s(count: int) -> float:
        running = [subprocess.Popen(command, stdout=subprocess.PIPE,
                                    text=True) for _ in range(count)]
        outputs = [process.communicate(timeout=CHILD_TIMEOUT_S)[0]
                   for process in running]
        if any(process.returncode for process in running):
            raise BenchmarkError("calibration burn failed")
        return statistics.mean(float(output) for output in outputs)

    alone = mean_burn_s(1)
    return 2.0 * alone / mean_burn_s(2)


# --------------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------------- #
def quartiles(values: Sequence[float]):
    if len(values) < 2:  # ``--smoke`` measures one round
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: an observed value, never an interpolation."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def timing(values: Sequence[float], raw: Sequence[float], unit: str,
           headline: Optional[float] = None, samples: Optional[int] = None):
    q1, median, q3 = quartiles(values)
    return {"value": median if headline is None else headline, "unit": unit,
            "q1": q1, "q3": q3, "samples": samples or len(values),
            "raw_median": statistics.median(raw), "per_round": list(values)}


def end_to_end(children: List[dict], units: Dict[str, str]) -> dict:
    """The eight end-to-end metrics of one workload from its children."""
    rounds = [r for child in children for r in child.get("rounds", ())]
    normal = [r["wall_s"] * r["speed_factor"] for r in rounds]
    stalls = [stall for r in rounds for stall in r["stalls_ms"]]
    raw_stalls = [stall for r in rounds for stall in r["raw_stalls_ms"]]
    metrics = {
        "jobs_per_s": timing(
            [r["completed"] / wall for r, wall in zip(rounds, normal)],
            [r["completed"] / r["wall_s"] for r in rounds],
            units["jobs_per_s"]),
        "setup_s": timing(
            [c["setup_s"] * c["setup_speed_factor"] for c in children],
            [c["setup_s"] for c in children], units["setup_s"]),
    }
    for name, share in (("pack_stall_ms_p50", 0.5),
                        ("pack_stall_ms_p95", 0.95)):
        per_round = [percentile(r["stalls_ms"], share) for r in rounds]
        metrics[name] = timing(
            per_round, [percentile(raw_stalls, share)], units[name],
            headline=percentile(stalls, share), samples=len(stalls))
    for name in DETERMINISTIC:
        metrics[name] = {"value": rounds[0]["deterministic"][name],
                         "unit": units[name], "samples": len(rounds)}
    return metrics


def per_layer(child: dict, parallelism: float, units: Dict[str, str]) -> dict:
    values = dict(child["layers"]["metrics"])
    values["host.effective_parallelism"] = parallelism
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def all_rounds(child: dict) -> List[dict]:
    return child.get("rounds", []) + child.get("layer_rounds", [])


# --------------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------------- #
def gate(name: str, children: Iterable[dict]) -> List[str]:
    """Every reason workload *name*'s outputs are not to be trusted."""
    reasons: List[str] = []
    rounds = []
    for child in children:
        if not child["matches_serial_decode"]:
            reasons.append("served detections differ from a serial decode")
        if not child.get("matches_twin", True):
            reasons.append("detections differ from the twin workload's on "
                           "the shared jobs")
        layers = child.get("layers")
        if layers and not layers["process_identical"]:
            reasons.append("process-pool detections differ from inline")
        if layers and layers["closure_error_us"] > 1.0:
            reasons.append(f"span self times miss the replay wall by "
                           f"{layers['closure_error_us']:.3f} us")
        rounds += all_rounds(child)
    if not rounds:
        return reasons + ["no measured round"]
    for r in rounds:
        if r["completed"] + r["shed"] != r["submitted"]:
            reasons.append(f"job accounting: {r['completed']} completed + "
                           f"{r['shed']} shed != {r['submitted']} submitted")
    if len({r["digest"] for r in rounds}) != 1:
        reasons.append("detection digest differs between rounds")
    for metric in DETERMINISTIC:
        if len({r["deterministic"][metric] for r in rounds}) != 1:
            reasons.append(f"{metric} differs between rounds")
    return [f"{name}: {reason}" for reason in dict.fromkeys(reasons)]


# --------------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------------- #
def launch_children(name: str, args) -> List[dict]:
    """Run the children of workload *name*'s requested phases in turn."""
    if not any(KERNEL_CACHE.rglob("*.so")):
        run_child([name], args, phases="")  # untimed: compiles the kernels
    children = []
    if args.trace != 1:
        children += [run_child([name], args, phases="")[0]
                     for _ in range(SETUP_ONLY_CHILDREN)]
        children += [run_child([name], args, "e2e",
                               args.seconds / MEASURING_CHILDREN)[0]
                     for _ in range(MEASURING_CHILDREN)]
    if args.trace != 0:
        # Both phases in one command: the per-layer one gets half the time,
        # which keeps a workload under 30 s.
        children += run_child(
            [name], args, "layers",
            args.seconds if args.trace == 1 else args.seconds / 2)
    return children


def summarise(name: str, children: List[dict], trace: Optional[int],
              units: Dict[str, str], parallelism: Optional[float]) -> dict:
    """Workload *name*'s entry in the result, from its children."""
    measured = "layer_rounds" if trace == 1 else "rounds"
    rounds = [r for child in children for r in child.get(measured, ())]
    entry = {
        "violations": gate(name, children),
        "attempted": sum(r["submitted"] for r in rounds),
        "failed": sum(r["submitted"] - r["completed"] for r in rounds),
        "digest": rounds[0]["digest"] if rounds else None}
    if trace != 1:
        entry["end_to_end"] = end_to_end(children, units)
        entry["host"] = {
            "speed_factor": statistics.median(
                r["speed_factor"] for r in rounds),
            "calib_burn_ms": 1e3 * statistics.median(
                r["burn_mean_s"] for r in rounds)}
    if trace != 0:
        traced = next(c for c in children if "layers" in c)
        entry["per_layer"] = per_layer(traced, parallelism, units)
        entry["layer_table"] = traced["layers"]["table"]
        entry["traced_wall_ms"] = traced["layers"]["traced_wall_ms"]
    for child in children:  # pooled above; 400 floats a round otherwise
        for r in all_rounds(child):
            del r["stalls_ms"], r["raw_stalls_ms"]
    entry["children"] = children
    return entry


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def print_workload(name: str, why: str, entry: dict) -> None:
    print(f"\n== {name} — {why}")
    for metric, m in entry.get("end_to_end", {}).items():
        spread = (f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                  f"raw {m['raw_median']:.6g}" if "q1" in m else "")
        print(f"  {metric:<26}{m['value']:>14.6g} {m['unit']:<12}"
              f"n={m['samples']}{spread}")
    if "per_layer" not in entry:
        return
    print(f"  layer table of the traced replay "
          f"({entry['traced_wall_ms']:.3f} ms host-normalised wall; "
          f"bench.replay is the residual no span covers)")
    for row in entry["layer_table"]:
        print(f"    {row['span']:<36}{row['calls']:>9.1f} calls"
              f"{row['self_ms']:>12.3f} ms{100 * row['share']:>8.2f} %")
    total = sum(row["share"] for row in entry["layer_table"])
    print(f"    {'sum':<36}{'':>15}"
          f"{sum(r['self_ms'] for r in entry['layer_table']):>12.3f} ms"
          f"{100 * total:>8.2f} %")
    for metric, m in entry["per_layer"].items():
        print(f"  {metric:<44}{m['value']:>16.6g} {m['unit']}")


def driver_line(entry: dict, trace: int) -> str:
    """The one-line document of the driver's contract."""
    metrics = entry["per_layer"] if trace else entry["end_to_end"]
    return json.dumps({
        "correct": not entry["violations"],
        "attempted": entry["attempted"], "failed": entry["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}})


def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def append_history(document: dict) -> None:
    line = {"time": document["time"], "git_sha": document["git_sha"],
            "seed": document["seed"], "host": document["host"],
            "end_to_end": {
                name: {metric: m["value"]
                       for metric, m in entry["end_to_end"].items()}
                for name, entry in document["workloads"].items()}}
    with HISTORY.open("a", encoding="utf-8") as history:
        history.write(json.dumps(line) + "\n")


# --------------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------------- #
def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print B against A per (end-to-end metric, workload); 1 if any
    regressed.

    ``unresolved``: the rounds' spread (quartile distance over median, the
    wider of the two files) exceeds the bound and the two files' rounds
    overlap, so the bound cannot be checked with these runs.
    """
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    regressed = 0
    print(f"{'workload':<18}{'metric':<26}{'A (base)':>14}{'B':>14}"
          f"{'B/A':>9}{'spread':>9}{'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            ma = a["workloads"][name]["end_to_end"][metric["name"]]
            mb = b["workloads"][name]["end_to_end"][metric["name"]]
            ratio = mb["value"] / ma["value"]
            worse_by = (ratio - 1.0 if metric["better"] == "lower"
                        else 1.0 - ratio)
            spread = max((m["q3"] - m["q1"]) / m["value"] if "q1" in m
                         else 0.0 for m in (ma, mb))
            rounds_a, rounds_b = (m.get("per_round", [m["value"]])
                                  for m in (ma, mb))
            overlap = (min(rounds_a) <= max(rounds_b)
                       and min(rounds_b) <= max(rounds_a))
            if (metric["name"] in DETERMINISTIC and same_seed
                    and ma["value"] != mb["value"]):
                verdict = "regressed (must repeat exactly for one seed)"
            elif spread > metric["bound"] and overlap:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            regressed += verdict.startswith("regressed")
            print(f"{name:<18}{metric['name']:<26}{ma['value']:>14.6g}"
                  f"{mb['value']:>14.6g}{ratio:>9.4f}{spread:>9.4f}"
                  f"{metric['bound']:>7.2f}  {verdict}")
    return 1 if regressed else 0


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload and phase; "
                             "default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--output", type=Path, help="result file; default: "
                        "benchmarks/e2e/results/run_seed<N>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round, one child: checks the "
                             "harness, measures nothing")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = [args.workload] if args.workload else list(why)
    if args.workload not in (None, *why):
        parser.error(f"unknown workload {args.workload!r}; one of {list(why)}")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no program to measure: {ROOT / 'src'} "
                             "does not hold the repro package")
    if args.output is None:
        args.output = RESULTS / f"run_seed{args.seed}.json"
    args.output.parent.mkdir(parents=True, exist_ok=True)

    parallelism = None
    if args.trace != 0:
        parallelism = effective_parallelism(
            SMOKE_PARALLELISM_BURNS if args.smoke else PARALLELISM_BURNS)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.smoke:
        # One process runs the requested phases of every workload.
        phases = {None: "e2e,layers", 0: "e2e", 1: "layers"}[args.trace]
        smoke_documents = {
            doc["workload"]: doc
            for doc in run_child(names, args, phases, args.seconds)}
    document = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "git_sha": git_sha(), "seed": args.seed,
                "smoke": args.smoke, "seconds": args.seconds,
                "host": {"effective_parallelism": parallelism},
                "workloads": {}}
    for name in names:
        children = ([smoke_documents[name]] if args.smoke
                    else launch_children(name, args))
        entry = summarise(name, children, args.trace, units, parallelism)
        document["workloads"][name] = entry
        print_workload(name, why[name], entry)
        if args.trace is not None:
            print(driver_line(entry, args.trace), flush=True)
    factors = [entry["host"]["speed_factor"]
               for entry in document["workloads"].values() if "host" in entry]
    if factors:
        document["host"]["speed_factor"] = statistics.median(factors)
    violations = [reason for entry in document["workloads"].values()
                  for reason in entry["violations"]]
    document["correct"] = not violations
    args.output.write_text(json.dumps(document, indent=1) + "\n")
    if (not args.smoke and args.trace is None and not args.workload
            and not violations):
        append_history(document)
    for reason in violations:
        print(f"INCORRECT: {reason}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(2)
