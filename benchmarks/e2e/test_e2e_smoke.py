"""Smoke pass over the benchmark harness: tiny sizes, one round, no clock.

Checks that ``run.py`` emits exactly the names ``BENCHMARK.json`` fixes, that
the metrics which are functions of the inputs repeat for one seed and move
with another, that every span tree closes, and that the correctness gate
trips when a digest or the job accounting is tampered with.  Nothing here
asserts a wall-clock value.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

# Loaded by path under a private name: ``run`` is too common a module name
# to put this directory on ``sys.path`` for the whole test session.
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(output: Path, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--output", str(output), *extra],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(output.read_text())


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def smoke(smoke_dir):
    """Both phases of every workload; span traces land beside the result."""
    return run_smoke(smoke_dir / "smoke.json")


def deterministic(document: dict) -> dict:
    return {name: ([entry["end_to_end"][metric]["value"]
                    for metric in bench.DETERMINISTIC], entry["digest"])
            for name, entry in document["workloads"].items()}


def test_names_equal_benchmark_json(smoke):
    assert smoke["correct"]
    assert list(smoke["workloads"]) == WORKLOADS
    for entry in smoke["workloads"].values():
        assert set(entry["end_to_end"]) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {
            m["name"] for m in SPEC["per_layer"]}


def test_deterministic_metrics_follow_the_seed_only(smoke, tmp_path):
    again = run_smoke(tmp_path / "again.json", "--trace", "0")
    other = run_smoke(tmp_path / "other.json", "--trace", "0", "--seed", "1")
    assert deterministic(again) == deterministic(smoke)
    for name in WORKLOADS:
        assert deterministic(other)[name] != deterministic(smoke)[name]


def test_every_span_tree_closes(smoke, smoke_dir):
    for name in WORKLOADS:
        spans = json.loads(
            (smoke_dir / f"trace_{name}.json").read_text())["spans"]
        own = [span["end_us"] - span["start_us"] for span in spans]
        roots = [span for span in spans if span["parent"] < 0]
        assert len(roots) == 1
        for span, duration in zip(spans, list(own)):
            assert span["end_us"] >= span["start_us"] > -1.0
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start_us"] <= span["start_us"]
                assert span["end_us"] <= parent["end_us"]
                own[span["parent"]] -= duration
        assert min(own) > -1e-6
        assert abs(sum(own) - (roots[0]["end_us"] - roots[0]["start_us"])) < 1.0
        assert smoke["workloads"][name]["children"][0]["layers"][
            "closure_error_us"] < 1.0


def test_gate_trips_on_tampered_outputs(smoke):
    children = smoke["workloads"]["saturating_qpsk"]["children"]
    assert bench.gate("saturating_qpsk", children) == []

    corrupted = copy.deepcopy(children)
    digest = corrupted[0]["rounds"][0]["digest"]
    corrupted[0]["rounds"][0]["digest"] = digest[::-1]
    assert any("digest" in reason
               for reason in bench.gate("saturating_qpsk", corrupted))

    lost = copy.deepcopy(children)
    lost[0]["rounds"][0]["completed"] -= 1
    assert any("job accounting" in reason
               for reason in bench.gate("saturating_qpsk", lost))
