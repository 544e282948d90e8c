"""Exporters and the breakdown report over a real traced serving run.

One module-scoped traced run feeds every test: the Chrome trace-event
render (Perfetto-loadable structure, nested overhead/anneal slices, shed
markers), the lossless JSONL round-trip, the serving counters of the
telemetry snapshot, the ``python -m repro.obs.report`` CLI, and the
strict-JSON safety of the telemetry snapshot (satellite of the
NaN fix: ``json.dumps(..., allow_nan=False)`` must round-trip every report).
"""

import json
import math

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.cran.jobs import DecodeJob
from repro.cran.service import CranService
from repro.cran.workers import WorkerPool
from repro.cran.tracing import JOB_STAGES
from repro.decoder.quamax import QuAMaxDecoder
from repro.mimo.system import MimoUplink
from repro.obs import (
    build_report,
    read_jsonl,
    render,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import main as report_main


@pytest.fixture(scope="module")
def decoder():
    return QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                         AnnealerParameters(num_anneals=8))


def make_jobs(count, slack_us=1e6):
    link = MimoUplink(num_users=2, constellation="BPSK")
    rng = np.random.default_rng(7)
    return [
        DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                  channel_use=link.transmit(random_state=rng),
                  arrival_time_us=40.0 * i,
                  deadline_us=40.0 * i + slack_us, seed=500 + i)
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def traced_report(decoder):
    service = CranService(decoder, max_batch=3, max_wait_us=500.0,
                          tracing=True)
    return service.run(make_jobs(10))


class TestChromeTrace:
    def test_structure_loads_as_strict_json(self, traced_report):
        trace = to_chrome_trace(traced_report.trace)
        assert trace["displayTimeUnit"] == "ms"
        # Perfetto rejects NaN/Infinity; the render must be strict JSON.
        encoded = json.dumps(trace, allow_nan=False)
        assert json.loads(encoded) == trace

    def test_pack_spans_with_nested_service_split(self, traced_report):
        trace = to_chrome_trace(traced_report.trace)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        packs = [e for e in spans if e["name"].startswith("pack ")]
        assert packs and all(e["dur"] >= 0.0 for e in spans)
        # Every pack span nests an overhead + anneal split that exactly
        # tiles it, on the same worker track.
        overheads = [e for e in spans if e["name"] == "overhead"]
        anneals = [e for e in spans if e["name"] == "anneal"]
        assert len(overheads) == len(anneals) == len(packs)
        for pack, over, ann in zip(packs, overheads, anneals):
            assert over["tid"] == ann["tid"] == pack["tid"]
            assert over["ts"] == pack["ts"]
            assert ann["ts"] == pytest.approx(over["ts"] + over["dur"])
            assert over["dur"] + ann["dur"] == pytest.approx(pack["dur"])

    def test_queue_spans_and_thread_names(self, traced_report):
        trace = to_chrome_trace(traced_report.trace)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        queued = [e for e in spans if "queued" in e["name"]]
        assert len(queued) == len(traced_report.results)
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M"}
        assert any(name.startswith("worker") for name in names)
        assert any(name.startswith("cell") for name in names)

    def test_write_chrome_trace(self, traced_report, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json",
                                  traced_report.trace)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == to_chrome_trace(traced_report.trace)


class TestJsonl:
    def test_round_trip_is_lossless(self, traced_report, tmp_path):
        path = write_jsonl(tmp_path / "trace.jsonl", traced_report.trace)
        assert read_jsonl(path) == list(traced_report.trace)

    def test_one_strict_json_object_per_line(self, traced_report):
        lines = to_jsonl(traced_report.trace).splitlines()
        assert len(lines) == len(traced_report.trace)
        for line in lines:
            record = json.loads(line)
            assert "name" in record and "ts_us" in record


class TestTelemetrySnapshot:
    """The serving counters are read straight from the JSON telemetry dict;
    the enriched sections are there exactly when a session adds them."""

    def test_serving_counters_are_consistent(self, traced_report):
        telemetry = traced_report.telemetry
        assert telemetry["jobs_completed"] == len(traced_report.results)
        assert sum(telemetry["flush_reasons"].values()) == \
            telemetry["batches_decoded"]
        assert sum(fill * count for fill, count
                   in telemetry["batch_fill_histogram"].items()) == \
            telemetry["jobs_completed"]
        assert {"p50", "p90", "p99"} <= set(telemetry["latency_us"])
        cache = telemetry["sampler_cache"]
        assert cache["hits"] + cache["misses"] == telemetry["batches_decoded"]
        workers = telemetry["workers"]
        assert len(workers["shard_batches"]) == len(workers["shard_depths"])

    def test_bare_snapshot_has_no_enriched_sections(self, decoder):
        snapshot = WorkerPool(decoder).telemetry.snapshot()
        assert snapshot["jobs_completed"] == 0
        assert snapshot["batches_decoded"] == 0
        assert not {"sampler_cache", "workers", "ingress"} & set(snapshot)


class TestReportCli:
    def test_build_report_is_an_exact_decomposition(self, traced_report):
        report = build_report(traced_report.trace)
        completed = len(traced_report.results)
        assert report["jobs"] == {"completed": completed, "shed": 0,
                                  "incomplete": 0}
        # The stages are an exact accounting of the end-to-end latency.
        assert report["max_accounting_error_us"] == pytest.approx(0.0,
                                                                  abs=1e-6)
        shares = sum(report["stages"][stage]["share"]
                     for stage in JOB_STAGES)
        assert shares == pytest.approx(1.0)
        assert all(report["stages"][stage]["count"] == completed
                   for stage in (*JOB_STAGES, "latency"))
        worst = report["critical_path"]
        assert worst and worst[0]["latency_us"] == max(
            entry["latency_us"] for entry in worst)
        assert all(entry["dominant_stage"] in JOB_STAGES for entry in worst)

    def test_cli_renders_breakdown(self, traced_report, tmp_path, capsys):
        path = write_jsonl(tmp_path / "trace.jsonl", traced_report.trace)
        assert report_main([str(path), "--worst", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-stage latency breakdown" in out
        assert "critical path — 3 slowest jobs" in out
        assert "accounting check" in out
        for stage in JOB_STAGES:
            assert stage in out

    def test_cli_rejects_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert report_main([str(empty)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_render_matches_build_report(self, traced_report):
        text = render(build_report(traced_report.trace))
        assert f"jobs: {len(traced_report.results)} completed" in text


class TestSnapshotJsonSafety:
    def test_report_telemetry_is_strict_json(self, traced_report):
        # The satellite of the NaN fix: a full enriched telemetry snapshot
        # (workers, sampler cache, latency stats) survives strict encoding.
        # JSON object keys are strings, so compare through a key-normalising
        # re-encode rather than against the raw dict (the batch-fill
        # histogram is keyed by int fill).
        encoded = json.dumps(traced_report.telemetry, allow_nan=False)
        assert json.loads(encoded) == json.loads(
            json.dumps(traced_report.telemetry))

    def test_empty_run_telemetry_is_strict_json(self, decoder):
        report = CranService(decoder, tracing=True).run([])
        encoded = json.dumps(report.telemetry, allow_nan=False)
        decoded = json.loads(encoded)
        assert decoded["latency_us"]["mean"] is None
        assert decoded["queue_delay_us_mean"] is None

    def test_trace_events_have_no_nan_payloads(self, traced_report):
        for event in traced_report.trace:
            json.dumps(event.to_dict(), allow_nan=False)
            assert math.isfinite(event.ts_us)
