"""Smoke pass over the perf micro-benchmarks (tiny sizes, loose thresholds).

Runs the three before/after pairs of :mod:`bench_core` at the ``quick`` scale
so that a perf regression in the unified Metropolis core or the batched
decode path fails CI loudly, and drops the measured report into
``benchmarks/output/BENCH_core.json`` for the run's artifacts.  The committed
full-scale record lives at ``benchmarks/perf/BENCH_core.json`` and is only
refreshed by running ``bench_core.py --scale full`` by hand.

The thresholds are far below the measured speedups (~100x, ~4x at full
scale) on purpose: this guards against the optimisations being lost, not
against machine noise.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_core  # noqa: E402
import bench_cran  # noqa: E402


@pytest.fixture(scope="module")
def quick_report(output_dir):
    report = bench_core.run_suite("quick")
    path = output_dir / "BENCH_core.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


class TestPerfSmoke:
    def test_report_written(self, quick_report, output_dir):
        recorded = json.loads((output_dir / "BENCH_core.json").read_text())
        assert set(recorded["benchmarks"]) == {
            "sa_solver", "compiled_backend",
            "cluster_sweep_compiled", "replica_parallel", "annealer_engine",
            "frame_decode", "chunked_frame"}

    def test_sa_solver_vectorisation_holds(self, quick_report):
        entry = quick_report["benchmarks"]["sa_solver"]
        # ~16x at quick scale, >100x at full scale; 3x is the loud-failure bar.
        assert entry["speedup"] >= 3.0

    def test_chunked_frame_early_exit_saves_work(self, quick_report):
        entry = quick_report["benchmarks"]["chunked_frame"]
        assert entry["accounting_identical_to_serial"]
        assert (entry["subcarriers_decoded_chunked"]
                < entry["subcarriers_decoded_whole"])
        # Decoding 4 of 12 subcarriers should be clearly faster (~1.4x
        # measured; small chunks give back some batching efficiency); 1.1x
        # is the loud-failure bar, the decoded-count check above is the
        # structural guard.
        assert entry["speedup"] >= 1.1

    def test_engine_refresh_not_slower_than_rebuild(self, quick_report):
        entry = quick_report["benchmarks"]["annealer_engine"]
        # The whole batch cycle is anneal-dominated (expected ratio ~1.0) and
        # both sides are single-shot timings, so give it wide noise headroom
        # on shared CI runners; the stable regression guard is the structure
        # setup itself staying clearly faster than a rebuild.
        assert entry["after_s"] <= entry["before_s"] * 2.0
        assert entry["setup_speedup"] >= 1.5

    def test_batched_decode_faster_and_identical(self, quick_report):
        entry = quick_report["benchmarks"]["frame_decode"]
        assert entry["detections_identical"]
        # Calibration note: ~3-5x through the compiled-kernel era, when the
        # serial side rebuilt its sampler (colouring, CSR templates, entry
        # maps) for every subcarrier.  The structure-keyed warm sampler
        # cache removed that rebuild from the serial baseline too, so the
        # batched/serial ratio legitimately re-centred at ~1.3-1.5x (the
        # remaining win is pack-level marshalling and per-job overhead
        # amortisation).  1.1x is the loud-failure bar; the bit-identity
        # check above is the structural guard.
        assert entry["speedup"] >= 1.1

    def test_compiled_backend_escapes_the_interpreter(self, quick_report):
        entry = quick_report["benchmarks"]["compiled_backend"]
        if not entry["compiled_available"]:
            pytest.skip("no compiled backend (no C compiler) here")
        # Samples must be bit-identical; ~10x measured at quick scale, the
        # full-scale acceptance bar is 5x — 2x is the loud-failure bar for
        # tiny sizes on noisy runners.
        assert entry["samples_identical"]
        assert entry["speedup"] >= 2.0

    def test_cluster_kernels_run_compiled(self, quick_report):
        entry = quick_report["benchmarks"]["cluster_sweep_compiled"]
        if not entry["compiled_available"]:
            pytest.skip("no compiled backend (no C compiler) here")
        # Samples must be bit-identical; ~5-6x measured on the embedded
        # path-chain workload, the full-scale acceptance bar is 3x — 1.5x
        # is the loud-failure bar for tiny sizes on noisy runners.
        assert entry["samples_identical"]
        assert entry["speedup"] >= 1.5

    def test_replica_parallel_identical_and_scales(self, quick_report):
        entry = quick_report["benchmarks"]["replica_parallel"]
        if not entry["compiled_available"]:
            pytest.skip("no compiled backend (no C compiler) here")
        # The structural guard, which holds on every box: counter-mode
        # samples are bit-identical at every thread count.  No wall-clock
        # bar here — ``os.cpu_count()`` overstates what shared boxes
        # deliver, so the thread curve is recorded, and the throughput gate
        # is the full-scale >1.5x check of the CI ``threads`` entry.
        assert entry["samples_identical_across_threads"]
        assert set(entry["threads"]) == {"1", "2", "4"}


class TestTracingOverhead:
    """Lifecycle tracing observes the serving path without changing it.  Its
    cost is an end-to-end figure (``cran.tracing.overhead_share`` in
    ``benchmarks/e2e``), not a wall-clock bar here."""

    def test_trace_is_recorded_and_bit_identical(self):
        entry = bench_cran.bench_trace_overhead(bench_cran.SCALES["quick"])
        assert entry["detections_identical"]
        # Every lifecycle event was recorded: admit + complete per job,
        # plus the four pack span events amortised over the pack's fill.
        assert entry["events_per_job"] >= 2.0


class TestFaultRecovery:
    """Retrying ~5% failed packs must not lose jobs or change bits."""

    def test_fault_recovery_is_lossless(self):
        entry = bench_cran.bench_fault_recovery(bench_cran.SCALES["quick"])
        assert entry["no_jobs_lost"]
        assert entry["detections_identical"]
        assert entry["packs_failed"] >= 1
        assert entry["jobs_retried"] >= 1
