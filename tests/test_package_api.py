"""Tests for the top-level package API and the constants module."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import constants
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler


class TestPublicApi:
    def test_version(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"{name} missing from repro"

    def test_key_classes_exposed(self):
        assert repro.QuAMaxDecoder is not None
        assert repro.QuantumAnnealerSimulator is not None
        assert repro.MimoUplink is not None
        assert repro.SphereDecoder is not None

    @pytest.mark.parametrize("module", [
        "repro.modulation", "repro.channel", "repro.mimo", "repro.detectors",
        "repro.ising", "repro.transform", "repro.annealer", "repro.decoder",
        "repro.metrics", "repro.experiments", "repro.utils",
    ])
    def test_subpackages_importable(self, module):
        assert importlib.import_module(module) is not None

    def test_experiment_drivers_expose_run_and_format(self):
        from repro import experiments
        drivers = [experiments.table1, experiments.table2, experiments.fig04,
                   experiments.fig05, experiments.fig06, experiments.fig07,
                   experiments.fig08, experiments.fig09, experiments.fig10,
                   experiments.fig11, experiments.fig12, experiments.fig13,
                   experiments.fig14, experiments.fig15]
        for driver in drivers:
            assert callable(driver.run)
            assert callable(driver.format_result)

    #: Public names pinned exactly: a name is added by editing this list,
    #: and one that no workload, figure or example reaches is deleted.
    ALL = {
        "repro": {
            "__version__", "Constellation", "BPSK", "QPSK", "QAM16", "QAM64",
            "get_constellation", "RayleighChannel", "RandomPhaseChannel",
            "TraceChannel", "ArgosLikeTraceGenerator", "ChannelTrace",
            "MimoUplink", "Frame", "frame_error_rate_from_ber",
            "ZeroForcingDetector", "MMSEDetector", "ExhaustiveMLDetector",
            "SphereDecoder", "IsingModel", "QUBOModel",
            "BruteForceIsingSolver", "SimulatedAnnealingSolver",
            "MLToIsingReducer", "build_ml_ising", "build_ml_qubo",
            "ChimeraGraph", "TriangleCliqueEmbedder", "Embedding", "ICEModel",
            "AnnealSchedule", "AnnealerParameters", "AnnealResult",
            "QuantumAnnealerSimulator", "QuAMaxDecoder",
            "OFDMDecodingPipeline", "DecodeJob", "JobResult",
            "EDFBatchScheduler", "WorkerPool", "PoissonTrafficGenerator",
            "TelemetryRecorder", "CranService", "ServiceReport",
            "InstanceSolutionProfile", "time_to_solution"},
        "repro.channel": {
            "ChannelModel", "RayleighChannel", "RandomPhaseChannel", "awgn",
            "noise_variance_for_snr", "snr_db_to_linear",
            "ArgosLikeTraceGenerator", "ChannelTrace", "TraceChannel"},
        "repro.metrics": {
            "bit_errors", "bit_error_rate", "DistributionSummary",
            "summarize", "time_to_solution", "tts_from_run",
            "InstanceSolutionProfile", "expected_ber_after_anneals",
            "time_to_ber", "time_to_fer"},
        "repro.annealer": {
            "ChimeraGraph", "PegasusLikeGraph", "BlockDiagonalSampler",
            "IsingSampler", "Embedding", "TriangleCliqueEmbedder",
            "embedding_qubit_counts", "EmbeddedIsing", "embed_ising",
            "ICEModel", "AnnealSchedule", "AnnealerParameters", "AnnealResult",
            "QuantumAnnealerSimulator", "parallelization_factor",
            "unembed_samples"},
        "repro.obs": {
            "read_jsonl", "to_chrome_trace", "to_jsonl", "write_chrome_trace",
            "write_jsonl", "build_report", "render"},
    }

    @pytest.mark.parametrize("module", sorted(ALL))
    def test_all_is_exact_and_resolves(self, module):
        package = importlib.import_module(module)
        assert set(package.__all__) == self.ALL[module]
        assert len(package.__all__) == len(self.ALL[module])
        for name in package.__all__:
            assert getattr(package, name) is not None

    def test_nothing_imports_networkx_or_asyncio(self):
        """No module of the package imports networkx (0.12 s of import; the
        chip's edges are Chimera arithmetic, and the tests build the graph
        they check them against) or asyncio (the gateway is threads)."""
        imported = {}
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    imported.setdefault(name.partition(".")[0], []).append(
                        path.relative_to(ROOT).as_posix())
        assert "networkx" not in imported, imported["networkx"]
        assert "asyncio" not in imported, imported["asyncio"]

    #: Serve one four-job ``DecodeBatch`` through an inline ``WorkerPool``,
    #: on the C artefact (``argv[1] == "artefact"``) or as a box without a
    #: compiler (``"none"``: ``_load_cext`` patched); report the bits, the
    #: sampler's ``selected_backend``, which of the heavy imports the
    #: process ended up holding and which ``repro.obs`` modules it loaded.
    SERVE_ONE_PACK = """
import json, sys
import numpy as np
import repro.cran.service
from repro.annealer import backends
from repro.annealer.chimera import ChimeraGraph
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import DecodeBatch
from repro.cran.workers import WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.mimo.system import MimoUplink

if sys.argv[1] == "none":
    backends._load_cext = lambda: None
decoder = QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                        AnnealerParameters(num_anneals=10))
link = MimoUplink(num_users=3, constellation="QPSK")
rng = np.random.default_rng(0)
jobs = tuple(DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                       channel_use=link.transmit(snr_db=15.0,
                                                 random_state=rng),
                       arrival_time_us=0.0, deadline_us=1e6, seed=100 + i)
             for i in range(4))
pool = WorkerPool(decoder)
pool.submit(DecodeBatch(jobs=jobs, flush_time_us=0.0, reason="full"))
entry, = decoder.annealer._structures.values()
sampler = entry.sampler
print(json.dumps({
    "bits": [done.result.detection.bits.tolist() for done in pool.results()],
    "selected": sampler.selected_backend,
    "held": sorted({"scipy", "networkx", "asyncio", "numba"}
                   & set(sys.modules)),
    "obs": sorted(name for name in sys.modules
                  if name == "repro.obs" or name.startswith("repro.obs."))}))
"""

    def test_serving_on_cext_imports_no_scipy_networkx_or_asyncio(
            self, tmp_path):
        """From ``import repro.cran.service`` to a served pack on the C
        artefact, a process imports none of scipy (0.12-0.15 s), networkx
        or asyncio.  Without the artefact the NumPy path still sweeps
        through scipy's operators — the reference path is alive — and
        decodes the same bits.  The artefact is what runs whatever else is
        installed: a ``numba`` package first on the path is never imported.
        On either path the compute and serving layers leave ``repro.obs``
        unloaded: observability consumes a finished run and has no hooks
        inside it."""
        from repro.annealer import backends
        if not backends.cext_available():
            pytest.skip("no C compiler for the cext backend")
        source = str(Path(__file__).resolve().parent.parent / "src")
        (tmp_path / "numba").mkdir()
        (tmp_path / "numba" / "__init__.py").write_text("")
        served = {}
        for run, artefact, path in (
                ("artefact", "artefact", source), ("none", "none", source),
                ("numba first", "artefact",
                 str(tmp_path) + os.pathsep + source)):
            done = subprocess.run(
                [sys.executable, "-c", self.SERVE_ONE_PACK, artefact],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path})
            assert done.returncode == 0, done.stderr
            served[run] = json.loads(done.stdout)
        assert served["artefact"]["held"] == []
        assert served["none"]["held"] == ["scipy"]
        assert served["numba first"]["held"] == []
        assert [served[run]["selected"] for run in served] == [
            "cext", "numpy", "cext"]
        assert all(served[run]["obs"] == [] for run in served)
        assert len(served["artefact"]["bits"]) == 4
        assert served["artefact"]["bits"] == served["none"]["bits"]
        assert served["artefact"]["bits"] == served["numba first"]["bits"]

    def test_setup_py_names_the_package(self):
        """``setup.py`` carries the metadata itself (there is no
        ``pyproject.toml``) and reads the version without importing."""
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"], cwd=root,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["repro", repro.__version__]


ROOT = Path(__file__).resolve().parent.parent


def load_script(relative):
    """Import a script under the repo root as a module, by path."""
    spec = importlib.util.spec_from_file_location(
        Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``span name -> (owner, attribute)`` of every callable the outside span
#: recorder of ``benchmarks/e2e/run.py --trace 1`` wraps.
SPAN_TARGETS = {name: (owner, attribute) for owner, attribute, name, *_
                in load_script("benchmarks/e2e/spans.py")._targets()}


class TestOutsideSpanTargets:
    """Per-layer wall time comes from wrapping public callables from the
    outside, so each wrapped name must stay where the recorder patches it:
    a method on its own class, or a function bound in the module that calls
    it, defined in the module the span is named after."""

    @pytest.mark.parametrize("span", sorted(SPAN_TARGETS))
    def test_target_resolves_where_it_is_patched(self, span):
        owner, attribute = SPAN_TARGETS[span]
        home = "repro." + span.rpartition(".")[0]
        if inspect.ismodule(owner):
            function = getattr(owner, attribute)
            assert function is getattr(importlib.import_module(home),
                                       span.rpartition(".")[2])
        else:
            assert attribute in vars(owner)
            function = vars(owner)[attribute]
        assert callable(function)
        assert function.__module__ == home


class TestReachabilityRecorder:
    def test_enumerates_named_src_functions_only(self):
        recorder = load_script("benchmarks/reachability.py")
        codes = list(recorder.defined())
        names = {code.co_qualname for code in codes}
        # Methods and nested functions are visited, not only module level.
        assert {"QuantumAnnealerSimulator.run_batch", "embed_ising",
                "unembed_samples", "TelemetryRecorder.snapshot"} <= names
        assert any(".<locals>." in name for name in names)
        assert not any(name.rpartition(".")[2].startswith("<")
                       for name in names)
        source = ROOT / "src" / "repro"
        assert all(Path(code.co_filename).is_relative_to(source)
                   for code in codes)


class TestServingOptionSurface:
    """The serving and sampling layers' keyword sets, pinned exactly: an
    option is added by editing this list, not by accretion."""

    SURFACE = {
        "CranService": {
            "decoder", "threads", "max_batch", "max_wait_us", "adaptive_wait",
            "num_workers", "mode", "tracing", "fault_plan", "max_retries",
            "restart_budget", "brownout"},
        "WorkerPool": {
            "decoder", "num_workers", "mode", "faults", "restart_budget",
            "threads"},
        "DecodeJob": {
            "job_id", "user_id", "frame", "subcarrier", "channel_use",
            "arrival_time_us", "deadline_us", "seed", "retries", "rng_mode"},
        "decode_time_model_for": {"decoder"},
        "online_decode_time_model": {"telemetry", "fallback", "overhead_us"},
        "TelemetryRecorder": {"log", "lock", "decoder", "faults"},
        "IngressGateway": {
            "service", "admission_limit", "per_cell_limit",
            "overload_policy"},
        "QuAMaxDecoder": {"annealer", "parameters", "random_state"},
        "QuAMaxDecoder.detect_batch": {
            "channel_uses", "parameters", "random_state", "random_states",
            "rng"},
        "QuantumAnnealerSimulator.run": {
            "logical_ising", "parameters", "random_state", "embedding",
            "rng"},
        "QuantumAnnealerSimulator.run_batch": {
            "logical_isings", "parameters", "random_states", "random_state",
            "embedding", "rng"},
        "BlockDiagonalSampler": {"isings", "clusters", "rng"},
        "BlockDiagonalSampler.anneal": {
            "temperatures", "num_replicas", "random_states", "ice",
            "ice_batch_size", "program"},
        "IsingSampler": {"ising", "clusters", "rng"},
        "IsingSampler.anneal": {
            "temperatures", "num_replicas", "random_state"},
        "SimulatedAnnealingSolver": {
            "num_sweeps", "num_reads", "hot_temperature", "cold_temperature",
            "rng"},
        "OFDMDecodingPipeline.decode_subcarriers": {
            "channel_uses", "random_state"},
        "OFDMDecodingPipeline.decode_frame": {
            "channel_uses", "frame_size_bytes", "random_state"},
        "ScenarioRunner.run_scenario": {
            "scenario", "parameters", "num_instances", "channel_uses"},
        "embed_pack": {
            "logicals", "embedding", "chain_strength", "extended_range"},
        "embed_ising": {
            "logical", "embedding", "chain_strength", "extended_range"},
        "build_ml_ising_pack": {"channels", "received", "constellation"},
        "build_ml_ising": {"channel", "received", "constellation"},
        "build_ml_qubo": {"channel", "received", "constellation"},
    }

    @staticmethod
    def resolve(name):
        """The class, method or function *name* (``Owner.method`` or a
        bare name), from the package or module that defines it."""
        from repro import annealer, cran, decoder, detectors, experiments
        from repro.annealer import embedded
        from repro.cran import service
        from repro.transform import ising_coeffs

        owner, _, method = name.partition(".")
        target = next(getattr(package, owner)
                      for package in (cran, service, annealer, embedded,
                                      experiments, ising_coeffs, decoder,
                                      detectors, repro)
                      if hasattr(package, owner))
        return getattr(target, method) if method else target

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_keyword_set_is_exact(self, name):
        target = self.resolve(name)
        if inspect.isclass(target):
            target = target.__init__
        parameters = inspect.signature(target).parameters
        assert set(parameters) - {"self"} == self.SURFACE[name]

    @pytest.mark.parametrize("name, removed", [
        ("CranService", "kernel"), ("CranService", "backend"),
        ("CranService", "rng"), ("CranService", "mp_context"),
        ("CranService", "queue_capacity"), ("CranService", "overload_policy"),
        ("CranService", "telemetry_window"),
        ("CranService", "trace_wall_time"),
        ("CranService", "decoder_factory"),
        ("CranService", "decode_time_model"), ("WorkerPool", "mp_context"),
        ("WorkerPool", "collect_failures"), ("WorkerPool", "decoder_factory"),
        ("WorkerPool", "queue_capacity"), ("WorkerPool", "overload_policy"),
        ("WorkerPool", "autostart"), ("WorkerPool", "telemetry"),
        ("WorkerPool", "trace"), ("QuAMaxDecoder", "rng"),
        ("QuAMaxDecoder", "threads"), ("DecodeJob", "threads"),
        ("QuAMaxDecoder.detect_batch", "threads"),
        ("QuantumAnnealerSimulator.run", "threads"),
        ("QuantumAnnealerSimulator.run_batch", "threads"),
        ("BlockDiagonalSampler", "threads"), ("IsingSampler", "threads"),
        ("SimulatedAnnealingSolver", "threads"),
        ("decode_time_model_for", "margin"),
        ("online_decode_time_model", "margin"),
        ("TelemetryRecorder", "window"),
        ("TelemetryRecorder", "decode_time_alpha"),
        ("TelemetryRecorder", "decode_time_min_samples"),
        ("embed_pack", "normalize"), ("embed_ising", "normalize"),
        ("build_ml_ising_pack", "include_offset"),
        ("build_ml_ising", "include_offset"),
        ("build_ml_qubo", "include_offset"),
    ])
    def test_removed_keyword_is_rejected_not_swallowed(self, name, removed):
        with pytest.raises(TypeError, match=removed):
            self.resolve(name)(**{removed: None})

    def test_only_the_pool_takes_a_cpu_budget(self):
        """``threads`` — how many CPUs a process worker's packs shard
        over — is the serving pool's alone: no other function or method of
        the package takes it."""
        takes = set()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owners = {id(item): f"{node.name}.{item.name}"
                      for node in tree.body if isinstance(node, ast.ClassDef)
                      for item in node.body if hasattr(item, "name")}
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)) and "threads" in {
                        arg.arg for arg in (*node.args.args,
                                            *node.args.kwonlyargs)}:
                    takes.add(owners.get(id(node), path.name))
        assert takes == {"CranService.__init__", "WorkerPool.__init__"}

    @pytest.mark.parametrize("name", [
        "IngressGateway.submit_async", "WorkerPool.steal_count",
        "EDFBatchScheduler.next_due_us", "EDFBatchScheduler.jobs_submitted",
        "EDFBatchScheduler.jobs_flushed", "DecodeJob.laxity_us",
        "PoissonTrafficGenerator.offered_load_jobs_per_s", "WorkerPool.start",
        "FrameResult.is_complete", "FrameResult.bits_accumulated",
        "FrameResult.bit_errors", "FrameResult.is_errored",
        "DetectionResult.bit_errors", "IsingModel.neighbours",
        "tracing.TraceRecorder", "WorkerPool.trace",
        "TelemetryRecorder.record_batch", "TelemetryRecorder.record_shed",
        "TelemetryRecorder.record_fault", "TelemetryRecorder.count",
    ])
    def test_removed_serving_attribute_is_gone(self, name):
        """The gateway is threads only, a pool's workers start with it, and
        each figure has one spelling: ``worker_info()``, the flushed packs,
        the job's own deadline, ``FrameResult.frame``,
        ``metrics.bit_errors`` — and each lifecycle fact one write, a row
        on the pool's log that the telemetry folds."""
        owner, _, attribute = name.partition(".")
        assert not hasattr(self.resolve(owner), attribute)

    def test_one_decode_entry_point(self):
        """Every decode is a ``detect_batch``: the serial and per-instance
        routes beside it are gone."""
        from repro.experiments import ScenarioRunner

        assert not hasattr(repro.OFDMDecodingPipeline,
                           "decode_subcarriers_batched")
        assert not hasattr(ScenarioRunner, "run_instance")

    @pytest.mark.parametrize("figure, kwargs, packs", [
        # One pack per scenario.
        ("fig04", dict(scenarios=(("BPSK", 2), ("QPSK", 1)),
                       instances_per_scenario=2), 2),
        # One pack per (schedule, chain strength): two schedules.
        ("fig08", dict(scenario=("BPSK", 2), anneal_counts=(1, 2),
                       opt_chain_strengths=(3.0, 4.0, 6.0)), 6),
        # One pack per SNR point.
        ("fig12", dict(scenario=("BPSK", 2), snrs_db=(10.0, 20.0, 30.0)), 3),
    ])
    def test_figures_decode_one_pack_per_point(
            self, monkeypatch, figure, kwargs, packs):
        from repro.decoder.quamax import QuAMaxDecoder
        from repro.experiments import ExperimentConfig

        calls = []
        detect_batch = QuAMaxDecoder.detect_batch

        def counting(decoder, channel_uses, *args, **extra):
            calls.append(len(channel_uses))
            return detect_batch(decoder, channel_uses, *args, **extra)

        monkeypatch.setattr(QuAMaxDecoder, "detect_batch", counting)
        config = ExperimentConfig(num_instances=2, num_anneals=4,
                                  chip_cells=2, seed=3)
        importlib.import_module(f"repro.experiments.{figure}").run(
            config, **kwargs)
        assert len(calls) == packs

    #: Every call that took the sweep-kernel knob ``kernel=``, the
    #: implementation knob ``backend=`` or a caller-made colouring
    #: ``classes=``, with its required arguments.
    SAMPLING_CALLS = {
        "BlockDiagonalSampler": lambda ising, **extra: BlockDiagonalSampler(
            [ising], **extra),
        "IsingSampler": lambda ising, **extra: IsingSampler(ising, **extra),
        "QuantumAnnealerSimulator.run": lambda ising, **extra: (
            repro.QuantumAnnealerSimulator(repro.ChimeraGraph.ideal(2, 2))
            .run(ising, **extra)),
        "QuantumAnnealerSimulator.run_batch": lambda ising, **extra: (
            repro.QuantumAnnealerSimulator(repro.ChimeraGraph.ideal(2, 2))
            .run_batch([ising], **extra)),
        "SimulatedAnnealingSolver": lambda ising, **extra: (
            repro.SimulatedAnnealingSolver(**extra)),
        "QuAMaxDecoder": lambda ising, **extra: repro.QuAMaxDecoder(**extra),
    }

    @pytest.mark.parametrize("name, removed", [
        *[(name, removed) for name in SAMPLING_CALLS
          for removed in ("kernel", "backend")],
        ("BlockDiagonalSampler", "classes"), ("IsingSampler", "classes"),
    ])
    def test_removed_sampling_keyword_is_rejected(self, name, removed):
        ising = repro.IsingModel(num_variables=2, linear=[0.5, -0.5],
                                 couplings={(0, 1): 1.0})
        with pytest.raises(TypeError, match=removed):
            self.SAMPLING_CALLS[name](ising, **{removed: "colour"})


class TestResultShape:
    """One copy of each per-job fact: the run's figures live on
    ``AnnealResult`` alone, and nothing above it forwards or copies them."""

    FIELDS = {
        "AnnealResult": {"solutions", "parameters", "parallelization",
                         "broken_chain_fraction"},
        "QuAMaxDetectionResult": {"detection", "reduced", "run"},
    }

    @pytest.fixture(scope="class")
    def decoded(self):
        """One subcarrier through the pipeline's ``detect_batch``."""
        decoder = repro.QuAMaxDecoder(
            repro.QuantumAnnealerSimulator(repro.ChimeraGraph.ideal(2, 2)),
            repro.AnnealerParameters(num_anneals=4))
        use = repro.MimoUplink(num_users=2, constellation="BPSK").transmit(
            random_state=0)
        report = repro.OFDMDecodingPipeline(decoder).decode_subcarriers(
            [use], random_state=1)
        return report.subcarrier_results[0]

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_field_set_is_exact(self, name):
        from repro.decoder import QuAMaxDetectionResult

        owner = {"AnnealResult": repro.AnnealResult,
                 "QuAMaxDetectionResult": QuAMaxDetectionResult}[name]
        assert {field.name for field in dataclasses.fields(owner)} == (
            self.FIELDS[name])

    @pytest.mark.parametrize("owner, attribute", [
        ("run", "embedded"), ("run", "logical_ising"), ("run", "unembedding"),
        ("outcome", "compute_time_us"),
        ("outcome", "ground_state_probability"),
        ("outcome", "solution_profile"), ("subcarrier", "compute_time_us"),
    ])
    def test_removed_result_attribute_is_gone(self, decoded, owner,
                                              attribute):
        target = {"subcarrier": decoded, "outcome": decoded.result,
                  "run": decoded.result.run}[owner]
        assert not hasattr(target, attribute)

    @pytest.mark.parametrize("module", [
        "repro.annealer", "repro.annealer.machine", "repro.annealer.unembed"])
    def test_unembedding_report_is_gone(self, module):
        assert not hasattr(importlib.import_module(module),
                           "UnembeddingReport")

    def test_the_run_carries_the_figures_and_extra_copies_none(self,
                                                               decoded):
        run = decoded.result.run
        assert decoded.result.detection.extra == {}
        assert run.compute_time_us == (run.num_anneals
                                       * run.anneal_duration_us
                                       / run.parallelization)
        assert 0.0 <= run.broken_chain_fraction <= 1.0
        assert 0.0 < run.ground_state_probability() <= 1.0


class TestServingConstants:
    """What became constant when its keyword went: the pool's bound and
    the decode-time models' headroom."""

    @staticmethod
    def small_decoder():
        return repro.QuAMaxDecoder(
            repro.QuantumAnnealerSimulator(repro.ChimeraGraph.ideal(2, 2)),
            repro.AnnealerParameters(num_anneals=2))

    @staticmethod
    def jobs(count):
        link = repro.MimoUplink(num_users=2, constellation="BPSK")
        return [repro.DecodeJob(job_id=index, user_id=0, frame=0,
                                subcarrier=index,
                                channel_use=link.transmit(random_state=index),
                                arrival_time_us=0.0, seed=index)
                for index in range(count)]

    def test_a_full_pool_blocks_at_queue_capacity_and_never_sheds(self):
        import threading

        from repro.cran.scheduler import DecodeBatch
        from repro.cran.workers import QUEUE_CAPACITY

        decoder = self.small_decoder()
        taken, gate = threading.Semaphore(0), threading.Event()

        class Held:
            """Each pack waits at *gate* once its worker has taken it."""
            annealer = decoder.annealer

            def detect_batch(self, channel_uses, **kwargs):
                taken.release()
                gate.wait()
                return decoder.detect_batch(channel_uses, **kwargs)

        pool = repro.WorkerPool(Held(), num_workers=1)
        executor = pool._executor
        blocked, wait = threading.Event(), executor._not_full.wait

        def recording_wait(*args):
            blocked.set()
            return wait(*args)

        executor._not_full.wait = recording_wait
        packs = [DecodeBatch(jobs=(job,), flush_time_us=0.0, reason="full")
                 for job in self.jobs(QUEUE_CAPACITY + 2)]
        submitted = []

        def produce():
            for index, pack in enumerate(packs):
                pool.submit(pack)
                submitted.append(index)
                if index == 0:  # the one worker now holds pack 0
                    assert taken.acquire(timeout=60)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        assert blocked.wait(timeout=60)
        # One pack in the worker and QUEUE_CAPACITY queued: the next blocks.
        assert len(submitted) == QUEUE_CAPACITY + 1
        assert executor._pending == QUEUE_CAPACITY
        gate.set()
        producer.join(timeout=60)
        assert not producer.is_alive()
        pool.close()
        assert len(submitted) == len(packs)
        assert len(pool.results()) == len(packs)
        assert pool.shed_jobs == [] and pool.telemetry.jobs_shed == 0

    def test_both_decode_time_models_carry_the_margin(self, monkeypatch):
        from repro.cran import service
        from repro.cran.scheduler import DecodeBatch
        from repro.cran.telemetry import DECODE_TIME_MIN_SAMPLES

        decoder, jobs = self.small_decoder(), self.jobs(3)
        pool = repro.WorkerPool(decoder)
        telemetry = pool.telemetry
        for _ in range(DECODE_TIME_MIN_SAMPLES):  # trust the EWMA
            pool.submit(DecodeBatch(jobs=tuple(jobs), flush_time_us=0.0,
                                    reason="full"))

        def priced():
            return [model(jobs) for model in (
                service.decode_time_model_for(decoder),
                service.online_decode_time_model(
                    telemetry, lambda members: 0.0, overhead_us=1.0))]

        assert service.DECODE_TIME_MARGIN == 0.1
        with_margin = priced()
        monkeypatch.setattr(service, "DECODE_TIME_MARGIN", 0.0)
        bare = priced()
        assert all(value > 0.0 for value in bare)
        assert with_margin == pytest.approx(
            [value * 1.1 for value in bare], rel=1e-12)


class TestConstants:
    def test_dw2q_counts(self):
        assert constants.DW2Q_WORKING_QUBITS == 2031
        assert constants.CHIMERA_C16_IDEAL_QUBITS == 2048
        assert constants.DW2Q_COUPLERS == 5019

    def test_anneal_time_window(self):
        assert constants.MIN_ANNEAL_TIME_US == 1.0
        assert constants.MAX_ANNEAL_TIME_US == 300.0
        assert (constants.MIN_ANNEAL_TIME_US
                <= constants.DEFAULT_ANNEAL_TIME_US
                <= constants.MAX_ANNEAL_TIME_US)

    def test_ice_statistics_sign_convention(self):
        # Linear shifts are slightly positive, coupling shifts slightly
        # negative, both with larger standard deviations than means.
        assert constants.ICE_LINEAR_MEAN > 0
        assert constants.ICE_QUADRATIC_MEAN < 0
        assert constants.ICE_LINEAR_STD > constants.ICE_LINEAR_MEAN
        assert constants.ICE_QUADRATIC_STD > abs(constants.ICE_QUADRATIC_MEAN)

    def test_targets(self):
        assert constants.TARGET_BER == 1e-6
        assert constants.TARGET_FER == 1e-4
        assert constants.TTS_TARGET_PROBABILITY == 0.99

    def test_frame_sizes_include_paper_extremes(self):
        assert 50 in constants.FRAME_SIZES_BYTES
        assert 1500 in constants.FRAME_SIZES_BYTES

    def test_overheads_exceed_wireless_budgets(self):
        # The Section 7 point: today's QPU overheads exceed even WCDMA's
        # 10 ms processing budget.
        overhead = (constants.PREPROCESSING_TIME_US
                    + constants.PROGRAMMING_TIME_US)
        assert overhead > constants.WCDMA_DECODE_BUDGET_US


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro import exceptions
        subclasses = [
            exceptions.ConfigurationError, exceptions.ModulationError,
            exceptions.ChannelError, exceptions.DetectionError,
            exceptions.ReductionError, exceptions.EmbeddingError,
            exceptions.AnnealerError, exceptions.MetricsError,
            exceptions.ExperimentError,
        ]
        for subclass in subclasses:
            assert issubclass(subclass, exceptions.ReproError)

    def test_catchable_as_base(self):
        from repro.exceptions import ModulationError, ReproError
        with pytest.raises(ReproError):
            raise ModulationError("boom")
