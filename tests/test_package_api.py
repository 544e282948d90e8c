"""Tests for the top-level package API and the constants module."""

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
from repro.exceptions import AnnealerError, DetectionError


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
        "repro.annealer": {
            "BACKENDS", "available_backends", "resolve_backend",
            "ChimeraGraph", "PegasusLikeGraph", "BlockDiagonalSampler",
            "IsingSampler", "Embedding", "TriangleCliqueEmbedder",
            "embedding_qubit_counts", "EmbeddedIsing", "embed_ising",
            "ICEModel", "AnnealSchedule", "AnnealerParameters", "AnnealResult",
            "QuantumAnnealerSimulator", "parallelization_factor",
            "UnembeddingReport", "unembed_samples"},
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

    def test_serving_path_imports_no_networkx(self):
        """A serving process never pays for networkx (0.12 s of import and a
        2 031-node graph it used to build for ``has_edge``): nothing on the
        way from ``repro.cran.service`` to a decoded pack imports it — only
        ``ChimeraGraph.to_networkx()`` does, when called."""
        script = (
            "import sys\n"
            "import repro.cran.service\n"
            "from repro.annealer.machine import QuantumAnnealerSimulator\n"
            "QuantumAnnealerSimulator().embedding_for(6)\n"
            "assert 'networkx' not in sys.modules, 'imported by the path'\n"
            "QuantumAnnealerSimulator().topology.to_networkx()\n"
            "assert 'networkx' in sys.modules\n")
        source = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(source)})
        assert done.returncode == 0, done.stderr

    #: Serve one four-job ``DecodeBatch`` through an inline ``WorkerPool``
    #: on the backend named in ``argv[1]``; report the bits, what ``auto``
    #: resolves to, which of the heavy imports the process ended up holding
    #: and which ``repro.obs`` modules it loaded.
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

decoder = QuAMaxDecoder(QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
                        AnnealerParameters(num_anneals=10),
                        backend=sys.argv[1])
link = MimoUplink(num_users=3, constellation="QPSK")
rng = np.random.default_rng(0)
jobs = tuple(DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                       channel_use=link.transmit(snr_db=15.0,
                                                 random_state=rng),
                       arrival_time_us=0.0, deadline_us=1e6, seed=100 + i)
             for i in range(4))
pool = WorkerPool(decoder)
assert pool.submit(DecodeBatch(jobs=jobs, flush_time_us=0.0, reason="full"))
print(json.dumps({
    "bits": [done.result.detection.bits.tolist() for done in pool.results()],
    "auto": backends.resolve_backend("auto"),
    "held": sorted({"scipy", "networkx", "asyncio", "numba"}
                   & set(sys.modules)),
    "obs": sorted(name for name in sys.modules
                  if name == "repro.obs" or name.startswith("repro.obs."))}))
"""

    def test_serving_on_cext_imports_no_scipy_networkx_or_asyncio(
            self, tmp_path):
        """From ``import repro.cran.service`` to a served pack on the C
        artefact, a process imports none of scipy (0.12-0.15 s), networkx
        or asyncio.  The numpy oracle backend still sweeps through scipy's
        operators — the reference path is alive — and decodes the same
        bits.  ``auto`` is the C artefact whatever else is installed: a
        ``numba`` package first on the path is never imported.  On every
        backend the compute and serving layers leave ``repro.obs`` unloaded:
        observability consumes a finished run and has no hooks inside it."""
        from repro.annealer import backends
        if not backends.cext_available():
            pytest.skip("no C compiler for the cext backend")
        source = str(Path(__file__).resolve().parent.parent / "src")
        (tmp_path / "numba").mkdir()
        (tmp_path / "numba" / "__init__.py").write_text("")
        served = {}
        for backend, path in (("cext", source), ("numpy", source),
                              ("auto", str(tmp_path) + os.pathsep + source)):
            done = subprocess.run(
                [sys.executable, "-c", self.SERVE_ONE_PACK, backend],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path})
            assert done.returncode == 0, done.stderr
            served[backend] = json.loads(done.stdout)
        assert served["cext"]["held"] == []
        assert served["numpy"]["held"] == ["scipy"]
        assert served["auto"]["held"] == []
        assert served["auto"]["auto"] == "cext"
        assert all(served[backend]["obs"] == [] for backend in served)
        assert len(served["cext"]["bits"]) == 4
        assert served["cext"]["bits"] == served["numpy"]["bits"]
        assert served["cext"]["bits"] == served["auto"]["bits"]

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


class TestBackendNames:
    """Two backends, the oracle and the product; any other name — one that
    used to be valid included — is rejected with the list of valid ones."""

    def test_backends(self):
        from repro.annealer.backends import BACKENDS

        assert BACKENDS == ("auto", "numpy", "cext")

    # Each constructor's ``backend=``, or the call the object forwards it
    # from (the solver validates when it samples, the machine takes it per
    # run; the decoder reports its own error type).
    @pytest.mark.parametrize("error, through", [
        pytest.param(AnnealerError, lambda ising: IsingSampler(
            ising, backend="numba"), id="IsingSampler"),
        pytest.param(AnnealerError, lambda ising: BlockDiagonalSampler(
            [ising], backend="numba"), id="BlockDiagonalSampler"),
        pytest.param(AnnealerError, lambda ising: (
            repro.SimulatedAnnealingSolver(backend="numba").sample(
                ising, random_state=0)), id="SimulatedAnnealingSolver"),
        pytest.param(AnnealerError, lambda ising: (
            repro.QuantumAnnealerSimulator(repro.ChimeraGraph.ideal(2, 2)).run(
                ising, repro.AnnealerParameters(num_anneals=1),
                random_state=0, backend="numba")),
            id="QuantumAnnealerSimulator"),
        pytest.param(DetectionError, lambda ising: repro.QuAMaxDecoder(
            backend="numba"), id="QuAMaxDecoder"),
    ])
    def test_removed_backend_is_rejected_by_name(self, error, through):
        ising = repro.IsingModel(num_variables=2, linear=[0.5, -0.5],
                                 couplings={(0, 1): 1.0})
        with pytest.raises(error) as raised:
            through(ising)
        assert "('auto', 'numpy', 'cext')" in str(raised.value)
        assert "'numba'" in str(raised.value)


class TestServingOptionSurface:
    """The serving and sampling layers' keyword sets, pinned exactly: an
    option is added by editing this list, not by accretion."""

    SURFACE = {
        "CranService": {
            "decoder", "threads", "max_batch", "max_wait_us", "adaptive_wait",
            "decode_time_model", "num_workers", "mode", "tracing",
            "fault_plan", "max_retries", "restart_budget", "brownout"},
        "WorkerPool": {
            "decoder", "num_workers", "mode", "queue_capacity",
            "overload_policy", "telemetry", "trace", "decoder_factory",
            "autostart", "faults", "restart_budget", "threads"},
        "IngressGateway": {
            "service", "admission_limit", "per_cell_limit",
            "overload_policy"},
        "TraceRecorder": set(),
        "QuAMaxDecoder": {
            "annealer", "parameters", "random_state", "backend", "rng",
            "threads"},
        "QuantumAnnealerSimulator.run_batch": {
            "logical_isings", "parameters", "random_states", "random_state",
            "embedding", "backend", "rng", "threads"},
        "BlockDiagonalSampler": {
            "isings", "clusters", "backend", "rng", "threads"},
        "IsingSampler": {"ising", "clusters", "backend", "rng", "threads"},
        "SimulatedAnnealingSolver": {
            "num_sweeps", "num_reads", "hot_temperature", "cold_temperature",
            "backend", "rng", "threads"},
    }

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_keyword_set_is_exact(self, name):
        import inspect

        from repro import annealer, cran

        owner, _, method = name.partition(".")
        target = next(getattr(package, owner)
                      for package in (cran, annealer, repro)
                      if hasattr(package, owner))
        parameters = inspect.signature(
            getattr(target, method or "__init__")).parameters
        assert set(parameters) - {"self"} == self.SURFACE[name]

    @pytest.mark.parametrize("name, removed", [
        ("CranService", "kernel"), ("CranService", "backend"),
        ("CranService", "rng"), ("CranService", "mp_context"),
        ("CranService", "queue_capacity"), ("CranService", "overload_policy"),
        ("CranService", "telemetry_window"),
        ("CranService", "trace_wall_time"),
        ("CranService", "decoder_factory"), ("WorkerPool", "mp_context"),
        ("WorkerPool", "collect_failures"), ("TraceRecorder", "wall_time"),
    ])
    def test_removed_keyword_is_rejected_not_swallowed(self, name, removed):
        from repro import cran

        with pytest.raises(TypeError, match=removed):
            getattr(cran, name)(**{removed: None})

    #: Every call that took the sweep-kernel knob ``kernel=``, or a
    #: caller-made colouring ``classes=``, with its required arguments.
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
        "QuAMaxDecoder": lambda ising, **extra: repro.QuAMaxDecoder(**extra),
    }

    @pytest.mark.parametrize("name, removed", [
        *[(name, "kernel") for name in SAMPLING_CALLS],
        ("BlockDiagonalSampler", "classes"), ("IsingSampler", "classes"),
    ])
    def test_removed_sampling_keyword_is_rejected(self, name, removed):
        ising = repro.IsingModel(num_variables=2, linear=[0.5, -0.5],
                                 couplings={(0, 1): 1.0})
        with pytest.raises(TypeError, match=removed):
            self.SAMPLING_CALLS[name](ising, **{removed: "colour"})


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
