"""Path selection, fallback and draw-stream identity tests.

Which implementation runs is a fact about the box: the C artefact wherever
a compiler builds it, else the NumPy reference loops.  This suite pins:

* **selection** — ``selected_backend`` reports the artefact probe, the one
  fact the sweep and every pack stage read;
* **fallback** — with no compiler (its probe cache cleared on a disabled
  compiler list) the NumPy path runs and everything still works; the probe
  itself never raises;
* **identity** — seeded samples are bit-for-bit identical on both paths,
  on dense and sparse problems, with and without clusters, across
  multi-block packs, ``refresh_values`` rebinds and the full machine model.

Two structural guards ride along, both clock-free: every sampler shape
costs exactly **one** batch call (``pack_ice_batches``) per anneal, and the
C source's exported symbols and the ctypes signature table name the same
set, which holds no plain sweep entry point beside the batch call.
"""

import ctypes
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.annealer import backends
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.annealer.chimera import ChimeraGraph
from repro.ising.model import IsingModel
from repro.ising.solver import (
    SimulatedAnnealingSolver,
    aggregate_pack,
    geometric_temperature_schedule,
)

needs_cext = pytest.mark.skipif(not backends.cext_available(),
                                reason="no C compiler builds the artefact here")

def random_ising(num_variables, seed, density=1.0):
    rng = np.random.default_rng(seed)
    couplings = {}
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            if rng.random() <= density:
                couplings[(i, j)] = float(rng.normal())
    return IsingModel(num_variables=num_variables,
                      linear=rng.normal(size=num_variables),
                      couplings=couplings)


# The embedded-shaped cluster workload, shared with the equivalence and
# golden suites so they all exercise one problem family.
from cluster_workloads import build_path_chain_problem as path_chain_ising  # noqa: E402


def schedule(num_sweeps, hot=5.0, cold=0.05):
    return geometric_temperature_schedule(num_sweeps, hot, cold)


@pytest.fixture
def no_cext(monkeypatch):
    """Simulate an environment with no working C compiler."""
    monkeypatch.setitem(backends._CEXT_STATE, "checked", False)
    monkeypatch.setitem(backends._CEXT_STATE, "lib", None)
    monkeypatch.setattr(backends, "_COMPILERS", ())
    monkeypatch.setattr(backends, "_cache_dir",
                        lambda: backends.Path("/nonexistent/no-cache"))
    yield


class TestDispatch:
    def test_selected_backend_is_the_probe(self, artefact):
        sampler = IsingSampler(random_ising(5, 1))
        assert sampler.selected_backend == artefact
        assert sampler.anneal(schedule(10), 4, random_state=3).shape == (4, 5)

    def test_one_sampler_follows_the_probe_per_call(self, on_numpy):
        """Selection is made per call, not stored at construction: one warm
        sampler reports and runs whichever path the probe finds now."""
        sampler = IsingSampler(random_ising(5, 4))
        here = "cext" if backends.cext_available() else "numpy"
        assert sampler.selected_backend == here
        with on_numpy():
            assert sampler.selected_backend == "numpy"
            expected = sampler.anneal(schedule(10), 4, random_state=5)
        assert sampler.selected_backend == here
        np.testing.assert_array_equal(
            sampler.anneal(schedule(10), 4, random_state=5), expected)

    def test_one_cached_machine_sampler_serves_either_path(self, on_numpy):
        """The path is not part of the warm sampler cache key: a job run
        without the artefact reuses the sampler built with it, and bits
        agree."""
        ising = random_ising(5, 6)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(2, 2))
        parameters = AnnealerParameters(num_anneals=8)
        first = machine.run(ising, parameters, random_state=7)
        with on_numpy():
            second = machine.run(ising, parameters, random_state=7)
        info = machine.sampler_cache_info()
        assert (info["entries"], info["misses"], info["hits"]) == (1, 1, 1)
        np.testing.assert_array_equal(first.solutions.samples,
                                      second.solutions.samples)

    #: The artefact's callers: a machine job's one batch call (programming,
    #: ICE batches and read-out), and the read-out of aggregate_pack's own
    #: reads.
    PACK_STAGES = ("pack_ice_batches", "read_out")

    def test_every_stage_follows_the_probe(self, artefact, monkeypatch):
        """The sweep, the programming and both read-outs read one fact:
        with the artefact each of them calls into C, without it none does
        (the sequential NumPy sweep runs its reference loops in the
        engine)."""
        calls = set()

        def counted(name, original):
            def counting(*args, **kwargs):
                calls.add(name)
                return original(*args, **kwargs)
            return counting

        for name in self.PACK_STAGES:
            monkeypatch.setattr(backends, name,
                                counted(name, getattr(backends, name)))
        problems = [random_ising(4, 30 + b) for b in range(2)]
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(2, 2))
        machine.run_batch(problems, AnnealerParameters(num_anneals=6),
                          random_state=31)
        assert calls == ({"pack_ice_batches"} if artefact == "cext"
                         else set())
        aggregate_pack(problems, np.ones((2, 3, 4), dtype=np.int8))
        assert calls == (set(self.PACK_STAGES) if artefact == "cext"
                         else set())

    def test_falls_back_to_numpy_without_a_compiler(self, no_cext):
        assert not backends.cext_available()
        # The fallback is not merely nominal: a sampler built under these
        # conditions anneals on the reference loops.
        sampler = IsingSampler(random_ising(6, 2))
        assert sampler.selected_backend == "numpy"
        samples = sampler.anneal(schedule(10), 4, random_state=3)
        assert samples.shape == (4, 6)

    @pytest.mark.parametrize("foreign_directory", [False, True])
    def test_probe_never_raises_for_a_uid_without_a_home(
            self, monkeypatch, tmp_path, foreign_directory):
        """No ``HOME``, no ``XDG_CACHE_HOME``, no passwd entry (a container
        run under an arbitrary uid): ``Path.home()`` raises.  cext then
        builds in a per-user directory under the temporary directory, and
        is unavailable — not an exception — if that name is someone else's."""
        expected = backends.cext_available() and not foreign_directory
        uid = os.getuid() + foreign_directory

        def homeless(cls):
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(backends.Path, "home", classmethod(homeless))
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        monkeypatch.setattr(backends.os, "getuid", lambda: uid)
        monkeypatch.setitem(backends._CEXT_STATE, "checked", False)
        monkeypatch.setitem(backends._CEXT_STATE, "lib", None)
        assert backends.cext_available() == expected
        built = list((tmp_path / f"repro_backends-{uid}").glob("*.so"))
        assert len(built) == expected

    def test_warmup_is_idempotent(self):
        backends.warmup()
        backends.warmup()


class TestSymbolTable:
    """The C exports and their ctypes table are two spellings of one list;
    nothing else catches one drifting."""

    #: ``restype name(params) {`` at column 0, ``static`` helpers excluded.
    EXPORT = re.compile(
        r"^(?!static\b|typedef\b)(\w+)\s+(\w+)\(([^)]*)\)\s*\{", re.M)

    @staticmethod
    def ctypes_kind(declaration):
        if "*" in declaration:
            return "pointer"
        return {"void": None, "int64_t": ctypes.c_int64,
                "uint64_t": ctypes.c_uint64,
                "double": ctypes.c_double}[declaration.split()[0]]

    def exported(self):
        table = {}
        for restype, name, params in self.EXPORT.findall(backends._C_SOURCE):
            kinds = [self.ctypes_kind(param.strip())
                     for param in params.split(",")]
            table[name] = (self.ctypes_kind(restype),
                           [] if kinds == [None] else kinds)
        return table

    def test_c_exports_match_ctypes_table(self):
        exported = self.exported()
        signatures = backends._cext_signatures()
        assert set(exported) == set(signatures)
        pointers = (ctypes.c_void_p, ctypes.POINTER(ctypes.c_void_p))
        for name, (restype, kinds) in exported.items():
            bound_restype, argtypes = signatures[name]
            assert bound_restype is restype, name
            assert len(argtypes) == len(kinds), name
            for position, (argtype, kind) in enumerate(zip(argtypes, kinds)):
                if kind == "pointer":
                    assert argtype in pointers, (name, position)
                else:
                    assert argtype is kind, (name, position)

    def test_the_batch_call_is_the_sweep_boundary(self):
        # pack_ice_batches runs every anneal, ICE batches, start and sweeps
        # — a block range's, a lane half's or a drawn batch's — and a
        # served pack's programming and read-out; pack_read_out is the
        # read-out on its own.  The two starts stay exported as test hooks.
        assert set(self.exported()) == {
            "pack_ice_batches", "metropolis_accept_probe",
            "counter_initial_spins", "sequential_initial_spins",
            "philox_fill_probe", "pcg64_probe", "pack_read_out"}
        for name in ("read_out", "pack_ice_batches", "PackReadOut"):
            assert callable(getattr(backends, name))
        for name in ("embed_direct", "majority_vote", "distinct_reads",
                     "csr_pack_matvecs"):
            assert not hasattr(backends, name), name

    def test_no_plain_sweep_entry_point(self):
        """No Python sweep entry point or shard wrapper stands beside the
        batch call, and the artefact exports no sweep of its own: no
        colour sweep, lane half or counter sweep, and no shared colour
        argument list."""
        for name in ("pack_fused_colour_cluster_sweep",
                     "_sharded_colour_call"):
            assert not hasattr(backends, name), name
        sweeps = ("pack_fused_colour_cluster_sweep", "lane_half_sweep",
                  "counter_pack_fused_colour_cluster_sweep")
        assert not set(sweeps) & set(self.exported())
        assert "COLOUR_ARGS" not in backends._C_SOURCE
        lib = backends._load_cext()
        if lib is not None:
            for name in sweeps:
                assert not hasattr(lib, name), name

    def test_sequential_draw_source_is_one_generator_array(self):
        """Every sequential export takes its per-block generators as ONE
        ``bitgen_t`` pointer array, last, and the counter exports take
        none."""
        declarations = {
            name: [param.strip() for param in params.split(",")]
            for _, name, params in self.EXPORT.findall(backends._C_SOURCE)}
        signatures = backends._cext_signatures()
        generators = "const bitgen_t *const *generators"
        for name in ("sequential_initial_spins", "pack_ice_batches"):
            assert declarations[name].count(generators) == 1, name
            assert declarations[name][-1] == generators, name
            assert (signatures[name][1][-1]
                    is ctypes.POINTER(ctypes.c_void_p)), name
        for name, params in declarations.items():
            if name.startswith("counter_"):
                assert not any("bitgen_t" in param for param in params), name
        assert "next_double_fn *" not in backends._C_SOURCE
        assert "void **states" not in backends._C_SOURCE


@needs_cext
class TestCompiledIdentity:
    """Seeded streams must be bit-identical to the numpy reference loops."""

    def test_dense_problem_stream(self, array_digest, on_numpy):
        ising = random_ising(17, 10)
        temperatures = schedule(60)
        sampler = IsingSampler(ising)
        assert sampler.selected_backend == "cext"
        for prefix in (1, 30, 60):
            with on_numpy():
                expected = sampler.anneal(temperatures[:prefix], 12,
                                          random_state=11)
            actual = sampler.anneal(temperatures[:prefix], 12,
                                    random_state=11)
            np.testing.assert_array_equal(expected, actual)
            assert array_digest(expected) == array_digest(actual)

    def test_sparse_problem_stream(self, array_digest, on_numpy):
        ising = random_ising(20, 12, density=0.25)
        temperatures = schedule(60)
        with on_numpy():
            expected = IsingSampler(ising).anneal(
                temperatures, 12, random_state=13)
        actual = IsingSampler(ising).anneal(
            temperatures, 12, random_state=13)
        np.testing.assert_array_equal(expected, actual)
        assert array_digest(expected) == array_digest(actual)

    def test_cluster_moves_shared(self, on_numpy):
        ising = random_ising(12, 14)
        clusters = [np.array([0, 1, 2], dtype=np.intp),
                    np.array([7, 8], dtype=np.intp)]
        temperatures = schedule(40)
        with on_numpy():
            expected = IsingSampler(ising, clusters=clusters).anneal(
                temperatures, 8, random_state=15)
        actual = IsingSampler(ising, clusters=clusters).anneal(
            temperatures, 8, random_state=15)
        np.testing.assert_array_equal(expected, actual)

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_multi_block_streams(self, density, on_numpy):
        rng = np.random.default_rng(16)
        base = random_ising(9, 17, density=density)
        problems = [
            IsingModel(num_variables=9, linear=rng.normal(size=9),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(3)
        ]
        temperatures = schedule(35)
        packed = BlockDiagonalSampler(problems)
        with on_numpy():
            expected = packed.anneal(
                temperatures, 7,
                [np.random.default_rng(90 + b) for b in range(3)])
        actual = packed.anneal(
            temperatures, 7, [np.random.default_rng(90 + b) for b in range(3)])
        np.testing.assert_array_equal(expected, actual)
        # ...and the multi-block compiled anneal equals per-block serial
        # compiled anneals (block draw streams are independent).
        for b, block in enumerate(packed.split_samples(actual)):
            serial = IsingSampler(problems[b]).anneal(
                temperatures, 7,
                random_state=np.random.default_rng(90 + b))
            np.testing.assert_array_equal(block, serial)

    def test_refresh_values_rebinds_compiled_kernels(self, on_numpy):
        base = random_ising(10, 18)
        rng = np.random.default_rng(5)
        replacement = IsingModel(
            num_variables=10, linear=rng.normal(size=10),
            couplings={key: float(rng.normal()) for key in base.couplings})
        temperatures = schedule(30)
        refreshed = IsingSampler(base)
        refreshed.refresh_values(replacement)
        with on_numpy():
            expected = IsingSampler(replacement).anneal(
                temperatures, 6, random_state=19)
        np.testing.assert_array_equal(
            refreshed.anneal(temperatures, 6, random_state=19), expected)

    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_drawn_start_is_shared(self, rng_mode, on_numpy):
        """Both paths draw one start: a problem with no field and no
        coupling flips every spin in every sweep without a draw, so two
        sweeps hand the start back."""
        sampler = IsingSampler(IsingModel(num_variables=8,
                                          linear=np.zeros(8), couplings={}),
                               rng=rng_mode)
        with on_numpy():
            expected = sampler.anneal([1.0, 1.0], 5, random_state=21)
        np.testing.assert_array_equal(
            expected, sampler.anneal([1.0, 1.0], 5, random_state=21))
        assert len(np.unique(expected, axis=0)) > 1

    def test_machine_run_identical(self, on_numpy):
        """Full QA job (embed, ICE, clusters, unembed) on both paths, one
        machine: its warm sampler serves either."""
        ising = random_ising(5, 22)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(3, 3))
        parameters = AnnealerParameters(num_anneals=12)
        with on_numpy():
            reference = machine.run(ising, parameters, random_state=23)
        compiled = machine.run(ising, parameters, random_state=23)
        np.testing.assert_array_equal(reference.solutions.samples,
                                      compiled.solutions.samples)
        np.testing.assert_array_equal(reference.solutions.num_occurrences,
                                      compiled.solutions.num_occurrences)
        np.testing.assert_array_equal(reference.solutions.energies,
                                      compiled.solutions.energies)

    def test_sa_solver_identical(self, array_digest, on_numpy):
        ising = random_ising(14, 24)
        solver = SimulatedAnnealingSolver(num_sweeps=60, num_reads=30)
        with on_numpy():
            expected = solver.sample(ising, random_state=25)
        actual = solver.sample(ising, random_state=25)
        assert array_digest(expected.samples) == array_digest(actual.samples)
        np.testing.assert_array_equal(expected.energies, actual.energies)


@needs_cext
class TestCompiledClusterKernels:
    """The fused cluster kernels: embedded problems compiled end to end."""

    @pytest.mark.parametrize("chain_length", [4, 16])
    def test_embedded_problem_stream(self, chain_length, array_digest,
                                     on_numpy):
        ising, clusters = path_chain_ising(48, chain_length, 40)
        temperatures = schedule(45)
        sampler = IsingSampler(ising, clusters=clusters)
        with on_numpy():
            expected = sampler.anneal(temperatures, 9, random_state=41)
        actual = sampler.anneal(temperatures, 9, random_state=41)
        np.testing.assert_array_equal(expected, actual)
        assert array_digest(expected) == array_digest(actual)

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("with_clusters", [True, False],
                             ids=["clusters", "no-clusters"])
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_one_backend_dispatch_per_anneal(self, rng_mode, with_clusters,
                                             blocks, monkeypatch, on_numpy):
        """Every sampler shape — single problem or pack, chains or none,
        either discipline — is one batch call per anneal (a work counter,
        not a clock), with the numpy samples."""
        base, clusters = path_chain_ising(20, 4, 42, density=0.15)
        rng = np.random.default_rng(43)
        problems = [
            IsingModel(num_variables=20, linear=rng.normal(size=20),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(blocks)
        ]
        calls = []
        original = backends.pack_ice_batches
        monkeypatch.setattr(backends, "pack_ice_batches",
                            lambda *args: calls.append(args[4])
                            or original(*args))

        def anneal():
            sampler = BlockDiagonalSampler(
                problems, clusters=clusters if with_clusters else None,
                rng=rng_mode)
            calls.clear()
            rngs = [np.random.default_rng(50 + b) for b in range(blocks)]
            return sampler.anneal(schedule(30), 6, rngs), rngs

        actual, rngs = anneal()
        assert calls == [rngs]
        with on_numpy():
            np.testing.assert_array_equal(anneal()[0], actual)
        assert calls == []

    def test_machine_run_batch_pack_identical(self, on_numpy):
        """Serving-shaped multi-problem QA packs (embedded chains → cluster
        moves, multi-block) are bit-identical to numpy through the full
        machine model now that the pack dispatch exception is gone."""
        base = random_ising(5, 46)
        rng = np.random.default_rng(47)
        problems = [
            IsingModel(num_variables=5, linear=rng.normal(size=5),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(3)
        ]
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(3, 3))
        parameters = AnnealerParameters(num_anneals=10)
        with on_numpy():
            reference = machine.run_batch(problems, parameters,
                                          random_state=48)
        compiled = machine.run_batch(problems, parameters, random_state=48)
        for expected, actual in zip(reference, compiled):
            np.testing.assert_array_equal(expected.solutions.samples,
                                          actual.solutions.samples)
            np.testing.assert_array_equal(expected.solutions.num_occurrences,
                                          actual.solutions.num_occurrences)
            np.testing.assert_array_equal(expected.solutions.energies,
                                          actual.solutions.energies)


class TestCextCompileCache:
    """Satellite: the on-disk compile cache survives concurrent compiles."""

    def test_two_processes_cold_cache(self, tmp_path):
        """Two fresh processes warming cext on one cold cache — the race the
        process-pool serving workers hit — must both succeed and leave one
        (complete) artifact."""
        if not backends.cext_available():
            pytest.skip("no C compiler in this environment")
        repo_src = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(backends.__file__))))
        env = dict(os.environ,
                   XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=repo_src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        script = (
            "from repro.annealer import backends\n"
            "assert backends.cext_available()\n"
            "backends.warmup()\n"
        )
        processes = [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(2)
        ]
        exit_codes = [process.wait(timeout=300) for process in processes]
        assert exit_codes == [0, 0]
        artifacts = list((tmp_path / "repro_backends").glob("metropolis_*.so"))
        assert len(artifacts) == 1

    def test_compile_failure_tolerates_concurrent_winner(self, monkeypatch,
                                                         tmp_path):
        """When this process's compile fails but another process published
        the artifact mid-flight, the published artifact is used."""
        cache = tmp_path / "cache"
        monkeypatch.setattr(backends, "_cache_dir", lambda: cache)
        target = backends._cext_target()

        def racing_compiler(*args, **kwargs):
            # Simulate the concurrent winner: the target appears while this
            # process's own compiler invocation fails.
            cache.mkdir(parents=True, exist_ok=True)
            target.write_bytes(b"concurrent winner")
            raise subprocess.SubprocessError("simulated compiler failure")

        monkeypatch.setattr(subprocess, "run", racing_compiler)
        assert backends._compile_cext() == target
        assert target.read_bytes() == b"concurrent winner"

    def test_compile_failure_without_winner_returns_none(self, monkeypatch,
                                                         tmp_path):
        cache = tmp_path / "cache"
        monkeypatch.setattr(backends, "_cache_dir", lambda: cache)
        monkeypatch.setattr(backends, "_COMPILERS", ())
        assert backends._compile_cext() is None

    @staticmethod
    def fake_compiler(commands):
        def run(command, **kwargs):
            commands.append(command)
            with open(command[command.index("-o") + 1], "wb") as built:
                built.write(" ".join(command).encode())
        return run

    def test_artifact_is_named_by_source_and_build_line(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setattr(backends, "_cache_dir", lambda: tmp_path)
        here = backends._cext_target()
        with monkeypatch.context() as patch:
            patch.setattr(backends, "_CFLAGS", backends._CFLAGS + ("-g",))
            assert backends._cext_target() != here
        with monkeypatch.context() as patch:
            patch.setattr(backends, "_C_SOURCE", backends._C_SOURCE + "\n")
            assert backends._cext_target() != here

    def test_artifact_is_named_by_the_numpy_archive(self, monkeypatch,
                                                    tmp_path):
        """The artefact links NumPy's ``libnpyrandom.a``: another archive
        (another NumPy) is another build."""
        monkeypatch.setattr(backends, "_cache_dir", lambda: tmp_path)
        path, identity = backends._npyrandom()
        assert identity.startswith(path) and path.endswith("libnpyrandom.a")
        here = backends._cext_target()
        monkeypatch.setattr(backends, "_npyrandom",
                            lambda: (path, identity + "0"))
        assert backends._cext_target() != here

    def test_no_numpy_archive_no_artefact(self, monkeypatch, tmp_path):
        """Without ``libnpyrandom.a`` there is nothing to link the ICE draws
        against: the probe is false, as without a compiler, no compiler
        runs, and a decode takes the NumPy path — with its bits."""
        from repro.decoder.quamax import QuAMaxDecoder
        from repro.mimo.system import MimoUplink

        link = MimoUplink(num_users=2, constellation="QPSK")
        uses = [link.transmit(snr_db=15.0, random_state=seed)
                for seed in range(2)]

        def decode():
            machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(2, 2))
            decoder = QuAMaxDecoder(machine,
                                    AnnealerParameters(num_anneals=10))
            results = decoder.detect_batch(uses, random_state=3)
            entry, = machine._structures.values()
            sampler = entry.sampler
            return sampler.selected_backend, [result.detection.bits
                                              for result in results]

        _, expected = decode()
        commands = []
        monkeypatch.setattr(subprocess, "run",
                            self.fake_compiler(commands))
        monkeypatch.setattr(backends, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(backends, "_npyrandom", lambda: None)
        monkeypatch.setitem(backends._CEXT_STATE, "checked", False)
        monkeypatch.setitem(backends._CEXT_STATE, "lib", None)
        assert not backends.cext_available()
        assert backends._compile_cext() is None and commands == []
        path, bits = decode()
        assert path == "numpy"
        for got, want in zip(bits, expected, strict=True):
            np.testing.assert_array_equal(got, want)
