"""Golden-digest regression tests for seeded end-to-end decode outputs.

Between the seed revision and PR 1 the per-subcarrier child-stream derivation
changed seeded pipeline outputs *silently* — nothing failed, the numbers just
moved.  These tests freeze the seeded outputs of the decode paths (and of the
sampler streams underneath them) as committed SHA-256 digests in
``tests/goldens/``, so the next stream change fails loudly and has to be
acknowledged by regenerating the fixtures (``UPDATE_GOLDENS=1``) and
documenting the move in CHANGES.md.

The digests also pin the cross-path contracts: serial, batched and chunked
decodes of the same seed must all hash to the same per-subcarrier outputs.
Every single-block sequential cext call here sweeps as two lane halves on
two threads (the ``every_block_splits`` fixture): the goldens hold for it.
"""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.engine import IsingSampler
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.decoder.pipeline import OFDMDecodingPipeline
from repro.decoder.quamax import QuAMaxDecoder
from repro.ising.model import IsingModel
from repro.ising.solver import (
    SimulatedAnnealingSolver,
    geometric_temperature_schedule,
)
from repro.mimo.system import MimoUplink

pytestmark = pytest.mark.usefixtures("every_block_splits")

SEED = 2019
NUM_SUBCARRIERS = 6
FRAME_BYTES = 3


def _path_chain_embedded_problem(num_variables=128, chain_length=16):
    """The embedded 128-variable path-chain workload of the cluster benches.

    Built through the shared cluster_workloads builder so the golden digest
    pins
    exactly the problem family the equivalence and backend suites exercise.
    """
    from cluster_workloads import build_path_chain_problem

    return build_path_chain_problem(num_variables, chain_length, SEED,
                                    density=0.05)


@pytest.fixture(scope="module")
def pipeline():
    machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
    decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=25),
                            random_state=0)
    return OFDMDecodingPipeline(decoder)


@pytest.fixture(scope="module")
def channel_uses():
    link = MimoUplink(num_users=3, constellation="QPSK")
    rng = np.random.default_rng(SEED)
    return [link.transmit(snr_db=18.0, random_state=rng)
            for _ in range(NUM_SUBCARRIERS)]


def report_payload(report):
    """Canonical payload of a :class:`PipelineReport` for digesting."""
    return [
        {
            "subcarrier": result.subcarrier,
            "bits": result.result.detection.bits,
            "samples": result.result.run.solutions.samples,
            "occurrences": result.result.run.solutions.num_occurrences,
            "energies": result.result.run.solutions.energies,
            "bit_errors": result.bit_errors,
        }
        for result in report.subcarrier_results
    ]


def frame_payload(result):
    """Canonical payload of a :class:`FrameResult` for digesting."""
    return {
        "bits_accumulated": result.bits_accumulated,
        "bit_errors": result.bit_errors(),
        "total_compute_time_us": result.total_compute_time_us,
        "subcarriers": report_payload(result),
    }


class TestGoldenDigests:
    def test_decode_subcarriers(self, pipeline, channel_uses, golden):
        report = pipeline.decode_subcarriers(channel_uses, random_state=SEED)
        golden("decode_subcarriers", report_payload(report))

    def test_decode_subcarriers_batched(self, pipeline, channel_uses, golden,
                                        array_digest):
        serial = pipeline.decode_subcarriers(channel_uses, random_state=SEED)
        batched = pipeline.decode_subcarriers_batched(channel_uses,
                                                      random_state=SEED)
        # The batched path must hash to the very same outputs as serial...
        assert (array_digest(report_payload(batched))
                == array_digest(report_payload(serial)))
        # ...and that shared stream is itself frozen.
        golden("decode_subcarriers_batched", report_payload(batched))

    def test_decode_frame_chunked(self, pipeline, channel_uses, golden,
                                  array_digest):
        serial = pipeline.decode_frame(channel_uses,
                                       frame_size_bytes=FRAME_BYTES,
                                       random_state=SEED)
        chunked = pipeline.decode_frame(channel_uses,
                                        frame_size_bytes=FRAME_BYTES,
                                        random_state=SEED,
                                        batched=True, chunk_size=2)
        assert (array_digest(frame_payload(chunked))
                == array_digest(frame_payload(serial)))
        golden("decode_frame_chunked", frame_payload(chunked))

    def test_decode_frame_auto_chunked(self, pipeline, channel_uses, golden,
                                       array_digest):
        # The adaptive mode must sit on the very same seeded stream as the
        # serial early-exit decode (same child-stream derivation, no draws
        # added or dropped by the estimator), and that stream is frozen.
        serial = pipeline.decode_frame(channel_uses,
                                       frame_size_bytes=FRAME_BYTES,
                                       random_state=SEED)
        auto = pipeline.decode_frame(channel_uses,
                                     frame_size_bytes=FRAME_BYTES,
                                     random_state=SEED,
                                     batched=True, chunk_size="auto")
        assert auto.num_decoded == serial.num_decoded
        assert (array_digest(frame_payload(auto))
                == array_digest(frame_payload(serial)))
        golden("decode_frame_auto_chunked", frame_payload(auto))

    def test_embedded_cluster_sampler_stream(self, golden):
        # Guards the cluster-kernel stream: the embedded 128-variable
        # path-chain workload (ferromagnetic chains of 16 + sparse cross
        # couplings, chain clusters offered collective flips), recorded
        # through the numpy reference loops.  Both paths must hash to this
        # same stream (class below).
        ising, clusters = _path_chain_embedded_problem()
        sampler = IsingSampler(ising, clusters=clusters)
        spins = sampler.anneal(
            geometric_temperature_schedule(50, 5.0, 0.05), 12,
            random_state=SEED)
        golden("embedded_cluster_sampler_stream", {"spins": spins})

    def test_dense_kernel_sampler_stream(self, golden):
        # Guards the engine-level stream the decode paths sit on: a dense
        # logical problem (a complete graph, every colour class a
        # singleton) sampled by the SA solver.  The fixture is named after
        # the dense sequential-sweep kernel it was recorded under; the
        # colour kernel visits singletons in the same order with the same
        # draws and reproduces it byte for byte.
        rng = np.random.default_rng(SEED)
        n = 16
        ising = IsingModel(
            num_variables=n,
            linear=rng.normal(size=n),
            couplings={(i, j): float(rng.normal())
                       for i in range(n) for j in range(i + 1, n)})
        solver = SimulatedAnnealingSolver(num_sweeps=80, num_reads=40)
        result = solver.sample(ising, random_state=SEED)
        golden("dense_kernel_sampler_stream", {
            "samples": result.samples,
            "energies": result.energies,
            "occurrences": result.num_occurrences,
        })

    def test_counter_dense_sampler_stream(self, golden):
        # Freezes the counter-mode (keyed Philox) stream of the same dense
        # problem as the sequential golden above, annealed under
        # rng="counter".  A *separate* fixture on purpose — the counter
        # contract is its own exact stream, and any change to the Philox
        # packing, key derivation or acceptance rule must fail loudly here
        # without touching the sequential goldens.
        rng = np.random.default_rng(SEED)
        n = 16
        ising = IsingModel(
            num_variables=n,
            linear=rng.normal(size=n),
            couplings={(i, j): float(rng.normal())
                       for i in range(n) for j in range(i + 1, n)})
        solver = SimulatedAnnealingSolver(num_sweeps=80, num_reads=40,
                                          rng="counter")
        result = solver.sample(ising, random_state=SEED)
        golden("counter_dense_sampler_stream", {
            "samples": result.samples,
            "energies": result.energies,
            "occurrences": result.num_occurrences,
        })

    def test_counter_embedded_cluster_sampler_stream(self, golden):
        # Freezes the counter-mode cluster stream of the embedded
        # path-chain workload (the fused colour+cluster counter kernel).
        ising, clusters = _path_chain_embedded_problem()
        sampler = IsingSampler(ising, clusters=clusters, rng="counter")
        spins = sampler.anneal(
            geometric_temperature_schedule(50, 5.0, 0.05), 12,
            random_state=SEED)
        golden("counter_embedded_cluster_sampler_stream", {"spins": spins})


@pytest.mark.usefixtures("artefact")
class TestGoldenDigestsAcrossBackends:
    """Both paths must hash to the very same frozen streams, each case once
    per path (``artefact``).

    The committed goldens were recorded from the numpy reference loops;
    the C artefact consumes the same draws, so its seeded outputs must
    land on identical digests — no per-path fixtures exist on purpose.
    """

    def test_dense_kernel_sampler_stream_per_backend(self, golden):
        rng = np.random.default_rng(SEED)
        n = 16
        ising = IsingModel(
            num_variables=n,
            linear=rng.normal(size=n),
            couplings={(i, j): float(rng.normal())
                       for i in range(n) for j in range(i + 1, n)})
        solver = SimulatedAnnealingSolver(num_sweeps=80, num_reads=40)
        result = solver.sample(ising, random_state=SEED)
        golden("dense_kernel_sampler_stream", {
            "samples": result.samples,
            "energies": result.energies,
            "occurrences": result.num_occurrences,
        })

    def test_embedded_cluster_sampler_stream_per_backend(self, golden):
        ising, clusters = _path_chain_embedded_problem()
        sampler = IsingSampler(ising, clusters=clusters)
        spins = sampler.anneal(
            geometric_temperature_schedule(50, 5.0, 0.05), 12,
            random_state=SEED)
        golden("embedded_cluster_sampler_stream", {"spins": spins})

    def test_counter_dense_sampler_stream_per_backend(self, golden):
        # The counter contract's cross-path clause: both paths (at any
        # thread count — 2 here, which the NumPy reference ignores) must
        # hash to the same frozen counter stream it recorded.
        rng = np.random.default_rng(SEED)
        n = 16
        ising = IsingModel(
            num_variables=n,
            linear=rng.normal(size=n),
            couplings={(i, j): float(rng.normal())
                       for i in range(n) for j in range(i + 1, n)})
        solver = SimulatedAnnealingSolver(
            num_sweeps=80, num_reads=40, rng="counter", threads=2)
        result = solver.sample(ising, random_state=SEED)
        golden("counter_dense_sampler_stream", {
            "samples": result.samples,
            "energies": result.energies,
            "occurrences": result.num_occurrences,
        })

    def test_counter_embedded_cluster_stream_per_backend(self, golden):
        ising, clusters = _path_chain_embedded_problem()
        sampler = IsingSampler(ising, clusters=clusters, rng="counter",
                               threads=2)
        spins = sampler.anneal(
            geometric_temperature_schedule(50, 5.0, 0.05), 12,
            random_state=SEED)
        golden("counter_embedded_cluster_sampler_stream", {"spins": spins})

    def test_decode_goldens_per_backend(self, channel_uses, golden):
        # With the four sampler streams above this puts all eight frozen
        # digests under both paths by name: serial (single-problem
        # dispatches), batched (one pack dispatch) and both chunked frame
        # decodes.
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=25),
                                random_state=0)
        pipeline = OFDMDecodingPipeline(decoder)
        golden("decode_subcarriers", report_payload(
            pipeline.decode_subcarriers(channel_uses, random_state=SEED)))
        golden("decode_subcarriers_batched", report_payload(
            pipeline.decode_subcarriers_batched(channel_uses,
                                                random_state=SEED)))
        for name, chunk_size in (("decode_frame_chunked", 2),
                                 ("decode_frame_auto_chunked", "auto")):
            golden(name, frame_payload(pipeline.decode_frame(
                channel_uses, frame_size_bytes=FRAME_BYTES,
                random_state=SEED, batched=True, chunk_size=chunk_size)))
