"""Golden-digest regression tests for seeded end-to-end decode outputs.

Between the seed revision and PR 1 the per-subcarrier child-stream derivation
changed seeded pipeline outputs *silently* — nothing failed, the numbers just
moved.  These tests freeze the seeded outputs of the decode paths (and of the
sampler streams underneath them) as committed SHA-256 digests in
``tests/goldens/``, so the next stream change fails loudly and has to be
acknowledged by regenerating the fixtures (``UPDATE_GOLDENS=1``) and
documenting the move in CHANGES.md.

The digests also pin the packing identity: the packed decodes of a seed
must hash to the outputs of decoding its subcarriers one job at a time.
Every single-block sequential cext call here sweeps as two lane halves on
two threads (the ``every_block_splits`` fixture): the goldens hold for it.
"""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.engine import IsingSampler
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.decoder.pipeline import (
    FrameResult,
    OFDMDecodingPipeline,
    PipelineReport,
)
from repro.decoder.quamax import QuAMaxDecoder
from repro.ising.model import IsingModel
from repro.ising.solver import (
    SimulatedAnnealingSolver,
    geometric_temperature_schedule,
)
from repro.mimo.frame import Frame
from repro.mimo.system import MimoUplink
from repro.utils.random import child_rngs, ensure_rng

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
        "bits_accumulated": result.frame.bits_accumulated,
        "bit_errors": result.frame.bit_errors(),
        "total_compute_time_us": result.total_compute_time_us,
        "subcarriers": report_payload(result),
    }


def one_job_report(decoder, channel_uses):
    """``decode_subcarriers``' report from one-job decodes, each subcarrier
    on its own child stream of :data:`SEED`: what the pack must equal."""
    report = PipelineReport()
    children = child_rngs(ensure_rng(SEED), len(channel_uses))
    for subcarrier, (use, child) in enumerate(zip(channel_uses, children)):
        report.subcarrier_results.append(
            OFDMDecodingPipeline._subcarrier_result(
                subcarrier, use, decoder.detect_with_run(
                    use, random_state=child)))
    return report


def one_job_frame(decoder, channel_uses):
    """``decode_frame``'s result from one-job decodes, stopping at the
    channel use that completes the frame."""
    frame, accumulated = Frame(size_bytes=FRAME_BYTES), []
    for result in one_job_report(decoder, channel_uses).subcarrier_results:
        if frame.is_complete:
            break
        frame.add(result.result.reduced.channel_use.transmitted_bits,
                  result.result.detection.bits)
        accumulated.append(result)
    return FrameResult(frame, accumulated, num_decoded=len(accumulated))


class TestGoldenDigests:
    # The four decode goldens' names are historical: "decode_subcarriers"
    # and "decode_frame_chunked" hold the one-job decodes, the other two the
    # packed ones.  Each pair has always been one digest.
    def test_decode_subcarriers(self, pipeline, channel_uses, golden):
        golden("decode_subcarriers", report_payload(
            one_job_report(pipeline.decoder, channel_uses)))

    def test_decode_subcarriers_batched(self, pipeline, channel_uses, golden,
                                        array_digest):
        packed = pipeline.decode_subcarriers(channel_uses, random_state=SEED)
        # The pack must hash to the very same outputs as one job at a time...
        assert (array_digest(report_payload(packed))
                == array_digest(report_payload(
                    one_job_report(pipeline.decoder, channel_uses))))
        # ...and that shared stream is itself frozen.
        golden("decode_subcarriers_batched", report_payload(packed))

    def test_decode_frame_chunked(self, pipeline, channel_uses, golden):
        golden("decode_frame_chunked", frame_payload(
            one_job_frame(pipeline.decoder, channel_uses)))

    def test_decode_frame_auto_chunked(self, pipeline, channel_uses, golden,
                                       array_digest):
        # The running estimate must sit on the very same seeded stream as
        # the one-job early-exit decode (same child-stream derivation, no
        # draws added or dropped, no use decoded past the exit point), and
        # that stream is frozen.
        alone = one_job_frame(pipeline.decoder, channel_uses)
        packed = pipeline.decode_frame(channel_uses,
                                       frame_size_bytes=FRAME_BYTES,
                                       random_state=SEED)
        assert packed.num_decoded == alone.num_decoded
        assert (array_digest(frame_payload(packed))
                == array_digest(frame_payload(alone)))
        golden("decode_frame_auto_chunked", frame_payload(packed))

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
        # The counter contract's cross-path clause: both paths must hash
        # to the same frozen counter stream it recorded.
        rng = np.random.default_rng(SEED)
        n = 16
        ising = IsingModel(
            num_variables=n,
            linear=rng.normal(size=n),
            couplings={(i, j): float(rng.normal())
                       for i in range(n) for j in range(i + 1, n)})
        solver = SimulatedAnnealingSolver(
            num_sweeps=80, num_reads=40, rng="counter")
        result = solver.sample(ising, random_state=SEED)
        golden("counter_dense_sampler_stream", {
            "samples": result.samples,
            "energies": result.energies,
            "occurrences": result.num_occurrences,
        })

    def test_counter_embedded_cluster_stream_per_backend(self, golden):
        ising, clusters = _path_chain_embedded_problem()
        sampler = IsingSampler(ising, clusters=clusters, rng="counter")
        spins = sampler.anneal(
            geometric_temperature_schedule(50, 5.0, 0.05), 12,
            random_state=SEED)
        golden("counter_embedded_cluster_sampler_stream", {"spins": spins})

    def test_decode_goldens_per_backend(self, channel_uses, golden):
        # With the four sampler streams above this puts all eight frozen
        # digests under both paths by name: one-job decodes, one pack
        # dispatch and the frame decode.
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=25),
                                random_state=0)
        pipeline = OFDMDecodingPipeline(decoder)
        golden("decode_subcarriers", report_payload(
            one_job_report(decoder, channel_uses)))
        golden("decode_subcarriers_batched", report_payload(
            pipeline.decode_subcarriers(channel_uses, random_state=SEED)))
        frame = pipeline.decode_frame(channel_uses,
                                      frame_size_bytes=FRAME_BYTES,
                                      random_state=SEED)
        for name in ("decode_frame_chunked", "decode_frame_auto_chunked"):
            golden(name, frame_payload(frame))
