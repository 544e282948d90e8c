"""QuAMax reproduction: quantum-annealing ML MIMO detection for C-RAN.

A from-scratch Python implementation of the system described in
"Leveraging Quantum Annealing for Large MIMO Processing in Centralized Radio
Access Networks" (Kim, Venturelli, Jamieson — SIGCOMM 2019): the ML-to-Ising
reduction, a full software model of the D-Wave 2000Q front end (Chimera
topology, clique embedding, ICE noise, pause schedules), classical baseline
detectors, and the TTS / TTB / TTF evaluation harness that regenerates every
table and figure of the paper's evaluation.

Quick start::

    from repro import MimoUplink, QuAMaxDecoder

    link = MimoUplink(num_users=4, constellation="QPSK")
    channel_use = link.transmit(snr_db=20.0, random_state=1)
    decoder = QuAMaxDecoder()
    result = decoder.detect(channel_use)
    print(result.bits, channel_use.transmitted_bits)

Every name loads with its module on first use (:mod:`repro._lazy`), so
importing one part of the package does not import the rest.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "repro.annealer": (
        "AnnealerParameters", "AnnealResult", "AnnealSchedule",
        "ChimeraGraph", "Embedding", "ICEModel", "QuantumAnnealerSimulator",
        "TriangleCliqueEmbedder"),
    "repro.channel": (
        "ArgosLikeTraceGenerator", "ChannelTrace", "RandomPhaseChannel",
        "RayleighChannel", "TraceChannel"),
    "repro.cran": (
        "CranService", "DecodeJob", "EDFBatchScheduler", "JobResult",
        "PoissonTrafficGenerator", "ServiceReport", "TelemetryRecorder",
        "WorkerPool"),
    "repro.decoder": ("OFDMDecodingPipeline", "QuAMaxDecoder"),
    "repro.detectors": (
        "ExhaustiveMLDetector", "MMSEDetector", "SphereDecoder",
        "ZeroForcingDetector"),
    "repro.ising": (
        "BruteForceIsingSolver", "IsingModel", "QUBOModel",
        "SimulatedAnnealingSolver"),
    "repro.metrics": ("InstanceSolutionProfile", "time_to_solution"),
    "repro.mimo": ("Frame", "MimoUplink", "frame_error_rate_from_ber"),
    "repro.modulation": (
        "BPSK", "QAM16", "QAM64", "QPSK", "Constellation",
        "get_constellation"),
    "repro.transform": ("MLToIsingReducer", "build_ml_ising", "build_ml_qubo"),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # modulation
    "Constellation", "BPSK", "QPSK", "QAM16", "QAM64", "get_constellation",
    # channel
    "RayleighChannel", "RandomPhaseChannel", "TraceChannel",
    "ArgosLikeTraceGenerator", "ChannelTrace",
    # mimo
    "MimoUplink", "Frame", "frame_error_rate_from_ber",
    # detectors
    "ZeroForcingDetector", "MMSEDetector", "ExhaustiveMLDetector", "SphereDecoder",
    # ising
    "IsingModel", "QUBOModel", "BruteForceIsingSolver", "SimulatedAnnealingSolver",
    # transform / core
    "MLToIsingReducer", "build_ml_ising", "build_ml_qubo",
    # annealer
    "ChimeraGraph", "TriangleCliqueEmbedder", "Embedding", "ICEModel",
    "AnnealSchedule", "AnnealerParameters", "AnnealResult",
    "QuantumAnnealerSimulator",
    # decoder
    "QuAMaxDecoder", "OFDMDecodingPipeline",
    # cran serving
    "DecodeJob", "JobResult", "EDFBatchScheduler", "WorkerPool",
    "PoissonTrafficGenerator", "TelemetryRecorder", "CranService",
    "ServiceReport",
    # metrics
    "InstanceSolutionProfile", "time_to_solution",
]
