"""Quantum-annealer hardware model: topology, embedding, noise and sampling.

This package is the software stand-in for the D-Wave 2000Q used in the paper.
It reproduces the machine-facing workflow end to end — Chimera topology with
manufacturing defects, clique minor-embedding with chain strength ``|J_F|``
and extended dynamic range, intrinsic control error (ICE) on the programmed
coefficients, an annealing schedule with optional pause, stochastic sampling,
and majority-vote unembedding — so that every experiment of the paper can be
run without access to the physical QPU.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".chimera": ("ChimeraGraph", "PegasusLikeGraph"),
    ".embedding": (
        "Embedding", "TriangleCliqueEmbedder", "embedding_qubit_counts"),
    ".embedded": ("EmbeddedIsing", "embed_ising"),
    ".engine": ("BlockDiagonalSampler", "IsingSampler"),
    ".ice": ("ICEModel",),
    ".schedule": ("AnnealSchedule",),
    ".machine": (
        "AnnealerParameters", "AnnealResult", "QuantumAnnealerSimulator"),
    ".parallel": ("parallelization_factor",),
    ".unembed": ("unembed_samples",),
})

__all__ = [
    "ChimeraGraph",
    "PegasusLikeGraph",
    "BlockDiagonalSampler",
    "IsingSampler",
    "Embedding",
    "TriangleCliqueEmbedder",
    "embedding_qubit_counts",
    "EmbeddedIsing",
    "embed_ising",
    "ICEModel",
    "AnnealSchedule",
    "AnnealerParameters",
    "AnnealResult",
    "QuantumAnnealerSimulator",
    "parallelization_factor",
    "unembed_samples",
]
