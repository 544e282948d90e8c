"""Quantum-annealer hardware model: topology, embedding, noise and sampling.

This package is the software stand-in for the D-Wave 2000Q used in the paper.
It reproduces the machine-facing workflow end to end — Chimera topology with
manufacturing defects, clique minor-embedding with chain strength ``|J_F|``
and extended dynamic range, intrinsic control error (ICE) on the programmed
coefficients, an annealing schedule with optional pause, stochastic sampling,
and majority-vote unembedding — so that every experiment of the paper can be
run without access to the physical QPU.
"""

from repro.annealer.chimera import ChimeraGraph, PegasusLikeGraph
from repro.annealer.embedding import Embedding, TriangleCliqueEmbedder, embedding_qubit_counts
from repro.annealer.embedded import EmbeddedIsing, embed_ising
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.ice import ICEModel
from repro.annealer.schedule import AnnealSchedule
from repro.annealer.machine import AnnealerParameters, AnnealResult, QuantumAnnealerSimulator
from repro.annealer.parallel import parallelization_factor
from repro.annealer.unembed import unembed_samples

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
