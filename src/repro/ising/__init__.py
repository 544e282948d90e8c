"""Ising / QUBO problem representations and classical reference solvers."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".model": ("IsingModel", "QUBOModel", "bits_to_spins", "spins_to_bits"),
    ".solver": (
        "BruteForceIsingSolver", "SimulatedAnnealingSolver", "SolverResult"),
})

__all__ = [
    "IsingModel",
    "QUBOModel",
    "bits_to_spins",
    "spins_to_bits",
    "BruteForceIsingSolver",
    "SimulatedAnnealingSolver",
    "SolverResult",
]
