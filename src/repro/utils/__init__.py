"""Shared utilities: RNG handling, validation helpers, linear algebra."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".random": ("RandomState", "child_rngs", "ensure_rng", "spawn_seed"),
    ".validation": (
        "check_integer_in_range", "check_positive", "check_probability",
        "ensure_bit_array", "ensure_complex_matrix", "ensure_complex_vector"),
})

__all__ = [
    "RandomState",
    "child_rngs",
    "ensure_rng",
    "spawn_seed",
    "check_integer_in_range",
    "check_positive",
    "check_probability",
    "ensure_bit_array",
    "ensure_complex_matrix",
    "ensure_complex_vector",
]
