"""The QuAMax core: reduction of ML MIMO detection to QUBO / Ising form.

This package implements the paper's primary contribution (Section 3):

* the per-modulation QuAMax symbol transforms ``T(q)`` mapping QUBO solution
  variables onto constellation symbols (:mod:`repro.transform.symbols`);
* the generic ML-to-QUBO reduction obtained by expanding
  ``||y - H T(q)||^2`` (:mod:`repro.transform.qubo_builder`);
* the closed-form Ising coefficients of Eqs. 6-8 and Appendix C, which build
  the Ising problem directly from ``H`` and ``y`` without an explicit norm
  expansion (:mod:`repro.transform.ising_coeffs`);
* the bitwise post-translation reconciling the QuAMax labelling with the
  transmitter's Gray coding (:mod:`repro.transform.posttranslate`);
* the :class:`~repro.transform.reduction.MLToIsingReducer` facade used by the
  end-to-end decoder.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".symbols": ("QuamaxTransform", "get_transform"),
    ".qubo_builder": ("build_ml_qubo",),
    ".ising_coeffs": ("build_ml_ising",),
    ".posttranslate": (
        "gray_to_quamax_bits", "intermediate_code", "quamax_to_gray_bits"),
    ".reduction": ("MLToIsingReducer", "ReducedProblem"),
})

__all__ = [
    "QuamaxTransform",
    "get_transform",
    "build_ml_qubo",
    "build_ml_ising",
    "quamax_to_gray_bits",
    "gray_to_quamax_bits",
    "intermediate_code",
    "MLToIsingReducer",
    "ReducedProblem",
]
