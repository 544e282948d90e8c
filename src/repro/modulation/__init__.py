"""Digital modulation: constellations, Gray coding, bit/symbol (de)mapping.

The transmitter side of QuAMax uses conventional Gray-coded constellations
(Fig. 2(d) of the paper); the receiver's QuAMax transform lives in
:mod:`repro.transform` and maps QUBO solution variables onto the same symbol
lattice with a different (natural-binary) labelling.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".constellation": (
        "BPSK", "QAM16", "QAM64", "QPSK", "Constellation", "get_constellation"),
    ".gray": (
        "binary_to_gray", "bits_from_int", "bits_to_int", "gray_decode",
        "gray_encode", "gray_to_binary"),
    ".mapper": ("SymbolMapper",),
})

__all__ = [
    "Constellation",
    "BPSK",
    "QPSK",
    "QAM16",
    "QAM64",
    "get_constellation",
    "SymbolMapper",
    "gray_encode",
    "gray_decode",
    "binary_to_gray",
    "gray_to_binary",
    "bits_to_int",
    "bits_from_int",
]
