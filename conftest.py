"""Pytest path bootstrap and golden-digest helpers.

Path bootstrap: makes the ``src`` layout importable even when the package has
not been installed (e.g. a fully offline checkout where ``pip install -e .``
is not possible); an installed copy always takes precedence because ``src``
is appended rather than prepended when the package is already importable.

Golden digests: seeded end-to-end outputs (decode paths, sampler streams) are
frozen as SHA-256 digests under ``tests/goldens/``.  Any change to a random
draw order — adding a draw, reordering kernels, re-deriving child streams —
changes the digest and fails the suite loudly instead of silently changing
seeded outputs (which is what happened, undetected, between the seed revision
and PR 1).  After an *intentional* stream change, regenerate the fixtures
with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_digests.py

and commit the refreshed ``tests/goldens/*.json`` together with a changelog
note explaining why seeded outputs moved.
"""

import contextlib
import hashlib
import json
import os
import sys

import numpy as np
import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_HERE, "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401  (already installed somewhere)
    except ImportError:
        sys.path.insert(0, _SRC)

GOLDENS_DIR = os.path.join(_HERE, "tests", "goldens")


def pytest_configure(config):
    """A ``RuntimeWarning`` (an ``inf - inf``, a ``0 / 0``, an overflow) is
    a failure, in tier-1 and in every suite run from this root: fix the
    arithmetic that raises it rather than filter it.  So is a leaked file
    handle: a ``ResourceWarning``, or the
    ``PytestUnraisableExceptionWarning`` it reaches pytest as when it is
    raised in a ``__del__``."""
    for category in ("RuntimeWarning", "ResourceWarning",
                     "pytest.PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # the property suites importorskip it themselves
    pass
else:
    # CI weight for the suites that leave their example count to the profile
    # (tests/test_cran_properties.py): ``--hypothesis-profile=ten-fold``.
    _hypothesis_settings.register_profile(
        "ten-fold",
        max_examples=10 * _hypothesis_settings.default.max_examples)


#: Decimal places floats are rounded to before hashing.  Coarse enough to
#: absorb BLAS/platform summation-order noise (~1e-15 relative), fine enough
#: that any real trajectory change lands on different digits.
_FLOAT_DECIMALS = 9


def _canonical_chunks(value):
    """Yield stable byte chunks for *value* (arrays, scalars, containers)."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield repr(key).encode()
            yield from _canonical_chunks(value[key])
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _canonical_chunks(item)
        return
    array = np.asarray(value)
    yield str(array.shape).encode()
    if array.dtype.kind in "iub":
        yield array.astype(np.int64).tobytes()
    elif array.dtype.kind == "f":
        rounded = np.round(array.astype(np.float64), _FLOAT_DECIMALS)
        # Normalise the two float zeros so -0.0 and 0.0 hash identically.
        yield (rounded + 0.0).tobytes()
    elif array.dtype.kind == "c":
        yield from _canonical_chunks(array.real)
        yield from _canonical_chunks(array.imag)
    else:
        yield repr(array.tolist()).encode()


def compute_digest(payload) -> str:
    """SHA-256 hex digest of a canonicalised payload of (nested) arrays."""
    digest = hashlib.sha256()
    for chunk in _canonical_chunks(payload):
        digest.update(chunk)
    return digest.hexdigest()


@pytest.fixture
def array_digest():
    """The canonical digest function, for in-test digest comparisons."""
    return compute_digest


@pytest.fixture
def golden():
    """Compare a payload digest against its committed golden fixture.

    Usage: ``golden("name", payload)``.  With ``UPDATE_GOLDENS=1`` in the
    environment the fixture is (re)written instead of checked.
    """

    def check(name: str, payload) -> None:
        digest = compute_digest(payload)
        path = os.path.join(GOLDENS_DIR, f"{name}.json")
        update = os.environ.get("UPDATE_GOLDENS", "").strip().lower()
        if update not in ("", "0", "false", "no"):
            os.makedirs(GOLDENS_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"name": name, "sha256": digest}, handle, indent=2)
                handle.write("\n")
            return
        assert os.path.exists(path), (
            f"golden fixture {name!r} is missing; generate it with "
            f"UPDATE_GOLDENS=1 and commit tests/goldens/{name}.json"
        )
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)["sha256"]
        assert digest == recorded, (
            f"seeded output of {name!r} changed: digest {digest} != recorded "
            f"{recorded}.  If this RNG-stream change is intentional, "
            f"regenerate with UPDATE_GOLDENS=1 and document it in CHANGES.md; "
            f"otherwise a draw was added, dropped or reordered somewhere."
        )

    return check


@pytest.fixture
def every_block_splits(monkeypatch):
    """Every cext batch call sweeps on two threads — a pack of
    several blocks, of either draw discipline, as two block ranges
    (``backends._shards``), one sequential block of two or more replicas as
    two lane halves
    (``backends._lane_half_call``): two usable CPUs whatever the host, no
    size gate, and halves that wait for each other however long (no
    decline, no stall, no stand-down).  Bits must not notice."""
    from repro.annealer import backends

    monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
    monkeypatch.setattr(backends, "_SPLIT_SPINS", 0)
    monkeypatch.setattr(backends, "_STALL_BUDGET", -1)
    monkeypatch.setitem(backends.LANE_SPLITS, "resting", 0)
    monkeypatch.setitem(backends._STALL, "clean", backends._STAND_DOWN_RESET)
    return backends.LANE_SPLITS


def drop_artefact(patch):
    """Run as a box without a C compiler does: the artefact probe finds
    nothing, so the sweep and every pack stage take their NumPy path, the
    reference."""
    from repro.annealer import backends

    patch.setattr(backends, "_load_cext", lambda: None)


@pytest.fixture(params=["cext", "numpy"])
def artefact(request, monkeypatch):
    """Every case once per path: on the C artefact (skipped where no
    compiler builds it) and on the NumPy path (:func:`drop_artefact`)."""
    from repro.annealer import backends

    if request.param == "numpy":
        drop_artefact(monkeypatch)
    elif not backends.cext_available():
        pytest.skip("no C compiler builds the artefact here")
    return request.param


@pytest.fixture
def on_numpy():
    """``with on_numpy(): ...`` runs its block on the NumPy path, for cases
    that hold it to the artefact inside one test."""

    @contextlib.contextmanager
    def numpy_path():
        with pytest.MonkeyPatch.context() as patch:
            drop_artefact(patch)
            yield

    return numpy_path
