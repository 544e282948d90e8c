"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper through the
corresponding driver in :mod:`repro.experiments`, using a reduced
configuration (fewer instances, fewer anneals, a smaller simulated chip) so
the whole suite completes in minutes.  Set ``QUAMAX_BENCH_SCALE=paper`` in the
environment to run the drivers at a statistical weight closer to the paper's
(much slower).

The tracked ``benchmarks/output/*.txt`` are the quick-scale tables,
declared goldens: a regenerated table must equal its file byte for byte.
After an *intentional* change to a table, rewrite the files with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest benchmarks

and commit them with a changelog note.  At ``QUAMAX_BENCH_SCALE=paper`` the
tables are written without comparing.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.experiments.config import ExperimentConfig  # noqa: E402

#: Directory where each benchmark drops its regenerated table.
OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def _paper_scale() -> bool:
    return os.environ.get("QUAMAX_BENCH_SCALE", "quick") == "paper"


def _bench_config() -> ExperimentConfig:
    if _paper_scale():
        return ExperimentConfig.paper_scale()
    return ExperimentConfig(num_instances=3, num_anneals=60, chip_cells=10,
                            seed=2019)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration shared by all benchmarks."""
    return _bench_config()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    """Directory for regenerated tables."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def record_table(output_dir):
    """Check a regenerated table against benchmarks/output/<name>.txt, or
    write it there (``UPDATE_GOLDENS=1``, or paper scale)."""
    update = os.environ.get("UPDATE_GOLDENS", "").strip().lower()

    def _record(name: str, text: str) -> None:
        path = output_dir / f"{name}.txt"
        text += "\n"
        if update not in ("", "0", "false", "no") or _paper_scale():
            path.write_text(text, encoding="utf-8")
            return
        assert path.exists(), (
            f"table golden {name!r} is missing; generate it with "
            f"UPDATE_GOLDENS=1 and commit benchmarks/output/{name}.txt")
        assert text == path.read_text(encoding="utf-8"), (
            f"benchmarks/output/{name}.txt differs from the regenerated "
            "table; after an intentional change rewrite it with "
            "UPDATE_GOLDENS=1")
    return _record
