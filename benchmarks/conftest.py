"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper through the
corresponding driver in :mod:`repro.experiments`, using a reduced
configuration (fewer instances, fewer anneals, a smaller simulated chip) so
the whole suite completes in minutes.  Set ``QUAMAX_BENCH_SCALE=paper`` in the
environment to run the drivers at a statistical weight closer to the paper's
(much slower).

The printed tables of each run are written to the tracked
``benchmarks/output/*.txt``, so a regenerated number can be quoted from, and
diffed against, a concrete file.
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


def _bench_config() -> ExperimentConfig:
    scale = os.environ.get("QUAMAX_BENCH_SCALE", "quick")
    if scale == "paper":
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
    """Write a regenerated table to benchmarks/output/<name>.txt."""
    def _record(name: str, text: str) -> None:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
    return _record
