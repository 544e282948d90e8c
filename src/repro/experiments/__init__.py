"""Experiment drivers regenerating every table and figure of the paper.

Each module exposes a ``run(config)`` function returning a result dataclass
plus a ``format_table(result)`` helper that prints the same rows/series the
paper reports.  The benchmark suite under ``benchmarks/`` calls these drivers
with reduced instance counts; passing a larger
:class:`~repro.experiments.config.ExperimentConfig` reproduces the full-size
study.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".config": ("ExperimentConfig", "MimoScenario"),
    ".runner": ("InstanceRecord", "ScenarioRunner"),
}, submodules=(
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "table1", "table2",
))

__all__ = [
    "ExperimentConfig",
    "MimoScenario",
    "ScenarioRunner",
    "InstanceRecord",
    "table1",
    "table2",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
]
