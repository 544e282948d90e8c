"""Ablation benchmark: extended versus standard coupler dynamic range.

Beyond the paper's Fig. 5 sweep, this ablation fixes the chain strength at
the deployment default and asks how much the extended range alone buys in
decoded bit errors and in ground-state probability — the design choice
DESIGN.md calls out for the embedded-problem compiler.
"""

import numpy as np

from benchmarks.common import run_once

from repro.experiments.config import MimoScenario
from repro.experiments.runner import ScenarioRunner


def _run_ablation(bench_config):
    runner = ScenarioRunner(bench_config)
    scenario = MimoScenario("QPSK", 12, snr_db=None)
    outcomes = {}
    for extended in (False, True):
        parameters = runner.default_parameters(extended_range=extended)
        records = runner.run_scenario(scenario, parameters)
        outcomes[extended] = {
            "bit_errors": float(np.mean([r.bit_errors for r in records])),
            "ground_state_probability": float(np.median([
                r.outcome.run.ground_state_probability(r.ground_truth_energy)
                for r in records])),
            "broken_chains": float(np.mean([
                r.outcome.run.broken_chain_fraction for r in records])),
        }
    return outcomes


def test_ablation_extended_dynamic_range(benchmark, bench_config, record_table):
    outcomes = run_once(benchmark, _run_ablation, bench_config)
    lines = ["Ablation: coupler dynamic range (12x12 QPSK, default |J_F|)"]
    for extended, stats in outcomes.items():
        name = "extended" if extended else "standard"
        lines.append(f"  {name:>8}: mean bit errors {stats['bit_errors']:.2f}, "
                     f"median P0 {stats['ground_state_probability']:.3f}, "
                     f"broken chains {stats['broken_chains']:.4f}")
    record_table("ablation_dynamic_range", "\n".join(lines))

    # The extended range must not decode worse than the standard range at the
    # same fixed chain strength (the reason the paper enables it by default).
    assert (outcomes[True]["bit_errors"]
            <= outcomes[False]["bit_errors"] + 1.0)
    assert (outcomes[True]["ground_state_probability"]
            >= outcomes[False]["ground_state_probability"] - 0.1)
