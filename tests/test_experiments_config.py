"""Tests for experiment configuration and the scenario runner."""

import numpy as np
import pytest

from repro.annealer.machine import QuantumAnnealerSimulator
from repro.channel.models import RandomPhaseChannel
from repro.decoder.quamax import QuAMaxDecoder
from repro.experiments.config import ExperimentConfig, MimoScenario
from repro.experiments.runner import InstanceRecord, ScenarioRunner, format_table


class TestMimoScenario:
    def test_labels(self):
        assert MimoScenario("QPSK", 18).label == "18x18 QPSK (noiseless)"
        assert MimoScenario("bpsk", 48, 20.0).label == "48x48 BPSK @ 20 dB"

    def test_invalid_modulation(self):
        with pytest.raises(Exception):
            MimoScenario("8PSK", 4)

    def test_invalid_users(self):
        with pytest.raises(Exception):
            MimoScenario("BPSK", 0)


class TestExperimentConfig:
    def test_presets(self):
        quick = ExperimentConfig.quick()
        paper = ExperimentConfig.paper_scale()
        assert quick.num_instances < paper.num_instances
        assert quick.num_anneals < paper.num_anneals

    def test_scaled_override(self):
        config = ExperimentConfig().scaled(num_instances=2, num_anneals=10)
        assert config.num_instances == 2
        assert config.num_anneals == 10
        assert config.seed == ExperimentConfig().seed

    def test_build_annealer(self):
        config = ExperimentConfig(chip_cells=4)
        annealer = config.build_annealer()
        assert isinstance(annealer, QuantumAnnealerSimulator)
        assert annealer.num_qubits == 4 * 4 * 8

    def test_channel_model_default(self):
        config = ExperimentConfig()
        model = config.channel_model(MimoScenario("BPSK", 4))
        assert isinstance(model, RandomPhaseChannel)

    def test_validation(self):
        with pytest.raises(Exception):
            ExperimentConfig(num_instances=0)
        with pytest.raises(Exception):
            ExperimentConfig(chip_cells=20)


class TestScenarioRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        config = ExperimentConfig(num_instances=2, num_anneals=15, chip_cells=6)
        return ScenarioRunner(config)

    def test_channel_uses_are_deterministic(self, runner):
        scenario = MimoScenario("BPSK", 6)
        a = runner.make_channel_use(scenario, 0)
        b = runner.make_channel_use(scenario, 0)
        np.testing.assert_array_equal(a.received, b.received)
        np.testing.assert_array_equal(a.transmitted_bits, b.transmitted_bits)

    def test_different_instances_differ(self, runner):
        scenario = MimoScenario("BPSK", 6)
        a = runner.make_channel_use(scenario, 0)
        b = runner.make_channel_use(scenario, 1)
        assert not np.array_equal(a.received, b.received)

    def test_snr_respected(self, runner):
        scenario = MimoScenario("QPSK", 4, 20.0)
        channel_use = runner.make_channel_use(scenario, 0)
        assert channel_use.snr_db == 20.0
        assert channel_use.noise_variance > 0

    def test_default_parameters_reflect_config(self, runner):
        parameters = runner.default_parameters()
        assert parameters.num_anneals == 15
        assert parameters.chain_strength == runner.config.chain_strength
        override = runner.default_parameters(chain_strength=9.0)
        assert override.chain_strength == 9.0

    def test_run_scenario_produces_records(self, runner):
        record, = runner.run_scenario(MimoScenario("BPSK", 6), num_instances=1)
        assert isinstance(record, InstanceRecord)
        assert record.bit_errors >= 0
        assert record.profile.num_bits == 6
        assert record.tts() > 0
        assert record.ttb(1e-6) > 0

    def test_run_scenario_count(self, runner):
        records = runner.run_scenario(MimoScenario("BPSK", 4), num_instances=2)
        assert len(records) == 2

    def test_given_channel_uses_are_the_instances(self, runner):
        scenario = MimoScenario("BPSK", 4, 10.0)
        uses = [runner.make_channel_use(scenario, index) for index in (0, 1)]
        given = runner.run_scenario(scenario, channel_uses=uses)
        generated = runner.run_scenario(scenario, num_instances=2)
        assert [r.instance_index for r in given] == [0, 1]
        for use, got, want in zip(uses, given, generated):
            assert got.outcome.reduced.channel_use is use
            np.testing.assert_array_equal(got.outcome.run.solutions.samples,
                                          want.outcome.run.solutions.samples)

    @staticmethod
    def one_job_record(runner, scenario, index):
        """Instance *index* decoded alone: a one-job ``detect_batch`` on its
        own ``"qa-run"`` stream."""
        parameters = runner.default_parameters()
        outcome = QuAMaxDecoder(runner.annealer, parameters).detect_with_run(
            runner.make_channel_use(scenario, index), parameters,
            random_state=runner._qa_rng(scenario, index))
        return runner._record(scenario, index, outcome)

    @pytest.mark.parametrize("scenario", [
        MimoScenario("BPSK", 12), MimoScenario("QPSK", 6),
        MimoScenario("BPSK", 12, 10.0), MimoScenario("16-QAM", 3, 20.0)])
    def test_run_scenario_is_the_one_job_runs(self, scenario):
        """``run_scenario`` decodes its instances as ONE ``detect_batch``
        pack; every record must be the one its instance gets decoded alone
        (the end-to-end figure tests' configuration), and a one-instance
        ``run_scenario`` is that one-job decode."""
        config = ExperimentConfig(num_instances=2, num_anneals=30,
                                  chip_cells=8, seed=21)
        packed = ScenarioRunner(config).run_scenario(scenario)
        alone = [self.one_job_record(ScenarioRunner(config), scenario, index)
                 for index in range(config.num_instances)]
        alone[0:1] = ScenarioRunner(config).run_scenario(scenario,
                                                         num_instances=1)
        assert len(packed) == len(alone)
        for got, want in zip(packed, alone):
            assert (got.scenario, got.instance_index) == (
                want.scenario, want.instance_index)
            assert got.ground_truth_energy == want.ground_truth_energy
            assert got.outcome.detection.metric == want.outcome.detection.metric
            for name in ("bits", "symbols"):
                np.testing.assert_array_equal(
                    getattr(got.outcome.detection, name),
                    getattr(want.outcome.detection, name))
            for name in ("samples", "energies", "num_occurrences"):
                a = getattr(got.outcome.run.solutions, name)
                b = getattr(want.outcome.run.solutions, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    def test_runs_are_reproducible(self):
        config = ExperimentConfig(num_instances=1, num_anneals=10, chip_cells=6)
        first, = ScenarioRunner(config).run_scenario(MimoScenario("BPSK", 6))
        second, = ScenarioRunner(config).run_scenario(MimoScenario("BPSK", 6))
        assert first.outcome.run.best_energy == second.outcome.run.best_energy
        np.testing.assert_array_equal(first.outcome.detection.bits,
                                      second.outcome.detection.bits)


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", float("inf")]],
                            title="Title")
        assert "Title" in text
        assert "a" in text and "b" in text
        assert "inf" in text

    def test_number_formatting(self):
        text = format_table(["v"], [[0.000123456]])
        assert "0.000123" in text
