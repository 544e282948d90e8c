"""Tests for the end-to-end QuAMax decoder."""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.ice import ICEModel
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.annealer.schedule import AnnealSchedule
from repro.decoder.quamax import QuAMaxDecoder, QuAMaxDetectionResult
from repro.detectors.base import DetectionResult
from repro.detectors.ml import ExhaustiveMLDetector
from repro.exceptions import DetectionError
from repro.metrics.ttb import InstanceSolutionProfile
from repro.mimo.system import MimoUplink
from repro.transform.reduction import MLToIsingReducer


@pytest.fixture(scope="module")
def quiet_machine():
    """A small, noise-free machine for exact-decoding assertions."""
    return QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6),
                                    ice=ICEModel.disabled())


@pytest.fixture(scope="module")
def noisy_machine():
    """A small machine with the paper's ICE statistics."""
    return QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6))


class TestQuAMaxDecoding:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 8), ("QPSK", 4), ("16-QAM", 2),
    ])
    def test_noise_free_machine_decodes_noiseless_channel(self, quiet_machine,
                                                          constellation,
                                                          num_users):
        link = MimoUplink(num_users=num_users, constellation=constellation)
        channel_use = link.transmit(random_state=1)
        decoder = QuAMaxDecoder(
            quiet_machine,
            AnnealerParameters(schedule=AnnealSchedule(1.0, 1.0), num_anneals=40),
            random_state=0)
        result = decoder.detect(channel_use)
        np.testing.assert_array_equal(result.bits, channel_use.transmitted_bits)

    def test_matches_ml_detector_under_awgn(self, quiet_machine):
        link = MimoUplink(num_users=4, constellation="QPSK")
        channel_use = link.transmit(snr_db=12.0, random_state=2)
        decoder = QuAMaxDecoder(
            quiet_machine,
            AnnealerParameters(schedule=AnnealSchedule(2.0, 2.0), num_anneals=60),
            random_state=0)
        quamax = decoder.detect(channel_use)
        ml = ExhaustiveMLDetector().detect(channel_use)
        np.testing.assert_array_equal(quamax.bits, ml.bits)
        assert quamax.metric == pytest.approx(ml.metric, rel=1e-9)

    def test_detect_with_run_exposes_statistics(self, noisy_machine):
        link = MimoUplink(num_users=6, constellation="BPSK")
        channel_use = link.transmit(random_state=3)
        decoder = QuAMaxDecoder(noisy_machine,
                                AnnealerParameters(num_anneals=25),
                                random_state=1)
        outcome = decoder.detect_with_run(channel_use)
        assert isinstance(outcome, QuAMaxDetectionResult)
        assert isinstance(outcome.detection, DetectionResult)
        assert outcome.detection.detector == "quamax"
        assert outcome.run.num_anneals == 25
        assert 0 <= outcome.run.ground_state_probability() <= 1
        assert outcome.run.compute_time_us > 0
        assert 0 <= outcome.run.broken_chain_fraction <= 1
        # The run's figures live on the run alone, not copied into extra.
        assert outcome.detection.extra == {}

    def test_solution_profile_usable_for_ttb(self, noisy_machine):
        link = MimoUplink(num_users=6, constellation="BPSK")
        channel_use = link.transmit(random_state=4)
        decoder = QuAMaxDecoder(noisy_machine,
                                AnnealerParameters(num_anneals=30),
                                random_state=2)
        outcome = decoder.detect_with_run(channel_use)
        profile = InstanceSolutionProfile.from_anneal_result(outcome.run,
                                                             outcome.reduced)
        assert isinstance(profile, InstanceSolutionProfile)
        assert profile.num_bits == channel_use.num_bits
        assert np.isfinite(profile.expected_ber(10))

    def test_deterministic_given_seed(self, noisy_machine):
        link = MimoUplink(num_users=4, constellation="QPSK")
        channel_use = link.transmit(snr_db=20.0, random_state=5)
        parameters = AnnealerParameters(num_anneals=15)
        first = QuAMaxDecoder(noisy_machine, parameters).detect_with_run(
            channel_use, random_state=9)
        second = QuAMaxDecoder(noisy_machine, parameters).detect_with_run(
            channel_use, random_state=9)
        np.testing.assert_array_equal(first.detection.bits, second.detection.bits)
        assert first.run.best_energy == second.run.best_energy

    def test_per_call_parameter_override(self, noisy_machine):
        link = MimoUplink(num_users=4, constellation="BPSK")
        channel_use = link.transmit(random_state=6)
        decoder = QuAMaxDecoder(noisy_machine,
                                AnnealerParameters(num_anneals=10))
        outcome = decoder.detect_with_run(
            channel_use, parameters=AnnealerParameters(num_anneals=7))
        assert outcome.run.num_anneals == 7

    def test_rejects_wide_channel(self, noisy_machine):
        from repro.mimo.system import ChannelUse
        from repro.modulation import QPSK
        wide = ChannelUse(channel=np.ones((2, 3), dtype=complex),
                          received=np.zeros(2, dtype=complex),
                          constellation=QPSK)
        decoder = QuAMaxDecoder(noisy_machine)
        with pytest.raises(DetectionError):
            decoder.detect(wide)

    def test_gray_mapping_for_16qam_end_to_end(self, quiet_machine):
        # The decoded bits must already be Gray-translated, i.e. equal to the
        # transmitter's bits, not the raw QUBO labels.
        link = MimoUplink(num_users=2, constellation="16-QAM")
        channel_use = link.transmit(random_state=7)
        decoder = QuAMaxDecoder(
            quiet_machine,
            AnnealerParameters(schedule=AnnealSchedule(2.0, 2.0), num_anneals=60),
            random_state=3)
        result = decoder.detect(channel_use)
        np.testing.assert_array_equal(result.bits, channel_use.transmitted_bits)


# --------------------------------------------------------------------------- #
# Result assembly: the pack pass against the per-job oracle
# --------------------------------------------------------------------------- #
def oracle_detection(outcome):
    """The per-job assembly ``_assemble_pack`` replaced: one
    ``decode_spins`` and one validating ``DetectionResult`` per run."""
    bits, symbols, metric = outcome.reduced.decode_spins(
        outcome.run.solutions.best_sample)
    return DetectionResult(symbols=symbols, bits=bits, metric=metric,
                           detector="quamax")


def assert_detection_identical(got, want):
    for name in ("symbols", "bits"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    assert type(got.metric) is type(want.metric) is float
    assert got.metric == want.metric
    assert got.detector == want.detector
    assert list(got.extra.items()) == list(want.extra.items())
    assert ([type(value) for value in got.extra.values()]
            == [type(value) for value in want.extra.values()])


def transmissions(constellation, num_users, count, seed):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    rng = np.random.default_rng(seed)
    return [link.transmit(snr_db=14.0, random_state=rng)
            for _ in range(count)]


class TestPackAssembly:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 6), ("QPSK", 3), ("16-QAM", 2), ("64-QAM", 1),
    ])
    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("reads", [1, 50])
    def test_every_field_equals_the_per_job_oracle(self, noisy_machine,
                                                   constellation, num_users,
                                                   count, reads):
        parameters = AnnealerParameters(num_anneals=reads,
                                        chain_strength=3.0)
        decoder = QuAMaxDecoder(noisy_machine, parameters)
        outcomes = decoder.detect_batch(
            transmissions(constellation, num_users, count, seed=40),
            random_state=41)
        assert len(outcomes) == count
        for outcome in outcomes:
            assert_detection_identical(outcome.detection,
                                       oracle_detection(outcome))

    @pytest.mark.parametrize("constellation,num_users", [
        ("QPSK", 3), ("16-QAM", 3), ("BPSK", 13)])
    def test_a_redecoded_read_is_the_oracles_and_its_own(
            self, noisy_machine, constellation, num_users):
        """A one-job pack decoded twice from the same stream — its best read
        looked up in the modulation's code tables both times — equals the
        per-job oracle each time, and the second decode owns its arrays."""
        decoder = QuAMaxDecoder(noisy_machine,
                                AnnealerParameters(num_anneals=50))
        use, = transmissions(constellation, num_users, 1, seed=42)
        first, second = (decoder.detect_with_run(use, random_state=43)
                         for _ in range(2))
        for outcome in (first, second):
            assert_detection_identical(outcome.detection,
                                       oracle_detection(outcome))
        for name in ("symbols", "bits"):
            assert not np.shares_memory(getattr(first.detection, name),
                                        getattr(second.detection, name))

    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 6), ("QPSK", 3), ("16-QAM", 2), ("64-QAM", 1),
    ])
    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("reads", [1, 50])
    def test_batch_equals_per_job_detect_with_run(self, noisy_machine,
                                                  constellation, num_users,
                                                  count, reads):
        """The pack's two edges moved (one stacked reduction in, one C call
        for the starting configuration); every job still gets exactly what
        a one-job ``detect_with_run`` on its own stream gives it, and the
        problem the per-job reduction builds."""
        parameters = AnnealerParameters(num_anneals=reads,
                                        chain_strength=3.0)
        decoder = QuAMaxDecoder(noisy_machine, parameters)
        uses = transmissions(constellation, num_users, count, seed=40)
        outcomes = decoder.detect_batch(uses, random_states=range(count))
        for seed, (channel_use, outcome) in enumerate(zip(uses, outcomes)):
            alone = decoder.detect_with_run(channel_use, random_state=seed)
            assert_detection_identical(outcome.detection, alone.detection)
            for name in ("samples", "energies", "num_occurrences"):
                a = getattr(outcome.run.solutions, name)
                b = getattr(alone.run.solutions, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            reference = MLToIsingReducer().reduce(channel_use).ising
            problem = outcome.reduced.ising
            assert problem.linear.tobytes() == reference.linear.tobytes()
            assert (problem.coupling_values.tobytes()
                    == reference.coupling_values.tobytes())
            assert problem.offset == reference.offset

    def test_single_run_is_the_pack_of_one(self, noisy_machine):
        parameters = AnnealerParameters(num_anneals=20)
        decoder = QuAMaxDecoder(noisy_machine, parameters)
        channel_use, = transmissions("16-QAM", 2, 1, seed=42)
        outcome = decoder.detect_with_run(channel_use, random_state=43)
        assert_detection_identical(outcome.detection,
                                   oracle_detection(outcome))
        again, = decoder._assemble_pack([outcome.reduced], [outcome.run])
        assert_detection_identical(again.detection, outcome.detection)

    def test_one_group_mixing_constellations(self, noisy_machine):
        """2-user QPSK and 4-user BPSK both reduce to 4-variable complete
        graphs — one structure key; interleaved in one ``detect_batch`` each
        job must still be decoded under its own transform."""
        qpsk = transmissions("QPSK", 2, 3, seed=44)
        bpsk = transmissions("BPSK", 4, 3, seed=45)
        mixed = [qpsk[0], bpsk[0], bpsk[1], qpsk[1], qpsk[2], bpsk[2]]
        reducer = MLToIsingReducer()
        assert len({(reducer.reduce(use).ising.num_variables,
                     reducer.reduce(use).ising.coupling_keys)
                    for use in mixed}) == 1
        parameters = AnnealerParameters(num_anneals=30)
        decoder = QuAMaxDecoder(noisy_machine, parameters)
        outcomes = decoder.detect_batch(mixed, random_states=range(6))
        for seed, (channel_use, outcome) in enumerate(zip(mixed, outcomes)):
            assert outcome.reduced.channel_use is channel_use
            assert outcome.detection.symbols.size == channel_use.num_tx
            assert_detection_identical(outcome.detection,
                                       oracle_detection(outcome))
            alone = decoder.detect_with_run(channel_use, random_state=seed)
            assert_detection_identical(outcome.detection, alone.detection)
