"""End-to-end integration tests crossing every layer of the library.

These tests exercise the full paper pipeline — transmit, reduce, embed,
anneal, unembed, post-translate, score — and the cross-detector consistency
properties that tie the reproduction back to the paper's claims.
"""

import numpy as np
import pytest

from repro import (
    AnnealerParameters,
    AnnealSchedule,
    ChimeraGraph,
    ExhaustiveMLDetector,
    ICEModel,
    MimoUplink,
    QuantumAnnealerSimulator,
    QuAMaxDecoder,
    SphereDecoder,
    ZeroForcingDetector,
)
from repro.channel import ArgosLikeTraceGenerator, RandomPhaseChannel, TraceChannel
from repro.ising import BruteForceIsingSolver
from repro.metrics import InstanceSolutionProfile, bit_error_rate, time_to_solution
from repro.transform import MLToIsingReducer


class TestDetectorAgreement:
    """All exact detectors must agree: brute-force ML, Sphere, Ising ground state."""

    @pytest.mark.parametrize("constellation,num_users,snr_db", [
        ("BPSK", 6, 10.0), ("QPSK", 3, 12.0), ("16-QAM", 2, 15.0),
        ("BPSK", 6, None), ("QPSK", 3, None),
    ])
    def test_three_way_agreement(self, constellation, num_users, snr_db):
        link = MimoUplink(num_users=num_users, constellation=constellation)
        channel_use = link.transmit(snr_db=snr_db, random_state=31)
        ml = ExhaustiveMLDetector().detect(channel_use)
        sphere = SphereDecoder().detect(channel_use)
        reduced = MLToIsingReducer().reduce(channel_use)
        ground = BruteForceIsingSolver(max_variables=12).solve(reduced.ising)
        ising_bits = reduced.bits_from_spins(ground.best_sample)
        np.testing.assert_array_equal(ml.bits, sphere.bits)
        np.testing.assert_array_equal(ml.bits, ising_bits)
        assert ground.best_energy == pytest.approx(ml.metric, rel=1e-9, abs=1e-9)


class TestFullQuamaxPipeline:
    def test_quamax_beats_zero_forcing_on_poorly_conditioned_channel(self):
        # The paper's central comparison (Fig. 14) in miniature: at a square,
        # moderate-SNR operating point, QuAMax (ML) makes fewer errors than ZF.
        link = MimoUplink(num_users=8, constellation="BPSK",
                          channel_model=RandomPhaseChannel())
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6))
        decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=50),
                                random_state=0)
        zero_forcing = ZeroForcingDetector()
        rng = np.random.default_rng(1)
        quamax_errors, zf_errors, total = 0, 0, 0
        for _ in range(4):
            channel_use = link.transmit(snr_db=10.0, random_state=rng)
            quamax_errors += np.count_nonzero(
                decoder.detect(channel_use).bits != channel_use.transmitted_bits)
            zf_errors += np.count_nonzero(
                zero_forcing.detect(channel_use).bits
                != channel_use.transmitted_bits)
            total += channel_use.num_bits
        assert quamax_errors <= zf_errors

    def test_modulation_order_hardness_at_fixed_logical_size(self):
        # Fig. 4's qualitative claim: at a fixed number of logical qubits the
        # ground-state probability drops from BPSK to QPSK to 16-QAM.
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(8, 8))
        decoder_parameters = AnnealerParameters(num_anneals=60)
        probabilities = {}
        for constellation, num_users in (("BPSK", 16), ("16-QAM", 4)):
            link = MimoUplink(num_users=num_users, constellation=constellation,
                              channel_model=RandomPhaseChannel())
            values = []
            for seed in range(2):
                channel_use = link.transmit(random_state=40 + seed)
                reduced = MLToIsingReducer().reduce(channel_use)
                decoder = QuAMaxDecoder(machine, decoder_parameters,
                                        random_state=seed)
                outcome = decoder.detect_with_run(channel_use)
                truth_energy = reduced.ising.energy(reduced.ground_truth_spins())
                values.append(outcome.run.ground_state_probability(truth_energy))
            probabilities[constellation] = np.mean(values)
        assert probabilities["BPSK"] >= probabilities["16-QAM"]

    def test_ttb_pipeline_produces_finite_time_for_easy_problem(self):
        link = MimoUplink(num_users=8, constellation="BPSK",
                          channel_model=RandomPhaseChannel())
        channel_use = link.transmit(random_state=3)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6))
        decoder = QuAMaxDecoder(
            machine,
            AnnealerParameters(schedule=AnnealSchedule(1.0, 1.0), num_anneals=60),
            random_state=0)
        outcome = decoder.detect_with_run(channel_use)
        profile = InstanceSolutionProfile.from_anneal_result(outcome.run,
                                                             outcome.reduced)
        ttb = profile.time_to_ber(1e-6)
        assert np.isfinite(ttb)
        assert ttb >= profile.anneal_duration_us / profile.parallelization

    def test_trace_driven_pipeline(self):
        trace = ArgosLikeTraceGenerator(num_bs_antennas=24, num_users=4,
                                        num_subcarriers=8).generate(
            num_frames=2, random_state=0)
        link = MimoUplink(num_users=4, constellation="QPSK",
                          channel_model=TraceChannel(trace))
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6),
                                           ice=ICEModel.disabled())
        decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=40),
                                random_state=0)
        channel_use = link.transmit(snr_db=30.0, random_state=4)
        result = decoder.detect(channel_use)
        assert bit_error_rate(channel_use.transmitted_bits, result.bits) <= 0.25

    def test_tts_improves_with_more_anneal_time_noise_free(self):
        link = MimoUplink(num_users=10, constellation="BPSK",
                          channel_model=RandomPhaseChannel())
        channel_use = link.transmit(random_state=5)
        reduced = MLToIsingReducer().reduce(channel_use)
        truth_energy = reduced.ising.energy(reduced.ground_truth_spins())
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6),
                                           ice=ICEModel.disabled())
        probabilities = []
        for anneal_time in (1.0, 8.0):
            parameters = AnnealerParameters(
                schedule=AnnealSchedule(anneal_time_us=anneal_time),
                num_anneals=40)
            run = machine.run(reduced.ising, parameters, random_state=2)
            probabilities.append(run.ground_state_probability(truth_energy))
        assert probabilities[1] >= probabilities[0]


class TestReproducibilityAcrossLayers:
    def test_same_seed_same_everything(self):
        def run_once():
            link = MimoUplink(num_users=6, constellation="QPSK",
                              channel_model=RandomPhaseChannel())
            channel_use = link.transmit(snr_db=20.0, random_state=77)
            machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6))
            decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=20),
                                    random_state=7)
            outcome = decoder.detect_with_run(channel_use)
            return outcome.detection.bits, outcome.run.best_energy

        bits_a, energy_a = run_once()
        bits_b, energy_b = run_once()
        np.testing.assert_array_equal(bits_a, bits_b)
        assert energy_a == energy_b
