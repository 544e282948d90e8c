"""Tests for the exhaustive ML detector and the Sphere Decoder."""

import numpy as np
import pytest

from repro.channel.models import RayleighChannel
from repro.detectors.ml import ExhaustiveMLDetector
from repro.detectors.sphere import SphereDecoder
from repro.exceptions import DetectionError
from repro.mimo.system import MimoUplink


def make_channel_use(num_users, constellation, snr_db, seed):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    return link.transmit(snr_db=snr_db, random_state=seed)


class TestExhaustiveML:
    def test_candidate_count(self):
        channel_use = make_channel_use(3, "QPSK", 20.0, 0)
        assert ExhaustiveMLDetector().candidate_count(channel_use) == 64

    def test_recovers_bits_at_high_snr(self):
        channel_use = make_channel_use(3, "QPSK", 30.0, 1)
        result = ExhaustiveMLDetector().detect(channel_use)
        np.testing.assert_array_equal(result.bits, channel_use.transmitted_bits)

    def test_noiseless_metric_is_zero(self):
        channel_use = make_channel_use(2, "16-QAM", None, 2)
        result = ExhaustiveMLDetector().detect(channel_use)
        assert result.metric == pytest.approx(0.0, abs=1e-18)

    def test_candidate_limit_enforced(self):
        channel_use = make_channel_use(8, "16-QAM", 20.0, 3)
        detector = ExhaustiveMLDetector(max_candidates=1000)
        with pytest.raises(DetectionError):
            detector.detect(channel_use)

    def test_metric_is_global_minimum(self):
        channel_use = make_channel_use(2, "QPSK", 10.0, 4)
        result = ExhaustiveMLDetector().detect(channel_use)
        constellation = channel_use.constellation
        rng = np.random.default_rng(0)
        for _ in range(50):
            candidate = rng.choice(constellation.points, size=2)
            metric = np.linalg.norm(
                channel_use.received - channel_use.channel @ candidate) ** 2
            assert metric >= result.metric - 1e-9


class TestSphereDecoder:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 6), ("QPSK", 4), ("16-QAM", 2),
    ])
    def test_matches_exhaustive_ml(self, constellation, num_users):
        for seed in range(4):
            channel_use = make_channel_use(num_users, constellation, 12.0, seed)
            sphere = SphereDecoder().detect(channel_use)
            exact = ExhaustiveMLDetector().detect(channel_use)
            assert sphere.metric == pytest.approx(exact.metric, rel=1e-9)
            np.testing.assert_array_equal(sphere.bits, exact.bits)

    def test_visited_nodes_reported(self):
        channel_use = make_channel_use(4, "QPSK", 15.0, 0)
        decoder = SphereDecoder()
        result = decoder.detect(channel_use)
        assert result.extra["visited_nodes"] > 0
        assert decoder.last_stats.visited_nodes == result.extra["visited_nodes"]
        assert decoder.last_stats.leaves_reached >= 1
        assert decoder.last_stats.final_radius == pytest.approx(result.metric)

    def test_stats_are_per_detection(self):
        large = make_channel_use(5, "QPSK", 12.0, 3)
        small = make_channel_use(2, "QPSK", 12.0, 4)
        decoder = SphereDecoder()
        decoder.detect(large)
        result = decoder.detect(small)
        fresh = SphereDecoder()
        fresh.detect(small)
        # Nothing carries over from the first search.
        assert decoder.last_stats == fresh.last_stats
        assert decoder.last_stats.visited_nodes == result.extra["visited_nodes"]

    def test_visited_nodes_fewer_than_exhaustive(self):
        channel_use = make_channel_use(6, "QPSK", 15.0, 1)
        result = SphereDecoder().detect(channel_use)
        assert result.extra["visited_nodes"] < 4 ** 6

    def test_complexity_grows_with_users(self):
        # The Table 1 phenomenon: node counts blow up with system size.
        def mean_nodes(num_users):
            counts = []
            for seed in range(5):
                channel_use = make_channel_use(num_users, "BPSK", 13.0, seed)
                counts.append(SphereDecoder().detect(
                    channel_use).extra["visited_nodes"])
            return np.mean(counts)

        assert mean_nodes(12) < mean_nodes(20)

    def test_node_budget_enforced(self):
        channel_use = make_channel_use(10, "QPSK", 5.0, 2)
        decoder = SphereDecoder(max_visited_nodes=5)
        with pytest.raises(DetectionError):
            decoder.detect(channel_use)

    def test_initial_radius_too_small_raises(self):
        channel_use = make_channel_use(3, "QPSK", 20.0, 3)
        decoder = SphereDecoder(initial_radius=1e-15)
        with pytest.raises(DetectionError):
            decoder.detect(channel_use)

    def test_initial_radius_large_enough_succeeds(self):
        channel_use = make_channel_use(3, "QPSK", 20.0, 3)
        unbounded = SphereDecoder().detect(channel_use)
        bounded = SphereDecoder(initial_radius=unbounded.metric * 2 + 1.0).detect(
            channel_use)
        np.testing.assert_array_equal(bounded.bits, unbounded.bits)

    def test_invalid_parameters(self):
        with pytest.raises(DetectionError):
            SphereDecoder(initial_radius=-1.0)
        with pytest.raises(DetectionError):
            SphereDecoder(max_visited_nodes=0)

    def test_tall_channel_supported(self):
        link = MimoUplink(num_users=3, constellation="QPSK", num_rx_antennas=6)
        channel_use = link.transmit(snr_db=15.0, random_state=0)
        sphere = SphereDecoder().detect(channel_use)
        exact = ExhaustiveMLDetector().detect(channel_use)
        assert sphere.metric == pytest.approx(exact.metric, rel=1e-9)
