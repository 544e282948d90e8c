"""Tests for repro.modulation.constellation and mapper."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModulationError
from repro.modulation import (
    BPSK,
    QAM16,
    QAM64,
    QPSK,
    Constellation,
    SymbolMapper,
    get_constellation,
)


class TestConstellationBasics:
    @pytest.mark.parametrize("constellation,size,bits", [
        (BPSK, 2, 1), (QPSK, 4, 2), (QAM16, 16, 4), (QAM64, 64, 6),
    ])
    def test_sizes(self, constellation, size, bits):
        assert constellation.size == size
        assert constellation.bits_per_symbol == bits
        assert len(constellation) == size

    def test_bpsk_points(self):
        assert set(BPSK.points) == {-1 + 0j, 1 + 0j}

    def test_qpsk_points(self):
        assert set(QPSK.points) == {-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j}

    def test_qam16_lattice(self):
        reals = sorted({p.real for p in QAM16.points})
        assert reals == [-3, -1, 1, 3]
        imags = sorted({p.imag for p in QAM16.points})
        assert imags == [-3, -1, 1, 3]

    def test_qam16_points_distinct(self):
        assert len(set(QAM16.points)) == 16

    @pytest.mark.parametrize("constellation", [BPSK, QPSK, QAM16, QAM64])
    def test_average_energy_positive(self, constellation):
        assert constellation.average_energy > 0

    def test_qam16_average_energy(self):
        assert QAM16.average_energy == pytest.approx(10.0)

    def test_qpsk_average_energy(self):
        assert QPSK.average_energy == pytest.approx(2.0)

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ModulationError):
            Constellation(name="bad", bits_per_symbol=2, points=np.array([1, -1]))


class TestGrayLabelling:
    @pytest.mark.parametrize("constellation", [QPSK, QAM16, QAM64])
    def test_nearest_neighbours_differ_by_one_bit(self, constellation):
        # The defining property of a Gray-coded constellation.
        spacing = np.abs(constellation.points[:, None]
                         - constellation.points[None, :])
        min_distance = spacing[spacing > 0].min()
        for symbol in constellation.points:
            bits = constellation.symbol_to_bits(symbol)
            distances = np.abs(constellation.points - symbol)
            nearest = constellation.points[
                (distances > 0) & (distances <= min_distance + 1e-9)]
            for neighbour in nearest:
                other = constellation.symbol_to_bits(neighbour)
                assert int(np.count_nonzero(bits != other)) == 1


class TestMapping:
    @pytest.mark.parametrize("constellation", [BPSK, QPSK, QAM16, QAM64])
    def test_bits_symbol_roundtrip(self, constellation):
        for label in range(constellation.size):
            bits = np.array([(label >> (constellation.bits_per_symbol - 1 - k)) & 1
                             for k in range(constellation.bits_per_symbol)],
                            dtype=np.uint8)
            symbol = constellation.bits_to_symbol(bits)
            np.testing.assert_array_equal(constellation.symbol_to_bits(symbol), bits)

    def test_modulate_demodulate_roundtrip(self):
        rng = np.random.default_rng(0)
        for constellation in (BPSK, QPSK, QAM16, QAM64):
            bits = rng.integers(0, 2, size=constellation.bits_per_symbol * 5)
            symbols = [constellation.bits_to_symbol(group) for group
                       in bits.reshape(-1, constellation.bits_per_symbol)]
            np.testing.assert_array_equal(constellation.demodulate(symbols), bits)

    @pytest.mark.parametrize("bits", [[1], [1, 0, 1]])
    def test_bits_to_symbol_rejects_partial_symbol(self, bits):
        with pytest.raises(ConfigurationError, match="length 2"):
            QPSK.bits_to_symbol(bits)

    def test_symbol_to_bits_rejects_non_point(self):
        with pytest.raises(ModulationError):
            QPSK.symbol_to_bits(0.5 + 0.5j)

    def test_hard_decision_snaps_to_nearest(self):
        assert QAM16.hard_decision(2.6 + 0.4j) == 3 + 1j
        assert BPSK.hard_decision(-0.2) == -1

    def test_demodulate_empty(self):
        assert QPSK.demodulate([]).size == 0


class TestRegistry:
    @pytest.mark.parametrize("name,expected", [
        ("bpsk", "BPSK"), ("QPSK", "QPSK"), ("16-QAM", "16-QAM"),
        ("16qam", "16-QAM"), ("qam64", "64-QAM"),
    ])
    def test_lookup(self, name, expected):
        assert get_constellation(name).name == expected

    def test_unknown_rejected(self):
        with pytest.raises(ModulationError):
            get_constellation("256-QAM")


class TestSymbolMapper:
    def test_bits_per_channel_use(self):
        mapper = SymbolMapper(constellation=QPSK, num_users=5)
        assert mapper.bits_per_channel_use == 10

    def test_map_demap_roundtrip(self):
        mapper = SymbolMapper(constellation=QAM16, num_users=3)
        rng = np.random.default_rng(1)
        bits = mapper.random_bits(rng)
        symbols = mapper.map_bits(bits)
        assert symbols.shape == (3,)
        np.testing.assert_array_equal(
            mapper.constellation.demodulate(symbols), bits)

    def test_wrong_bit_count_rejected(self):
        mapper = SymbolMapper(constellation=BPSK, num_users=2)
        with pytest.raises(Exception):
            mapper.map_bits([1, 0, 1])

    def test_invalid_num_users(self):
        with pytest.raises(ModulationError):
            SymbolMapper(constellation=BPSK, num_users=0)

    def test_random_bits_shape_and_values(self):
        mapper = SymbolMapper(constellation=QPSK, num_users=4)
        bits = mapper.random_bits(np.random.default_rng(0), num_channel_uses=3)
        assert bits.size == 3 * 8
        assert set(np.unique(bits)) <= {0, 1}

    def test_random_bits_invalid_count(self):
        mapper = SymbolMapper(constellation=QPSK, num_users=4)
        with pytest.raises(ModulationError):
            mapper.random_bits(np.random.default_rng(0), num_channel_uses=0)
