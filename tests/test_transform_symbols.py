"""Tests for repro.transform.symbols (QuAMax symbol transforms)."""

import numpy as np
import pytest

from repro.exceptions import ReductionError
from repro.modulation import BPSK, QAM16, QAM64, QPSK
from repro.transform.symbols import (
    BPSK_TRANSFORM,
    QAM16_TRANSFORM,
    QAM64_TRANSFORM,
    QPSK_TRANSFORM,
    QuamaxTransform,
    get_transform,
)


class TestTransformDefinitions:
    def test_bpsk_formula(self):
        # T(q) = 2q - 1 (Section 3.2.1).
        assert BPSK_TRANSFORM.to_symbol([0]) == -1
        assert BPSK_TRANSFORM.to_symbol([1]) == 1

    def test_qpsk_formula(self):
        # T(q) = (2q1 - 1) + j(2q2 - 1).
        assert QPSK_TRANSFORM.to_symbol([0, 0]) == -1 - 1j
        assert QPSK_TRANSFORM.to_symbol([0, 1]) == -1 + 1j
        assert QPSK_TRANSFORM.to_symbol([1, 0]) == 1 - 1j
        assert QPSK_TRANSFORM.to_symbol([1, 1]) == 1 + 1j

    def test_qam16_formula(self):
        # T(q) = (4q1 + 2q2 - 3) + j(4q3 + 2q4 - 3).
        assert QAM16_TRANSFORM.to_symbol([0, 0, 0, 0]) == -3 - 3j
        assert QAM16_TRANSFORM.to_symbol([1, 1, 1, 1]) == 3 + 3j
        assert QAM16_TRANSFORM.to_symbol([1, 0, 0, 1]) == 1 - 1j
        assert QAM16_TRANSFORM.to_symbol([0, 1, 1, 0]) == -1 + 1j

    def test_qam64_formula(self):
        assert QAM64_TRANSFORM.to_symbol([0, 0, 0, 0, 0, 0]) == -7 - 7j
        assert QAM64_TRANSFORM.to_symbol([1, 1, 1, 1, 1, 1]) == 7 + 7j
        assert QAM64_TRANSFORM.to_symbol([0, 1, 1, 0, 0, 0]) == -1 - 7j
        assert QAM64_TRANSFORM.to_symbol([1, 0, 1, 0, 1, 1]) == 3 - 1j

    @pytest.mark.parametrize("transform,constellation", [
        (BPSK_TRANSFORM, BPSK), (QPSK_TRANSFORM, QPSK),
        (QAM16_TRANSFORM, QAM16), (QAM64_TRANSFORM, QAM64),
    ])
    def test_image_is_exactly_the_constellation(self, transform, constellation):
        # The transform must cover every constellation point exactly once.
        bits_per_symbol = transform.bits_per_symbol
        symbols = set()
        for value in range(1 << bits_per_symbol):
            bits = [(value >> (bits_per_symbol - 1 - k)) & 1
                    for k in range(bits_per_symbol)]
            symbols.add(transform.to_symbol(bits))
        assert symbols == set(complex(p) for p in constellation.points)

    @pytest.mark.parametrize("transform", [
        BPSK_TRANSFORM, QPSK_TRANSFORM, QAM16_TRANSFORM, QAM64_TRANSFORM,
    ])
    def test_spin_form_has_zero_mean(self, transform):
        # offset + sum(weights)/2 == 0, the property that makes the spin-form
        # coefficients (Eqs. 6-8) have no constant per-variable shift.
        center = transform.offset + sum(transform.weights) / 2.0
        assert center == pytest.approx(0.0)


class TestTransformOperations:
    def test_to_symbols_multiple_users(self):
        symbols = QPSK_TRANSFORM.to_symbols([1, 1, 0, 0])
        np.testing.assert_array_equal(symbols, [1 + 1j, -1 - 1j])

    def test_to_symbols_rejects_partial_group(self):
        with pytest.raises(ReductionError):
            QAM16_TRANSFORM.to_symbols([1, 0, 1])

    def test_to_symbol_is_one_to_one(self):
        symbols = {QAM16_TRANSFORM.to_symbol(
            np.array([(value >> (3 - k)) & 1 for k in range(4)],
                     dtype=np.uint8)) for value in range(16)}
        assert len(symbols) == 16

    def test_mixing_matrix_block_diagonal(self):
        mixing, offsets = QPSK_TRANSFORM.mixing_matrix(3)
        assert mixing.shape == (3, 6)
        assert offsets.shape == (3,)
        # User 1's symbol depends only on variables 2 and 3.
        assert mixing[1, 2] == 2.0 and mixing[1, 3] == 2.0j
        assert mixing[1, 0] == 0.0 and mixing[1, 5] == 0.0

    def test_mixing_matrix_consistent_with_to_symbols(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=8)
        mixing, offsets = QAM16_TRANSFORM.mixing_matrix(2)
        via_matrix = mixing @ bits + offsets
        np.testing.assert_allclose(via_matrix, QAM16_TRANSFORM.to_symbols(bits))

    def test_mixing_matrix_invalid_users(self):
        with pytest.raises(ReductionError):
            BPSK_TRANSFORM.mixing_matrix(0)


class TestRegistry:
    def test_lookup_by_constellation(self):
        assert get_transform(QPSK) is QPSK_TRANSFORM
        assert get_transform(QAM64) is QAM64_TRANSFORM

    def test_lookup_by_name(self):
        assert get_transform("bpsk") is BPSK_TRANSFORM
        assert get_transform("16-QAM") is QAM16_TRANSFORM

    def test_unknown_rejected(self):
        with pytest.raises(Exception):
            get_transform("8-PSK")
