"""Tests for repro.ising.model (Ising / QUBO containers and conversions)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.ising.model import IsingModel, QUBOModel, bits_to_spins, spins_to_bits


def all_bit_vectors(n):
    for value in range(1 << n):
        yield np.array([(value >> k) & 1 for k in range(n)], dtype=np.uint8)


class TestSpinBitConversion:
    def test_spins_to_bits(self):
        np.testing.assert_array_equal(spins_to_bits([-1, 1, -1]), [0, 1, 0])

    def test_bits_to_spins(self):
        np.testing.assert_array_equal(bits_to_spins([0, 1, 1]), [-1, 1, 1])

    def test_roundtrip(self):
        spins = np.array([1, -1, 1, 1, -1])
        np.testing.assert_array_equal(bits_to_spins(spins_to_bits(spins)), spins)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            spins_to_bits([0, 1])
        with pytest.raises(ConfigurationError):
            bits_to_spins([-1, 1])


class TestIsingModel:
    def make(self):
        return IsingModel(num_variables=3, linear=np.array([0.5, -1.0, 0.0]),
                          couplings={(0, 1): 1.0, (1, 2): -0.5}, offset=2.0)

    def test_energy_by_hand(self):
        ising = self.make()
        spins = np.array([1, -1, 1])
        expected = 2.0 + (0.5 * 1 - 1.0 * -1) + (1.0 * 1 * -1) + (-0.5 * -1 * 1)
        assert ising.energy(spins) == pytest.approx(expected)

    def test_energies_vectorised_matches_scalar(self):
        ising = self.make()
        spins = np.array([[1, 1, 1], [-1, 1, -1], [1, -1, -1]])
        vectorised = ising.energies(spins)
        for row, value in zip(spins, vectorised):
            assert ising.energy(row) == pytest.approx(value)

    def test_energies_takes_the_operator_product_in_its_layout_only(self):
        """``product=`` is ``coupling_operator() @ S.T`` as scipy lays it
        out; anything else would silently sum in another order, so it is
        refused — and so is naming the operator as well."""
        ising = self.make()
        spins = np.array([[1., 1., 1.], [-1., 1., -1.]])
        operator = ising.coupling_operator()
        product = operator @ spins.T
        assert (ising.energies(spins, product=product).tobytes()
                == ising.energies(spins, operator=operator).tobytes())
        for wrong in (np.asfortranarray(product), product.T.copy(),
                      product[:, :1], product.tolist()):
            with pytest.raises(ConfigurationError):
                ising.energies(spins, product=wrong)
        with pytest.raises(ConfigurationError):
            ising.energies(spins, operator=operator, product=product)

    def test_coupling_key_normalisation(self):
        ising = IsingModel(num_variables=2, linear=np.zeros(2),
                           couplings={(1, 0): 2.0})
        assert ising.couplings == {(0, 1): 2.0}

    def test_duplicate_couplings_summed(self):
        ising = IsingModel(num_variables=2, linear=np.zeros(2),
                           couplings={(0, 1): 2.0})
        ising2 = IsingModel(num_variables=2, linear=np.zeros(2),
                            couplings={(0, 1): 1.0, (1, 0): 1.0})
        assert ising2.couplings == ising.couplings

    def test_self_coupling_rejected(self):
        with pytest.raises(ConfigurationError):
            IsingModel(num_variables=2, linear=np.zeros(2), couplings={(0, 0): 1.0})

    def test_wrong_linear_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            IsingModel(num_variables=3, linear=np.zeros(2))

    def test_out_of_range_coupling_rejected(self):
        with pytest.raises(ConfigurationError):
            IsingModel(num_variables=2, linear=np.zeros(2), couplings={(0, 5): 1.0})

    def test_dense_roundtrip(self):
        ising = self.make()
        linear, matrix = ising.to_dense()
        rebuilt = IsingModel.from_dense(linear, matrix, offset=ising.offset)
        assert rebuilt.couplings == ising.couplings
        np.testing.assert_array_equal(rebuilt.linear, ising.linear)

    def test_max_abs_coefficient(self):
        assert self.make().max_abs_coefficient == 1.0

    def test_scaled(self):
        scaled = self.make().scaled(2.0)
        assert scaled.couplings[(0, 1)] == 2.0
        assert scaled.offset == 4.0
        spins = np.array([1, 1, -1])
        assert scaled.energy(spins) == pytest.approx(2.0 * self.make().energy(spins))

    def test_zero_couplings_dropped(self):
        ising = IsingModel(num_variables=2, linear=np.zeros(2),
                           couplings={(0, 1): 0.0})
        assert ising.couplings == {}


class TestQUBOModel:
    def make(self):
        return QUBOModel(num_variables=3,
                         terms={(0, 0): -1.0, (1, 1): 2.0, (0, 1): 3.0,
                                (1, 2): -2.0},
                         offset=1.0)

    def test_energy_by_hand(self):
        qubo = self.make()
        bits = np.array([1, 1, 0])
        expected = 1.0 + (-1.0) + 2.0 + 3.0 + 0.0
        assert qubo.energy(bits) == pytest.approx(expected)

    def test_matrix_roundtrip(self):
        qubo = self.make()
        rebuilt = QUBOModel.from_matrix(qubo.to_matrix(), offset=qubo.offset)
        for bits in all_bit_vectors(3):
            assert rebuilt.energy(bits) == pytest.approx(qubo.energy(bits))

    def test_from_matrix_symmetric_input(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        qubo = QUBOModel.from_matrix(matrix)
        assert qubo.terms == {(0, 1): 2.0}

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            QUBOModel.from_matrix(np.zeros((2, 3)))


class TestConversions:
    def test_qubo_to_ising_preserves_energy(self):
        qubo = QUBOModel(num_variables=4,
                         terms={(0, 0): 1.5, (2, 2): -2.0, (0, 1): 1.0,
                                (1, 3): -3.0, (2, 3): 0.5},
                         offset=-1.0)
        ising = qubo.to_ising()
        for bits in all_bit_vectors(4):
            spins = bits_to_spins(bits)
            assert ising.energy(spins) == pytest.approx(qubo.energy(bits))

    def test_ising_to_qubo_preserves_energy(self):
        ising = IsingModel(num_variables=4,
                           linear=np.array([1.0, -0.5, 0.0, 2.0]),
                           couplings={(0, 1): -1.0, (1, 2): 0.7, (0, 3): 0.3},
                           offset=0.25)
        qubo = ising.to_qubo()
        for bits in all_bit_vectors(4):
            spins = bits_to_spins(bits)
            assert qubo.energy(bits) == pytest.approx(ising.energy(spins))

    def test_double_conversion_roundtrip(self):
        ising = IsingModel(num_variables=3, linear=np.array([0.2, -0.4, 1.0]),
                           couplings={(0, 2): -0.6, (1, 2): 0.9}, offset=3.0)
        back = ising.to_qubo().to_ising()
        for bits in all_bit_vectors(3):
            spins = bits_to_spins(bits)
            assert back.energy(spins) == pytest.approx(ising.energy(spins))

    def test_argmin_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 5
            linear = rng.normal(size=n)
            couplings = {(i, j): rng.normal() for i in range(n)
                         for j in range(i + 1, n)}
            ising = IsingModel(num_variables=n, linear=linear, couplings=couplings)
            qubo = ising.to_qubo()
            best_ising = min(all_bit_vectors(n),
                             key=lambda b: ising.energy(bits_to_spins(b)))
            best_qubo = min(all_bit_vectors(n), key=qubo.energy)
            np.testing.assert_array_equal(best_ising, best_qubo)
