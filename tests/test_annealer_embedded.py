"""Tests for embedded Ising construction (Appendix B) and ICE model."""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.embedded import (
    COUPLER_MAX,
    COUPLER_MIN_EXTENDED,
    COUPLER_MIN_STANDARD,
    FIELD_MAX,
    embed_ising,
)
from repro.annealer.embedding import TriangleCliqueEmbedder
from repro.annealer.ice import ICEModel
from repro.exceptions import EmbeddingError
from repro.ising.model import IsingModel
from repro.ising.solver import BruteForceIsingSolver
from repro.mimo.system import MimoUplink
from repro.transform.ising_coeffs import build_ml_ising


@pytest.fixture(scope="module")
def embedder():
    return TriangleCliqueEmbedder(ChimeraGraph.ideal(6, 6))


def small_logical_problem(seed=0, num_users=4, constellation="BPSK"):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    channel_use = link.transmit(random_state=seed)
    return build_ml_ising(channel_use.channel, channel_use.received,
                          constellation)


class TestEmbeddedStructure:
    def test_physical_variable_count(self, embedder):
        logical = small_logical_problem(num_users=8)
        embedding = embedder.embed(8)
        embedded = embed_ising(logical, embedding, chain_strength=4.0)
        assert embedded.num_physical == embedding.num_physical
        assert embedded.ising.num_variables == embedded.num_physical

    def test_chain_couplings_standard_range(self, embedder):
        logical = small_logical_problem(num_users=4)
        embedding = embedder.embed(4)
        embedded = embed_ising(logical, embedding, chain_strength=4.0,
                               extended_range=False)
        chains = embedded.compact_chains
        # Every intra-chain coupler must carry the maximal negative value.
        position = {q: i for i, q in enumerate(embedded.qubit_order)}
        for logical_index, edges in embedding.chain_edges.items():
            for a, b in edges:
                key = tuple(sorted((position[a], position[b])))
                assert embedded.ising.couplings[key] == pytest.approx(
                    COUPLER_MIN_STANDARD)

    def test_chain_couplings_extended_range(self, embedder):
        logical = small_logical_problem(num_users=4)
        embedding = embedder.embed(4)
        embedded = embed_ising(logical, embedding, chain_strength=4.0,
                               extended_range=True)
        minimum = min(embedded.ising.couplings.values())
        assert minimum == pytest.approx(COUPLER_MIN_EXTENDED)

    def test_problem_couplings_scaled_by_chain_strength(self, embedder):
        logical = small_logical_problem(num_users=4)
        embedding = embedder.embed(4)
        weak = embed_ising(logical, embedding, chain_strength=2.0,
                           extended_range=False)
        strong = embed_ising(logical, embedding, chain_strength=8.0,
                             extended_range=False)
        # Pick the coupler realising the (0, 1) logical coupling.
        coupler = embedding.logical_couplers[(0, 1)]
        position_weak = {q: i for i, q in enumerate(weak.qubit_order)}
        key = tuple(sorted((position_weak[coupler[0]], position_weak[coupler[1]])))
        assert abs(weak.ising.couplings[key]) == pytest.approx(
            4.0 * abs(strong.ising.couplings[key]))

    def test_largest_problem_coupling_is_one_over_jf(self, embedder):
        logical = small_logical_problem(num_users=6)
        embedding = embedder.embed(6)
        embedded = embed_ising(logical, embedding, chain_strength=5.0,
                               extended_range=False)
        problem_values = [abs(v) for v in embedded.ising.couplings.values()
                          if v != COUPLER_MIN_STANDARD]
        assert max(problem_values) == pytest.approx(1.0 / 5.0, rel=1e-6)

    def test_extended_range_doubles_programmed_coefficients(self, embedder):
        logical = small_logical_problem(num_users=6)
        embedding = embedder.embed(6)
        standard = embed_ising(logical, embedding, chain_strength=4.0,
                               extended_range=False)
        extended = embed_ising(logical, embedding, chain_strength=4.0,
                               extended_range=True)
        standard_max = max(abs(v) for v in standard.ising.couplings.values()
                           if v != COUPLER_MIN_STANDARD)
        extended_max = max(abs(v) for v in extended.ising.couplings.values()
                           if v != COUPLER_MIN_EXTENDED)
        assert extended_max == pytest.approx(2.0 * standard_max, rel=1e-6)

    def test_fields_spread_over_chain(self, embedder):
        logical = small_logical_problem(num_users=4)
        embedding = embedder.embed(4)
        embedded = embed_ising(logical, embedding, chain_strength=4.0)
        chains = embedded.compact_chains
        # The per-qubit shares of one chain must be equal and sum to the
        # scaled logical field.
        for logical_index, chain in chains.items():
            shares = embedded.ising.linear[list(chain)]
            assert np.allclose(shares, shares[0])
            expected_total = (logical.linear[logical_index]
                              * embedded.problem_scale)
            assert np.sum(shares) == pytest.approx(expected_total, rel=1e-9)

    def test_coefficients_respect_hardware_ranges(self, embedder):
        logical = small_logical_problem(num_users=8, constellation="QPSK")
        embedding = embedder.embed(16)
        for extended in (False, True):
            embedded = embed_ising(logical, embedding, chain_strength=1.0,
                                   extended_range=extended)
            minimum = COUPLER_MIN_EXTENDED if extended else COUPLER_MIN_STANDARD
            for value in embedded.ising.couplings.values():
                assert minimum - 1e-12 <= value <= COUPLER_MAX + 1e-12
            assert np.all(np.abs(embedded.ising.linear) <= FIELD_MAX + 1e-12)

    def test_auto_range_makes_programming_scale_free(self, embedder):
        logical = small_logical_problem(num_users=4)
        scaled = IsingModel(num_variables=4, linear=0.25 * logical.linear,
                            couplings={key: 0.25 * value for key, value
                                       in logical.couplings.items()})
        embedding = embedder.embed(4)
        embedded = embed_ising(logical, embedding, chain_strength=4.0)
        embedded_scaled = embed_ising(scaled, embedding, chain_strength=4.0)
        assert embedded_scaled.ising.couplings == embedded.ising.couplings
        np.testing.assert_array_equal(embedded_scaled.ising.linear,
                                      embedded.ising.linear)
        assert embedded_scaled.problem_scale == 4.0 * embedded.problem_scale

    def test_incomplete_embedding_rejected(self, embedder):
        logical = small_logical_problem(num_users=8)
        embedding = embedder.embed(4)
        with pytest.raises(EmbeddingError):
            embed_ising(logical, embedding, chain_strength=4.0)

    def test_invalid_chain_strength(self, embedder):
        logical = small_logical_problem(num_users=4)
        embedding = embedder.embed(4)
        with pytest.raises(Exception):
            embed_ising(logical, embedding, chain_strength=0.0)


class TestEmbeddedGroundState:
    def test_embedded_ground_state_unembeds_to_logical_ground_state(self, embedder):
        # With a strong enough chain, the embedded problem's ground state must
        # have intact chains encoding the logical ground state.
        logical = small_logical_problem(num_users=3, seed=5)
        embedding = embedder.embed(3)
        embedded = embed_ising(logical, embedding, chain_strength=3.0,
                               extended_range=True)
        solver = BruteForceIsingSolver(max_variables=14)
        ground_embedded = solver.solve(embedded.ising).best_sample
        chains = embedded.compact_chains
        logical_ground = solver.solve(logical).best_sample
        for logical_index, chain in chains.items():
            values = ground_embedded[list(chain)]
            assert np.all(values == values[0]), "chain broken in ground state"
            assert values[0] == logical_ground[logical_index]


class TestICEModel:
    def test_disabled_is_identity(self):
        ising = small_logical_problem(num_users=3)
        perturbed = ICEModel.disabled().perturb(ising, random_state=0)
        assert perturbed is ising

    def test_perturbation_statistics(self):
        ising = IsingModel(num_variables=2, linear=np.zeros(2),
                           couplings={(0, 1): 0.0})
        # Couplings dict drops exact zeros, so use a tiny value instead.
        ising = IsingModel(num_variables=2, linear=np.zeros(2),
                           couplings={(0, 1): 1e-9})
        ice = ICEModel()
        rng = np.random.default_rng(0)
        linear_samples, coupling_samples = [], []
        for _ in range(2000):
            perturbed = ice.perturb(ising, rng)
            linear_samples.append(perturbed.linear[0])
            coupling_samples.append(perturbed.couplings[(0, 1)])
        assert np.mean(linear_samples) == pytest.approx(0.008, abs=0.003)
        assert np.std(linear_samples) == pytest.approx(0.02, rel=0.15)
        assert np.mean(coupling_samples) == pytest.approx(-0.015, abs=0.003)
        assert np.std(coupling_samples) == pytest.approx(0.025, rel=0.15)

    def test_perturbation_does_not_mutate_original(self):
        ising = small_logical_problem(num_users=3)
        original_linear = ising.linear.copy()
        ICEModel().perturb(ising, random_state=1)
        np.testing.assert_array_equal(ising.linear, original_linear)

    def test_scaled(self):
        ice = ICEModel().scaled(2.0)
        assert ice.linear_std == pytest.approx(0.04)
        assert ice.quadratic_mean == pytest.approx(-0.03)

    def test_deterministic_with_seed(self):
        ising = small_logical_problem(num_users=3)
        a = ICEModel().perturb(ising, random_state=7)
        b = ICEModel().perturb(ising, random_state=7)
        np.testing.assert_array_equal(a.linear, b.linear)
