"""Tests for the triangle clique embedding (Section 3.3, Table 2)."""

import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.embedding import (
    Embedding,
    TriangleCliqueEmbedder,
    chain_length_for,
    embedding_qubit_counts,
    logical_qubits_required,
    physical_qubits_required,
)
from repro.exceptions import EmbeddingError


class TestQubitCountFormulas:
    def test_logical_counts(self):
        assert logical_qubits_required(48, 1) == 48
        assert logical_qubits_required(14, 2) == 28
        assert logical_qubits_required(10, 4) == 40

    def test_chain_length(self):
        assert chain_length_for(12) == 4
        assert chain_length_for(36) == 10
        assert chain_length_for(60) == 16

    @pytest.mark.parametrize("users,bits,logical,physical", [
        # The paper's Table 2 cells.
        (10, 1, 10, 40), (10, 2, 20, 120), (10, 4, 40, 440), (10, 6, 60, 960),
        (20, 1, 20, 120), (20, 2, 40, 440), (20, 4, 80, 1680),
        (40, 1, 40, 440), (40, 2, 80, 1680),
        (60, 1, 60, 960), (60, 2, 120, 3720),
    ])
    def test_table2_values(self, users, bits, logical, physical):
        assert embedding_qubit_counts(users, bits) == (logical, physical)

    def test_dw2q_feasibility_boundary(self):
        # 60-user BPSK fits (960 qubits), 60-user QPSK does not (3,720).
        assert physical_qubits_required(60) <= 2031
        assert physical_qubits_required(120) > 2031


@pytest.fixture(scope="module")
def embedder():
    return TriangleCliqueEmbedder(ChimeraGraph.ideal(8, 8))


class TestTriangleCliqueEmbedder:
    def test_chain_lengths_match_formula(self, embedder):
        for num_logical in (3, 4, 9, 12, 17):
            embedding = embedder.embed(num_logical)
            for logical in range(num_logical):
                assert len(embedding.chains[logical]) == chain_length_for(num_logical)

    def test_physical_qubit_count(self, embedder):
        embedding = embedder.embed(12)
        assert embedding.num_physical == physical_qubits_required(12)

    def test_chains_are_disjoint(self, embedder):
        embedding = embedder.embed(16)
        seen = set()
        for logical, chain in embedding.chains.items():
            for qubit in chain:
                assert qubit not in seen
                seen.add(qubit)

    def test_validates_against_hardware(self, embedder):
        embedding = embedder.embed(20)
        embedding.validate(embedder.hardware)  # should not raise

    def test_every_logical_pair_has_a_coupler(self, embedder):
        num_logical = 13
        embedding = embedder.embed(num_logical)
        for i in range(num_logical):
            for j in range(i + 1, num_logical):
                assert (i, j) in embedding.logical_couplers

    def test_coupler_endpoints_lie_on_the_right_chains(self, embedder):
        embedding = embedder.embed(10)
        for (i, j), (a, b) in embedding.logical_couplers.items():
            assert a in embedding.chains[i]
            assert b in embedding.chains[j]

    def test_largest_clique_fits_the_diagonal(self, embedder):
        # Eight diagonal cells of four variables: 32 fit, 33 do not.
        assert embedder.embed(32).num_logical == 32
        with pytest.raises(EmbeddingError):
            embedder.embed(33)

    def test_too_large_problem_rejected(self, embedder):
        with pytest.raises(EmbeddingError):
            embedder.embed(64)

    def test_single_variable(self, embedder):
        embedding = embedder.embed(1)
        assert embedding.num_logical == 1
        assert len(embedding.chains[0]) == 2

    def test_full_dw2q_supports_48_user_bpsk(self):
        embedder = TriangleCliqueEmbedder(ChimeraGraph.ideal())
        embedding = embedder.embed(48)
        assert embedding.num_physical == physical_qubits_required(48)


class TestDefectAvoidance:
    def test_embedding_shifts_away_from_dead_qubits(self):
        # Kill the top-left unit cell entirely; the embedder must relocate.
        dead = list(range(8))
        hardware = ChimeraGraph(rows=4, columns=4, dead_qubits=dead)
        embedder = TriangleCliqueEmbedder(hardware)
        embedding = embedder.embed(8)
        embedding.validate(hardware)
        for chain in embedding.chains.values():
            assert not (set(chain) & set(dead))

    def test_unembeddable_when_defects_block_everything(self):
        # Kill one qubit in every unit cell's vertical shore index 0: a
        # 4-variable embedding still fits (it does not need index 0 of every
        # cell), but killing all of shore 0 and 1 blocks chains needing them.
        hardware = ChimeraGraph(rows=1, columns=1, dead_qubits=[0, 4])
        embedder = TriangleCliqueEmbedder(hardware)
        with pytest.raises(EmbeddingError):
            embedder.embed(4)


class TestEmbeddingValidation:
    def test_detects_shared_qubits(self):
        hardware = ChimeraGraph(rows=1, columns=1)
        embedding = Embedding(
            chains={0: (0, 4), 1: (0, 5)},
            chain_edges={0: ((0, 4),), 1: ((0, 5),)},
            logical_couplers={(0, 1): (0, 5)},
        )
        with pytest.raises(EmbeddingError):
            embedding.validate(hardware)

    def test_detects_non_hardware_edge(self):
        hardware = ChimeraGraph(rows=1, columns=1)
        embedding = Embedding(
            chains={0: (0, 1)},  # same side, no coupler between them
            chain_edges={0: ((0, 1),)},
            logical_couplers={},
        )
        with pytest.raises(EmbeddingError):
            embedding.validate(hardware)

    def test_detects_disconnected_chain(self):
        hardware = ChimeraGraph(rows=2, columns=2)
        a = hardware.linear_index(0, 0, 0, 0)
        b = hardware.linear_index(0, 0, 1, 0)
        c = hardware.linear_index(1, 1, 0, 0)
        embedding = Embedding(
            chains={0: (a, b, c)},
            chain_edges={0: ((a, b),)},
            logical_couplers={},
        )
        with pytest.raises(EmbeddingError):
            embedding.validate(hardware)

    def test_max_chain_length_property(self):
        embedder = TriangleCliqueEmbedder(ChimeraGraph.ideal(6, 6))
        embedding = embedder.embed(9)
        assert embedding.max_chain_length == chain_length_for(9)
