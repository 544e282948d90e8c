"""Tests for the Chimera hardware graph model."""

import networkx as nx
import pytest

from repro import constants
from repro.annealer.chimera import ChimeraGraph, PegasusLikeGraph
from repro.exceptions import EmbeddingError


def graph_of(chip):
    """The chip's coupler graph, built from its edge list (the oracle)."""
    return nx.Graph(chip.edges())


class TestGeometry:
    def test_ideal_c16_size(self):
        chip = ChimeraGraph.ideal()
        assert chip.total_sites == constants.CHIMERA_C16_IDEAL_QUBITS
        assert chip.num_working_qubits == 2048

    def test_dw2q_working_qubits(self):
        chip = ChimeraGraph.dw2q()
        assert chip.num_working_qubits == constants.DW2Q_WORKING_QUBITS

    def test_cell_size(self):
        assert ChimeraGraph.ideal().cell_size == 8

    def test_small_lattice(self):
        chip = ChimeraGraph(rows=2, columns=3, shore_size=4)
        assert chip.total_sites == 2 * 3 * 8


class TestIndexing:
    def test_linear_index_roundtrip(self):
        chip = ChimeraGraph(rows=4, columns=4)
        for row in range(4):
            for column in range(4):
                for side in (0, 1):
                    for index in range(4):
                        qubit = chip.linear_index(row, column, side, index)
                        coordinate = chip.coordinate(qubit)
                        assert (coordinate.row, coordinate.column,
                                coordinate.side, coordinate.index) == (
                                    row, column, side, index)

    def test_indices_unique(self):
        chip = ChimeraGraph(rows=3, columns=3)
        seen = {chip.linear_index(r, c, s, k)
                for r in range(3) for c in range(3)
                for s in (0, 1) for k in range(4)}
        assert len(seen) == chip.total_sites

    def test_out_of_range_rejected(self):
        chip = ChimeraGraph(rows=2, columns=2)
        with pytest.raises(Exception):
            chip.linear_index(2, 0, 0, 0)
        with pytest.raises(Exception):
            chip.linear_index(0, 0, 2, 0)


class TestEdges:
    def test_edge_count_of_single_cell(self):
        # One isolated unit cell is a K_{4,4}: 16 edges.
        chip = ChimeraGraph(rows=1, columns=1)
        assert len(chip.edges()) == 16

    def test_edge_count_of_full_lattice(self):
        # C16 with t=4: 16 intra-cell edges per cell plus 4 inter-cell
        # couplers per adjacent cell pair.
        chip = ChimeraGraph.ideal()
        intra = 16 * 16 * 16
        inter = 4 * (16 * 15) * 2
        assert len(chip.edges()) == intra + inter

    def test_intra_cell_edges_are_bipartite(self):
        chip = ChimeraGraph(rows=1, columns=1)
        for a, b in chip.edges():
            assert chip.coordinate(a).side != chip.coordinate(b).side

    def test_vertical_inter_cell_edge_exists(self):
        chip = ChimeraGraph(rows=2, columns=1)
        a = chip.linear_index(0, 0, 0, 2)
        b = chip.linear_index(1, 0, 0, 2)
        assert chip.has_edge(a, b)

    def test_horizontal_inter_cell_edge_exists(self):
        chip = ChimeraGraph(rows=1, columns=2)
        a = chip.linear_index(0, 0, 1, 3)
        b = chip.linear_index(0, 1, 1, 3)
        assert chip.has_edge(a, b)

    def test_no_edge_between_same_side_same_cell(self):
        chip = ChimeraGraph(rows=1, columns=1)
        a = chip.linear_index(0, 0, 0, 0)
        b = chip.linear_index(0, 0, 0, 1)
        assert not chip.has_edge(a, b)

    def test_max_degree_is_six(self):
        chip = ChimeraGraph(rows=4, columns=4)
        degrees = dict(graph_of(chip).degree())
        assert max(degrees.values()) == 6


class TestHasEdgeIsArithmetic:
    """``has_edge`` is Chimera arithmetic on coordinates; the networkx graph
    of the edge list (built from ``_iter_ideal_edges``) is the oracle."""

    @staticmethod
    def sites_around(chip, cells):
        """Every site of *cells* and of their four neighbours."""
        around = {(row + dr, column + dc) for row, column in cells
                  for dr, dc in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
                  if 0 <= row + dr < chip.rows
                  and 0 <= column + dc < chip.columns}
        return [chip.linear_index(row, column, side, index)
                for row, column in sorted(around) for side in (0, 1)
                for index in range(chip.shore_size)]

    @pytest.mark.parametrize("make_chip", [
        ChimeraGraph.dw2q, lambda: ChimeraGraph.ideal(4, 4),
        lambda: PegasusLikeGraph(rows=3, columns=3, dead_qubits=[20, 70])],
        ids=["dw2q", "ideal-4x4", "pegasus-like"])
    def test_agrees_with_the_graph_on_every_pair_around_two_cells(
            self, make_chip):
        chip = make_chip()
        # A corner cell, and the cell of a defect where there is one (an
        # interior cell otherwise).
        dead = min(chip.dead_qubits, default=chip.linear_index(2, 1, 0, 0))
        cells = [(0, 0), (chip.coordinate(dead).row,
                          chip.coordinate(dead).column)]
        sites = self.sites_around(chip, cells) + [-1, chip.total_sites]
        graph = graph_of(chip)
        edges = 0
        for a in sites:
            for b in sites:
                assert chip.has_edge(a, b) == graph.has_edge(a, b), (a, b)
                edges += chip.has_edge(a, b)
        assert edges > 8 * chip.shore_size ** 2  # not vacuous

    def test_every_listed_edge_is_an_edge_both_ways(self):
        chip = ChimeraGraph.dw2q()
        edges = chip.edges()
        assert len(edges) == graph_of(chip).number_of_edges()
        assert all(chip.has_edge(a, b) and chip.has_edge(b, a)
                   for a, b in edges)

    def test_asking_builds_no_graph(self, monkeypatch):
        def enumerate_edges(chip):
            raise AssertionError("has_edge enumerated the chip's couplers")

        chip = ChimeraGraph.ideal(4, 4)
        monkeypatch.setattr(ChimeraGraph, "_iter_ideal_edges", enumerate_edges)
        monkeypatch.setattr(ChimeraGraph, "edges", enumerate_edges)
        assert chip.has_edge(0, 4)
        assert not chip.has_edge(0, 1)


class TestDefects:
    def test_dead_qubits_removed_from_graph(self):
        chip = ChimeraGraph(rows=2, columns=2, dead_qubits=[0, 5])
        graph = graph_of(chip)
        assert 0 not in graph
        assert 5 not in graph
        assert chip.num_working_qubits == 30

    def test_edges_touching_dead_qubits_removed(self):
        chip = ChimeraGraph(rows=1, columns=1, dead_qubits=[0])
        assert len(chip.edges()) == 12  # K_{4,4} minus one vertex's 4 edges

    def test_is_working(self):
        chip = ChimeraGraph(rows=1, columns=1, dead_qubits=[3])
        assert not chip.is_working(3)
        assert chip.is_working(2)
        assert not chip.is_working(99)

    def test_out_of_chip_defect_rejected(self):
        with pytest.raises(EmbeddingError):
            ChimeraGraph(rows=1, columns=1, dead_qubits=[100])

    def test_dw2q_defects_deterministic(self):
        a = ChimeraGraph.dw2q(random_state=1)
        b = ChimeraGraph.dw2q(random_state=1)
        assert a.dead_qubits == b.dead_qubits


class TestPegasusLike:
    def test_doubled_shore(self):
        chip = PegasusLikeGraph(rows=4, columns=4)
        assert chip.shore_size == 8
        assert chip.cell_size == 16

    def test_higher_degree_than_chimera(self):
        chimera = ChimeraGraph(rows=3, columns=3)
        pegasus = PegasusLikeGraph(rows=3, columns=3)
        chimera_max = max(dict(graph_of(chimera).degree()).values())
        pegasus_max = max(dict(graph_of(pegasus).degree()).values())
        assert pegasus_max > chimera_max
