"""Hardware qubit-connectivity graphs.

The D-Wave 2000Q exposes a Chimera lattice: an ``M x M`` grid of unit cells,
each a complete bipartite ``K_{4,4}`` between four "vertical" and four
"horizontal" qubits; vertical qubits also couple to the vertical qubits of the
cell above/below, and horizontal qubits to those of the cell left/right.  The
chip used in the paper has 2,031 working qubits out of an ideal 2,048 because
of manufacturing defects — defects matter because a clique embedding must be
placed on a defect-free region.

A simplified Pegasus-like topology (the next-generation graph mentioned in
the paper's future-work section, with roughly double the qubit degree) is
provided for the forward-looking ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import EmbeddingError
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import check_integer_in_range

#: A physical qubit is identified by a flat integer index.
Qubit = int
Edge = Tuple[Qubit, Qubit]


@dataclass(frozen=True)
class ChimeraCoordinate:
    """Chimera coordinate of a qubit: (row, column, side, index).

    ``side`` is 0 for the "vertical" partition of the unit cell (qubits that
    couple north/south to neighbouring cells) and 1 for the "horizontal"
    partition (qubits that couple east/west); ``index`` runs over the ``t``
    qubits of each partition.
    """

    row: int
    column: int
    side: int
    index: int


class ChimeraGraph:
    """A Chimera ``C_M`` topology with ``t`` qubits per cell side.

    Parameters
    ----------
    rows, columns:
        Grid dimensions in unit cells (16 x 16 for the DW2Q).
    shore_size:
        Qubits per side of each unit cell (``t``; 4 for Chimera).
    dead_qubits:
        Flat indices of non-working qubits (manufacturing defects).
    """

    def __init__(self, rows: int = 16, columns: int = 16, shore_size: int = 4,
                 dead_qubits: Optional[Iterable[Qubit]] = None):
        self.rows = check_integer_in_range("rows", rows, minimum=1)
        self.columns = check_integer_in_range("columns", columns, minimum=1)
        self.shore_size = check_integer_in_range("shore_size", shore_size, minimum=1)
        dead = frozenset(int(q) for q in (dead_qubits if dead_qubits is not None else ()))
        for qubit in dead:
            if not 0 <= qubit < self.total_sites:
                raise EmbeddingError(
                    f"dead qubit {qubit} outside the chip (size {self.total_sites})"
                )
        self.dead_qubits: FrozenSet[Qubit] = dead

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    @property
    def cell_size(self) -> int:
        """Number of qubit sites per unit cell (``2 t``)."""
        return 2 * self.shore_size

    @property
    def total_sites(self) -> int:
        """Number of qubit sites of the ideal (defect-free) lattice."""
        return self.rows * self.columns * self.cell_size

    @property
    def num_working_qubits(self) -> int:
        """Number of working (non-defective) qubits."""
        return self.total_sites - len(self.dead_qubits)

    def linear_index(self, row: int, column: int, side: int, index: int) -> Qubit:
        """Flat qubit index of a Chimera coordinate."""
        row = check_integer_in_range("row", row, minimum=0, maximum=self.rows - 1)
        column = check_integer_in_range("column", column, minimum=0,
                                        maximum=self.columns - 1)
        side = check_integer_in_range("side", side, minimum=0, maximum=1)
        index = check_integer_in_range("index", index, minimum=0,
                                       maximum=self.shore_size - 1)
        return ((row * self.columns + column) * 2 + side) * self.shore_size + index

    def coordinate(self, qubit: Qubit) -> ChimeraCoordinate:
        """Chimera coordinate of a flat qubit index."""
        qubit = check_integer_in_range("qubit", qubit, minimum=0,
                                       maximum=self.total_sites - 1)
        index = qubit % self.shore_size
        side = (qubit // self.shore_size) % 2
        cell = qubit // self.cell_size
        return ChimeraCoordinate(row=cell // self.columns,
                                 column=cell % self.columns,
                                 side=side, index=index)

    def is_working(self, qubit: Qubit) -> bool:
        """Whether a qubit site exists and is not a manufacturing defect."""
        return 0 <= qubit < self.total_sites and qubit not in self.dead_qubits

    # ------------------------------------------------------------------ #
    # Edges
    # ------------------------------------------------------------------ #
    def _iter_ideal_edges(self) -> Iterable[Edge]:
        for row in range(self.rows):
            for column in range(self.columns):
                # Intra-cell K_{t,t} edges between the two partitions.
                for i in range(self.shore_size):
                    vertical = self.linear_index(row, column, 0, i)
                    for j in range(self.shore_size):
                        horizontal = self.linear_index(row, column, 1, j)
                        yield (vertical, horizontal)
                # Vertical inter-cell edges (same column, next row).
                if row + 1 < self.rows:
                    for i in range(self.shore_size):
                        yield (self.linear_index(row, column, 0, i),
                               self.linear_index(row + 1, column, 0, i))
                # Horizontal inter-cell edges (same row, next column).
                if column + 1 < self.columns:
                    for j in range(self.shore_size):
                        yield (self.linear_index(row, column, 1, j),
                               self.linear_index(row, column + 1, 1, j))

    def edges(self) -> List[Edge]:
        """All working couplers (edges between working qubits)."""
        return [(a, b) for a, b in self._iter_ideal_edges()
                if self.is_working(a) and self.is_working(b)]

    def has_edge(self, a: Qubit, b: Qubit) -> bool:
        """Whether a working coupler exists between two qubits.

        Chimera arithmetic on the two coordinates, the edge rule of
        :meth:`_iter_ideal_edges` read backwards: inside a cell every
        vertical qubit couples to every horizontal one; between cells a
        vertical qubit couples to its namesake one row away in the same
        column, a horizontal one to its namesake one column away in the
        same row.
        """
        if not (self.is_working(a) and self.is_working(b)):
            return False
        p, q = self.coordinate(a), self.coordinate(b)
        if p.side != q.side:
            return (p.row, p.column) == (q.row, q.column)
        if p.index != q.index:
            return False
        if p.side == 0:
            return p.column == q.column and abs(p.row - q.row) == 1
        return p.row == q.row and abs(p.column - q.column) == 1

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def dw2q(cls, num_defects: int = 17,
             random_state: RandomState = None) -> "ChimeraGraph":
        """A DW2Q-like chip: Chimera C16 with random manufacturing defects.

        The default of 17 defects reproduces the paper's 2,031 working qubits
        out of 2,048 sites.
        """
        num_defects = check_integer_in_range("num_defects", num_defects, minimum=0,
                                             maximum=2048)
        rng = ensure_rng(random_state if random_state is not None else 2019)
        dead = rng.choice(2048, size=num_defects, replace=False) if num_defects else []
        return cls(rows=16, columns=16, shore_size=4, dead_qubits=dead)

    @classmethod
    def ideal(cls, rows: int = 16, columns: int = 16,
              shore_size: int = 4) -> "ChimeraGraph":
        """A defect-free Chimera lattice."""
        return cls(rows=rows, columns=columns, shore_size=shore_size)

    def __repr__(self) -> str:
        return (f"ChimeraGraph(rows={self.rows}, columns={self.columns}, "
                f"shore_size={self.shore_size}, "
                f"working_qubits={self.num_working_qubits})")


class PegasusLikeGraph(ChimeraGraph):
    """A forward-looking topology with doubled intra-cell connectivity.

    The paper's future-work section anticipates a next-generation annealer
    ("Pegasus") with twice the qubit degree of Chimera, which shortens clique
    chains to roughly ``N/12 + 1`` qubits.  This model doubles the shore size
    of each unit cell (an approximation of that extra connectivity) so the
    forward-looking ablation benchmarks can quantify the embedding-overhead
    reduction without modelling the full Pegasus lattice.
    """

    def __init__(self, rows: int = 16, columns: int = 16,
                 dead_qubits: Optional[Iterable[Qubit]] = None):
        super().__init__(rows=rows, columns=columns, shore_size=8,
                         dead_qubits=dead_qubits)

    def __repr__(self) -> str:
        return (f"PegasusLikeGraph(rows={self.rows}, columns={self.columns}, "
                f"working_qubits={self.num_working_qubits})")
