"""Minor embedding of fully-connected Ising problems into Chimera hardware.

The ML MIMO Ising problem is almost fully connected, while the Chimera graph
has degree at most six, so each logical variable must be represented by a
*chain* of physical qubits (a "logical qubit").  This module implements the
triangle clique embedding described in Section 3.3 of the paper:

* logical variables are grouped four per diagonal unit cell;
* logical variable ``i`` (group ``g = i // 4``, in-cell index ``k = i % 4``)
  owns the vertical qubits with index ``k`` in every cell of column ``g`` at
  or below the diagonal, and the horizontal qubits with index ``k`` in every
  cell of row ``g`` at or left of the diagonal;
* the two segments meet inside diagonal cell ``[g, g]``, giving a connected
  chain of exactly ``ceil(N / 4) + 1`` physical qubits;
* any two logical variables share a coupler inside the unit cell where the
  vertical segment of one crosses the horizontal segment of the other.

This reproduces the qubit counts of the paper's Table 2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional, Tuple

from repro.annealer.chimera import ChimeraGraph, Edge, Qubit
from repro.exceptions import EmbeddingError
from repro.utils.validation import check_integer_in_range


def logical_qubits_required(num_users: int, bits_per_symbol: int) -> int:
    """Number of logical qubits (Ising variables) for a MIMO configuration."""
    num_users = check_integer_in_range("num_users", num_users, minimum=1)
    bits_per_symbol = check_integer_in_range("bits_per_symbol", bits_per_symbol,
                                             minimum=1)
    return num_users * bits_per_symbol


def chain_length_for(num_logical: int, shore_size: int = 4) -> int:
    """Physical chain length of the triangle clique embedding."""
    num_logical = check_integer_in_range("num_logical", num_logical, minimum=1)
    return ceil(num_logical / shore_size) + 1


def physical_qubits_required(num_logical: int, shore_size: int = 4) -> int:
    """Total physical qubits of the triangle clique embedding (Table 2)."""
    return num_logical * chain_length_for(num_logical, shore_size)


def embedding_qubit_counts(num_users: int, bits_per_symbol: int,
                           shore_size: int = 4) -> Tuple[int, int]:
    """(logical, physical) qubit counts for a MIMO configuration (Table 2)."""
    logical = logical_qubits_required(num_users, bits_per_symbol)
    return logical, physical_qubits_required(logical, shore_size)


@dataclass(frozen=True)
class Embedding:
    """A minor embedding: one chain of physical qubits per logical variable.

    Attributes
    ----------
    chains:
        ``chains[i]`` is the ordered tuple of physical qubits representing
        logical variable *i*.
    chain_edges:
        ``chain_edges[i]`` is the list of physical couplers holding chain *i*
        together.
    logical_couplers:
        ``logical_couplers[(i, j)]`` (``i < j``) is the physical coupler used
        to realise the logical coupling ``g_ij``.
    """

    chains: Dict[int, Tuple[Qubit, ...]]
    chain_edges: Dict[int, Tuple[Edge, ...]]
    logical_couplers: Dict[Tuple[int, int], Edge]

    @property
    def num_logical(self) -> int:
        """Number of logical variables embedded."""
        return len(self.chains)

    @property
    def physical_qubits(self) -> Tuple[Qubit, ...]:
        """All physical qubits used, sorted."""
        used: List[Qubit] = []
        for chain in self.chains.values():
            used.extend(chain)
        return tuple(sorted(used))

    @property
    def num_physical(self) -> int:
        """Number of physical qubits used."""
        return len(self.physical_qubits)

    @property
    def max_chain_length(self) -> int:
        """Length of the longest chain."""
        return max(len(chain) for chain in self.chains.values())

    def validate(self, hardware: ChimeraGraph) -> None:
        """Check that the embedding is consistent with the hardware graph.

        Verifies that chains are vertex-disjoint, every chain edge and logical
        coupler is a working hardware edge, and each chain is connected.
        """
        seen: Dict[Qubit, int] = {}
        for logical, chain in self.chains.items():
            for qubit in chain:
                if not hardware.is_working(qubit):
                    raise EmbeddingError(
                        f"chain {logical} uses dead/absent qubit {qubit}")
                if qubit in seen:
                    raise EmbeddingError(
                        f"qubit {qubit} shared by chains {seen[qubit]} and {logical}")
                seen[qubit] = logical
        for logical, edges in self.chain_edges.items():
            chain = set(self.chains[logical])
            for a, b in edges:
                if a not in chain or b not in chain:
                    raise EmbeddingError(
                        f"chain edge ({a}, {b}) leaves chain {logical}")
                if not hardware.has_edge(a, b):
                    raise EmbeddingError(
                        f"chain edge ({a}, {b}) is not a working hardware coupler")
            # Connectivity: the chain edges must connect every chain qubit.
            if len(chain) > 1:
                reachable = {next(iter(chain))} if not edges else {edges[0][0]}
                frontier = list(reachable)
                adjacency: Dict[Qubit, List[Qubit]] = {q: [] for q in chain}
                for a, b in edges:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
                while frontier:
                    node = frontier.pop()
                    for neighbour in adjacency[node]:
                        if neighbour not in reachable:
                            reachable.add(neighbour)
                            frontier.append(neighbour)
                if reachable != chain:
                    raise EmbeddingError(f"chain {logical} is not connected")
        for (i, j), (a, b) in self.logical_couplers.items():
            if a not in self.chains[i] or b not in self.chains[j]:
                raise EmbeddingError(
                    f"logical coupler ({i}, {j}) endpoints not on the right chains")
            if not hardware.has_edge(a, b):
                raise EmbeddingError(
                    f"logical coupler ({i}, {j}) uses a non-working hardware edge")


class TriangleCliqueEmbedder:
    """Builds triangle clique embeddings on a :class:`ChimeraGraph`.

    The embedder scans candidate placements (offsets of the triangular block
    of unit cells) until it finds one whose qubits are all working, so chips
    with manufacturing defects are handled the way operators handle them in
    practice — by placing the problem on a clean region.
    """

    def __init__(self, hardware: ChimeraGraph):
        self.hardware = hardware

    # ------------------------------------------------------------------ #
    def blocks_required(self, num_logical: int) -> int:
        """Number of diagonal unit cells (groups of four logical variables)."""
        return ceil(num_logical / self.hardware.shore_size)

    # ------------------------------------------------------------------ #
    def _build_at_offset(self, num_logical: int, row_offset: int,
                         column_offset: int) -> Embedding:
        hardware = self.hardware
        shore = hardware.shore_size
        blocks = self.blocks_required(num_logical)
        if (row_offset + blocks > hardware.rows
                or column_offset + blocks > hardware.columns):
            raise EmbeddingError("embedding does not fit at this offset")

        chains: Dict[int, Tuple[Qubit, ...]] = {}
        chain_edges: Dict[int, Tuple[Edge, ...]] = {}
        for logical in range(num_logical):
            group, index = divmod(logical, shore)
            vertical: List[Qubit] = []
            for block_row in range(group, blocks):
                vertical.append(hardware.linear_index(
                    row_offset + block_row, column_offset + group, 0, index))
            horizontal: List[Qubit] = []
            for block_column in range(0, group + 1):
                horizontal.append(hardware.linear_index(
                    row_offset + group, column_offset + block_column, 1, index))
            chain = tuple(vertical + horizontal)
            edges: List[Edge] = []
            for a, b in zip(vertical, vertical[1:]):
                edges.append((a, b))
            for a, b in zip(horizontal, horizontal[1:]):
                edges.append((a, b))
            # The vertical and horizontal segments meet in the diagonal cell
            # through the intra-cell coupler between side-0 and side-1 qubits.
            edges.append((vertical[0], horizontal[-1]))
            chains[logical] = chain
            chain_edges[logical] = tuple(edges)

        logical_couplers: Dict[Tuple[int, int], Edge] = {}
        for i in range(num_logical):
            group_i, index_i = divmod(i, shore)
            for j in range(i + 1, num_logical):
                group_j, index_j = divmod(j, shore)
                if group_i == group_j:
                    # Both chains pass through the same diagonal cell; use the
                    # intra-cell coupler vertical(i) - horizontal(j).
                    cell_row, cell_column = group_i, group_i
                else:
                    # The vertical segment of the lower-group variable crosses
                    # the horizontal segment of the higher-group variable in
                    # cell [group_j, group_i] (group_i < group_j always here).
                    cell_row, cell_column = group_j, group_i
                vertical_qubit = self.hardware.linear_index(
                    row_offset + cell_row, column_offset + cell_column, 0, index_i)
                horizontal_qubit = self.hardware.linear_index(
                    row_offset + cell_row, column_offset + cell_column, 1, index_j)
                logical_couplers[(i, j)] = (vertical_qubit, horizontal_qubit)

        embedding = Embedding(chains=chains, chain_edges=chain_edges,
                              logical_couplers=logical_couplers)
        embedding.validate(self.hardware)
        return embedding

    def embed(self, num_logical: int) -> Embedding:
        """Embed a fully-connected problem of *num_logical* variables.

        Raises
        ------
        EmbeddingError
            If the problem does not fit on the chip at any offset (either it
            is too large or defects block every placement).
        """
        num_logical = check_integer_in_range("num_logical", num_logical, minimum=1)
        blocks = self.blocks_required(num_logical)
        if (blocks > self.hardware.rows) or (blocks > self.hardware.columns):
            raise EmbeddingError(
                f"{num_logical} logical variables need {blocks} x {blocks} unit "
                f"cells; chip is {self.hardware.rows} x {self.hardware.columns}"
            )
        last_error: Optional[EmbeddingError] = None
        for row_offset in range(self.hardware.rows - blocks + 1):
            for column_offset in range(self.hardware.columns - blocks + 1):
                try:
                    return self._build_at_offset(num_logical, row_offset,
                                                 column_offset)
                except EmbeddingError as error:
                    last_error = error
        raise EmbeddingError(
            f"no defect-free placement found for {num_logical} logical variables"
            + (f" (last error: {last_error})" if last_error else "")
        )
