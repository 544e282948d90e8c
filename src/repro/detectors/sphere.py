"""Sphere Decoder: exact ML detection with tree-search pruning.

The Sphere Decoder (Section 2.1 of the paper) reduces ML complexity by
constraining the search to candidate vectors within a hypersphere around the
received point.  After the QR decomposition ``H = Q R`` the problem becomes a
depth-first search over a tree of height ``N_t`` and branching factor
``|O|``; this implementation uses Schnorr–Euchner enumeration (children
visited in order of increasing partial metric) with radius updates at every
leaf, and instruments the number of visited tree nodes — the complexity
measure reported in the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.exceptions import DetectionError
from repro.mimo.system import ChannelUse


@dataclass
class SphereDecoderStats:
    """Instrumentation collected during one sphere decoding run."""

    #: Number of tree nodes whose partial metric was evaluated and which were
    #: expanded (i.e. lay inside the current search radius).
    visited_nodes: int = 0
    #: Number of complete candidate vectors (leaves) reached.
    leaves_reached: int = 0
    #: Number of nodes pruned because their partial metric exceeded the radius.
    pruned_nodes: int = 0
    #: Final squared search radius (the ML metric on success).
    final_radius: float = float("inf")


class SphereDecoder(Detector):
    """Depth-first Schnorr–Euchner sphere decoder.

    Parameters
    ----------
    initial_radius:
        Optional initial squared search radius ``C``; ``None`` starts with an
        infinite radius (the first depth-first leaf then sets it).
    max_visited_nodes:
        Safety budget: decoding aborts with :class:`DetectionError` once more
        nodes than this have been visited, mirroring the fixed compute budget
        a real-time receiver has.
    """

    name = "sphere-decoder"

    def __init__(self, initial_radius: Optional[float] = None,
                 max_visited_nodes: int = 5_000_000):
        if initial_radius is not None and initial_radius <= 0:
            raise DetectionError("initial_radius must be positive when given")
        if max_visited_nodes <= 0:
            raise DetectionError("max_visited_nodes must be positive")
        self.initial_radius = initial_radius
        self.max_visited_nodes = int(max_visited_nodes)
        #: Statistics of the most recent :meth:`detect` call.
        self.last_stats = SphereDecoderStats()

    # ------------------------------------------------------------------ #
    def detect(self, channel_use: ChannelUse) -> DetectionResult:
        self._check_square_or_tall(channel_use)
        stats = SphereDecoderStats()
        q_matrix, r_matrix = np.linalg.qr(channel_use.channel)
        reduced = q_matrix.conj().T @ channel_use.received
        points = channel_use.constellation.points
        num_tx = channel_use.num_tx

        best_metric = (np.inf if self.initial_radius is None
                       else float(self.initial_radius))
        best_symbols: Optional[np.ndarray] = None
        assignment = np.zeros(num_tx, dtype=np.complex128)

        def recurse(level: int, partial_metric: float) -> None:
            nonlocal best_metric, best_symbols
            if stats.visited_nodes > self.max_visited_nodes:
                raise DetectionError(
                    f"sphere decoder exceeded the visited-node budget of "
                    f"{self.max_visited_nodes}"
                )
            # Residual at this level given symbols already fixed below it
            # (levels are processed from the last user down to the first).
            interference = 0.0 + 0.0j
            for j in range(level + 1, num_tx):
                interference += r_matrix[level, j] * assignment[j]
            target = reduced[level] - interference
            increments = np.abs(target - r_matrix[level, level] * points) ** 2
            order = np.argsort(increments)
            for position, index in enumerate(order):
                candidate_metric = partial_metric + float(increments[index])
                if candidate_metric >= best_metric:
                    # Schnorr-Euchner ordering: every remaining sibling is at
                    # least as expensive, so the whole subtree is pruned.
                    stats.pruned_nodes += len(order) - position
                    return
                stats.visited_nodes += 1
                assignment[level] = points[index]
                if level == 0:
                    stats.leaves_reached += 1
                    best_metric = candidate_metric
                    best_symbols = assignment.copy()
                else:
                    recurse(level - 1, candidate_metric)

        recurse(num_tx - 1, 0.0)

        if best_symbols is None:
            raise DetectionError(
                "sphere decoder found no candidate inside the initial radius; "
                "increase initial_radius or use None for an unbounded start"
            )
        # The tree search minimises the reduced metric ||Q^H y - R v||^2; for
        # tall channels (N_r > N_t) the full ML metric also carries the
        # constant power of y outside the column space of H.
        residual_power = float(np.real(np.vdot(channel_use.received,
                                                channel_use.received))
                               - np.real(np.vdot(reduced, reduced)))
        full_metric = best_metric + max(residual_power, 0.0)
        stats.final_radius = full_metric
        self.last_stats = stats
        bits = channel_use.constellation.demodulate(best_symbols)
        return DetectionResult(
            symbols=best_symbols,
            bits=bits,
            metric=full_metric,
            detector=self.name,
            extra={
                "visited_nodes": stats.visited_nodes,
                "leaves_reached": stats.leaves_reached,
                "pruned_nodes": stats.pruned_nodes,
            },
        )
