"""Parallelization of multiple problem instances on one chip.

Section 4 of the paper: because a clique embedding only occupies
``N * (ceil(N/4) + 1)`` physical qubits, several (identical or different)
problem instances can be programmed side by side on the 2,031-qubit chip and
annealed simultaneously, dividing the effective time per instance by the
parallelization factor ``P_f``.

"Identical or different" is what the serving layer packs by:
:class:`~repro.cran.scheduler.EDFBatchScheduler` flushes whatever is pending
— any mix of problem structures — as one QA job, and since ``1 / P_f`` is
the share of the chip an instance occupies, the members' amortised compute
times add up to the anneal time times the share of the chip programmed.
"""

from __future__ import annotations

from repro.annealer.embedding import physical_qubits_required
from repro.exceptions import AnnealerError
from repro.utils.validation import check_integer_in_range
from repro import constants


def parallelization_factor(num_logical: int,
                           total_qubits: int = constants.DW2Q_WORKING_QUBITS,
                           shore_size: int = 4,
                           geometry_efficiency: float = 1.0) -> float:
    """Asymptotic parallelization factor ``P_f`` of a problem on a chip.

    ``P_f ~= N_tot / (N (ceil(N/4) + 1))``, optionally derated by a geometry
    efficiency factor < 1 to account for the fact that triangular embeddings
    do not tile a finite chip perfectly.

    The returned value is at least 1 (a problem that fits at all can always be
    run once); callers needing integral copies should floor it.
    """
    num_logical = check_integer_in_range("num_logical", num_logical, minimum=1)
    total_qubits = check_integer_in_range("total_qubits", total_qubits, minimum=1)
    if not 0 < geometry_efficiency <= 1:
        raise AnnealerError(
            f"geometry_efficiency must be in (0, 1], got {geometry_efficiency}")
    required = physical_qubits_required(num_logical, shore_size)
    if required > total_qubits:
        raise AnnealerError(
            f"problem needs {required} physical qubits, chip has {total_qubits}")
    factor = geometry_efficiency * total_qubits / required
    return max(1.0, factor)
