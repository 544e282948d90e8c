"""Time-to-BER (TTB) and Time-to-FER (TTF), the paper's end-to-end metrics.

Section 5.2.2: a QA run returns the best (lowest-energy) solution across its
``N_a`` anneals; since solutions other than the ground state can still have
few bit errors, the expected BER after ``N_a`` anneals is an order statistic
over the run's energy-ranked solution distribution (Eq. 9)::

    E[BER(N_a)] = sum_k [ (sum_{r>=k} p_r)^{N_a} - (sum_{r>k} p_r)^{N_a} ]
                  * F_k / N

where ``p_r`` is the probability of sampling the rank-``r`` solution and
``F_k`` its bit-error count against ground truth.  TTB(p) is then the
smallest ``N_a * (T_a + T_p) / P_f`` for which the expected BER drops to the
target ``p``; TTF applies the same machinery to the frame error rate
``1 - (1 - BER)^frame_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro import constants
from repro.exceptions import MetricsError
from repro.mimo.frame import frame_error_rate_from_ber
from repro.utils.validation import (
    check_integer_in_range,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class InstanceSolutionProfile:
    """Energy-ranked solution statistics of one problem instance.

    Attributes
    ----------
    probabilities:
        ``probabilities[r]`` is the per-anneal probability of obtaining the
        rank-``r`` (energy-sorted) solution; must sum to 1.
    bit_errors:
        ``bit_errors[r]`` is the bit-error count of the rank-``r`` solution
        against the transmitted bits.
    num_bits:
        Number of payload bits per channel use (the ``N`` of Eq. 9).
    anneal_duration_us:
        Wall-clock duration of a single anneal (ramp plus pause).
    parallelization:
        Parallelization factor ``P_f`` available for this problem size.
    """

    probabilities: np.ndarray
    bit_errors: np.ndarray
    num_bits: int
    anneal_duration_us: float
    parallelization: float = 1.0

    def __post_init__(self) -> None:
        probabilities = np.asarray(self.probabilities, dtype=float)
        errors = np.asarray(self.bit_errors, dtype=float)
        if probabilities.ndim != 1 or probabilities.size == 0:
            raise MetricsError("probabilities must be a non-empty 1-D array")
        if errors.shape != probabilities.shape:
            raise MetricsError("bit_errors must align with probabilities")
        if np.any(probabilities < 0):
            raise MetricsError("probabilities must be non-negative")
        total = probabilities.sum()
        if not np.isclose(total, 1.0, atol=1e-6):
            raise MetricsError(f"probabilities must sum to 1, got {total}")
        check_integer_in_range("num_bits", self.num_bits, minimum=1)
        check_positive("anneal_duration_us", self.anneal_duration_us)
        check_positive("parallelization", self.parallelization)
        object.__setattr__(self, "probabilities", probabilities / total)
        object.__setattr__(self, "bit_errors", errors)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_anneal_result(cls, result, reduced_problem) -> "InstanceSolutionProfile":
        """Build a profile from an annealer run and its reduced problem.

        *result* is an :class:`~repro.annealer.machine.AnnealResult`;
        *reduced_problem* must carry ground-truth transmitted bits.
        """
        probabilities = result.solution_probabilities()
        errors = np.array([
            reduced_problem.bit_errors(result.solutions.samples[rank])
            for rank in range(result.solutions.num_samples)
        ], dtype=float)
        return cls(
            probabilities=probabilities,
            bit_errors=errors,
            num_bits=reduced_problem.num_variables,
            anneal_duration_us=result.anneal_duration_us,
            parallelization=result.parallelization,
        )

    # ------------------------------------------------------------------ #
    @property
    def floor_ber(self) -> float:
        """BER reached in the limit of infinitely many anneals.

        This is the bit error rate of the lowest-energy solution that has
        non-zero probability (rank 1), i.e. the best the run can converge to.
        """
        return float(self.bit_errors[0]) / self.num_bits

    def expected_ber(self, num_anneals: int) -> float:
        """Expected BER after *num_anneals* anneals (Eq. 9)."""
        num_anneals = check_integer_in_range("num_anneals", num_anneals, minimum=1)
        # tail[k] = sum_{r >= k} p_r  (with tail[L] = 0).
        tail = np.concatenate([
            np.cumsum(self.probabilities[::-1])[::-1],
            [0.0],
        ])
        tail = np.clip(tail, 0.0, 1.0)
        weights = tail[:-1] ** num_anneals - tail[1:] ** num_anneals
        value = float(np.sum(weights * self.bit_errors) / self.num_bits)
        # The weights sum to 1 only up to one ulp of roundoff, so the
        # weighted error count can land a hair outside [0, num_bits];
        # clamp so the expectation is always a valid rate.
        return min(max(value, 0.0), 1.0)

    def expected_fer(self, num_anneals: int, frame_size_bytes: int) -> float:
        """Expected FER after *num_anneals* anneals for a given frame size."""
        return frame_error_rate_from_ber(self.expected_ber(num_anneals),
                                         frame_size_bytes)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _fewest_anneals(expected: Callable[[int], float], target: float,
                        max_anneals: int, floor: float = 0.0
                        ) -> Optional[int]:
        """Smallest anneal count whose *expected* error rate is at or below
        *target*: doubling up to *max_anneals*, then bisection.  ``None``
        when the doubling passes *max_anneals*, or when a single anneal
        misses the target and the asymptotic *floor* exceeds it."""
        max_anneals = check_integer_in_range("max_anneals", max_anneals,
                                             minimum=1)
        if expected(1) <= target:
            return 1
        if floor > target:
            return None
        low, high = 1, 1
        while expected(high) > target:
            high *= 2
            if high > max_anneals:
                return None
        while low + 1 < high:
            middle = (low + high) // 2
            if expected(middle) <= target:
                high = middle
            else:
                low = middle
        return high

    def _time_for(self, anneals: Optional[int],
                  use_parallelization: bool) -> float:
        """Time (µs) of *anneals* anneals; ``inf`` when unreachable."""
        if anneals is None:
            return float("inf")
        factor = self.parallelization if use_parallelization else 1.0
        return anneals * self.anneal_duration_us / factor

    def anneals_to_ber(self, target_ber: float,
                       max_anneals: int = 10_000_000) -> Optional[int]:
        """Smallest anneal count whose expected BER is at or below the target.

        Returns ``None`` when the target is unreachable (the asymptotic BER
        floor of the profile exceeds the target).
        """
        target_ber = check_probability("target_ber", target_ber)
        return self._fewest_anneals(self.expected_ber, target_ber,
                                    max_anneals, floor=self.floor_ber)

    def time_to_ber(self, target_ber: float = constants.TARGET_BER,
                    max_anneals: int = 10_000_000,
                    use_parallelization: bool = True) -> float:
        """TTB(p): time (µs) to reach the target expected BER, ``inf`` if never."""
        return self._time_for(self.anneals_to_ber(target_ber, max_anneals),
                              use_parallelization)

    def time_to_fer(self, target_fer: float = constants.TARGET_FER,
                    frame_size_bytes: int = 1500,
                    max_anneals: int = 10_000_000,
                    use_parallelization: bool = True) -> float:
        """TTF: time (µs) to reach the target expected FER, ``inf`` if never."""
        target_fer = check_probability("target_fer", target_fer)
        check_integer_in_range("frame_size_bytes", frame_size_bytes, minimum=1)
        anneals = self._fewest_anneals(
            lambda count: self.expected_fer(count, frame_size_bytes),
            target_fer, max_anneals)
        return self._time_for(anneals, use_parallelization)


def expected_ber_after_anneals(probabilities: Sequence[float],
                               bit_errors: Sequence[float], num_bits: int,
                               num_anneals: int) -> float:
    """Functional form of Eq. 9 for callers without a full profile object."""
    profile = InstanceSolutionProfile(
        probabilities=np.asarray(probabilities, dtype=float),
        bit_errors=np.asarray(bit_errors, dtype=float),
        num_bits=num_bits,
        anneal_duration_us=1.0,
    )
    return profile.expected_ber(num_anneals)


def time_to_ber(profile: InstanceSolutionProfile,
                target_ber: float = constants.TARGET_BER, **kwargs) -> float:
    """Convenience wrapper for :meth:`InstanceSolutionProfile.time_to_ber`."""
    return profile.time_to_ber(target_ber, **kwargs)


def time_to_fer(profile: InstanceSolutionProfile,
                target_fer: float = constants.TARGET_FER,
                frame_size_bytes: int = 1500, **kwargs) -> float:
    """Convenience wrapper for :meth:`InstanceSolutionProfile.time_to_fer`."""
    return profile.time_to_fer(target_fer, frame_size_bytes=frame_size_bytes,
                               **kwargs)
