"""Summary statistics used throughout the experiment reports.

The paper reports medians with 10th/90th (or 15th/85th) percentile shading
and occasionally means dominated by long-tailed outliers; this module keeps
those summaries in one dataclass so every experiment driver reports them the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import MetricsError


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-style summary of a sample of measurements."""

    count: int
    mean: float
    median: float
    percentile_10: float
    percentile_90: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float],
              ignore_infinite: bool = False) -> DistributionSummary:
    """Summarise a sequence of measurements.

    Parameters
    ----------
    values:
        Sample values; must be non-empty.
    ignore_infinite:
        Drop non-finite entries (e.g. instances that never reached a target
        BER) before summarising; if everything is non-finite the summary is
        all-infinite with ``count`` 0.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise MetricsError("cannot summarise an empty sample")
    if ignore_infinite:
        finite = array[np.isfinite(array)]
        if finite.size == 0:
            return DistributionSummary(count=0, mean=float("inf"),
                                       median=float("inf"),
                                       percentile_10=float("inf"),
                                       percentile_90=float("inf"),
                                       minimum=float("inf"),
                                       maximum=float("inf"))
        array = finite
    return DistributionSummary(
        count=int(array.size),
        mean=float(np.mean(array)),
        median=float(np.median(array)),
        percentile_10=float(np.percentile(array, 10)),
        percentile_90=float(np.percentile(array, 90)),
        minimum=float(np.min(array)),
        maximum=float(np.max(array)),
    )
