"""Host calibration: a fixed 3 ms CPU burn that measures how fast this box
is *now*.

The sandbox this benchmark was sized on reports 2 CPUs, delivers about one
core, and steps between speed levels every few seconds (the same burn reads
2.6, 3.3 or 4.2 ms; the same 800-job replay 0.65 to 1.4 s).  The load
generator therefore runs this burn between submissions, every
``BURN_GAP_S`` of replay, takes the burns' time out of the replay's wall and
scales what is left by ``BURN_REF_S / mean(burn)`` to a nominal host speed.
Over one ten-seed sweep (43 to 83 replays per workload, in 20 processes)
the raw wall of a replay varied by 12-18 % (standard deviation over mean)
and the scaled wall by 5-7.5 %.  A single 0.2 s burn before and after each
replay - the first design - cannot see the level change inside a replay.

The burn imports nothing from ``repro``: a change to the program can never
move the yardstick.  Run as a script it prints the mean of a burst of burns,
which is how ``run.py`` measures effective parallelism (two of these
processes at once versus one).
"""

import statistics
import sys
import time
from typing import List, Sequence

import numpy as np

#: Nominal duration of one burn on the box the workloads were sized on.
BURN_REF_S = 0.003
#: Loop count of one burn; fixed, so the burn is the same work everywhere.
BURN_ITERATIONS = 3_000
#: Replay time between two interleaved burns (so burns cost ~ 1/6 extra).
BURN_GAP_S = 0.015


def burn() -> float:
    """Do the fixed work (small-array NumPy calls from an interpreter loop,
    which is what the serving path is made of); return its wall seconds."""
    start = time.perf_counter()
    values = np.arange(64, dtype=np.float64)
    for _ in range(BURN_ITERATIONS):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def _capped(burns_s: Sequence[float]) -> List[float]:
    """The host's speed levels differ by at most 1.6x, so a burn longer than
    twice the median was preempted, and counts as twice the median: its
    time is taken out of the replay's wall, so it says nothing about how
    fast the replay ran.  (Before this cap two of 98 ``saturating_qpsk``
    rounds read 0.39 and 0.45 s against a median of 0.65 s.)"""
    cap = 2.0 * statistics.median(burns_s)
    return [min(burn, cap) for burn in burns_s]


def speed_factor(burns_s: Sequence[float]) -> float:
    """Factor scaling a wall time to nominal host speed, from the burns
    interleaved with it (< 1 when the host was slower than nominal)."""
    return BURN_REF_S * len(burns_s) / sum(_capped(burns_s))


def local_speed_factors(burns_s: Sequence[float],
                        marks: Sequence[int]) -> List[float]:
    """Speed factor of each short timed call from the burn before and the
    burn after it; a mark is the number of burns done when the call began.

    A speed level lasts a few seconds and a replay about one, so many
    replays straddle a change and their mean factor under-corrects the slow
    part, which is where the tail of the stalls comes from.  Over 18 rounds
    in 3 processes the per-round p95 stall of ``counter_qpsk`` varied 10 %
    (standard deviation over mean) under the replay's mean factor and 4.7 %
    under these; the p50 7 % and 2 %.
    """
    capped = _capped(burns_s)
    return [BURN_REF_S / statistics.mean(capped[max(0, mark - 1):mark + 1])
            for mark in marks]


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    print(repr(sum(burn() for _ in range(count)) / count))
