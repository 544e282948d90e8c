"""Shared embedded-shaped cluster test workload.

One builder for the cluster-kernel suites (equivalence, backend and golden
tests), so the workload the golden digest pins is exactly the workload the
randomized equivalence sweeps exercise.
"""

import numpy as np


def build_path_chain_problem(num_variables, chain_length, seed, density=0.08):
    """Embedded-shaped problem: ferromagnetic path chains (offered as flip
    clusters) plus sparse random cross couplings.

    Returns ``(ising, clusters)``.
    """
    from repro.ising.model import IsingModel

    rng = np.random.default_rng(seed)
    couplings = {}
    clusters = []
    for start in range(0, num_variables, chain_length):
        members = np.arange(start, min(start + chain_length, num_variables),
                            dtype=np.intp)
        clusters.append(members)
        for a, b in zip(members[:-1], members[1:]):
            couplings[(int(a), int(b))] = -2.0
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            if (i, j) not in couplings and rng.random() < density:
                couplings[(i, j)] = float(rng.normal())
    ising = IsingModel(num_variables=num_variables,
                       linear=rng.normal(size=num_variables),
                       couplings=couplings)
    return ising, clusters
