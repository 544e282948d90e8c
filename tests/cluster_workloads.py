"""Shared embedded-shaped test workloads.

One builder for the cluster-kernel suites (equivalence, backend and golden
tests), so the workload the golden digest pins is exactly the workload the
randomized equivalence sweeps exercise; one ICE model that cancels a
programmed coupling, for the machine and pack-pipeline suites; and one
NaN-framed spin buffer for the C batch call, for the lane-layout canaries.
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


def cancelling_ice(machine, problems, parameters):
    """An ICE model that cancels a programmed coupler of the last of
    *problems*, and of no other, in every draw: coupling mean minus a value
    only that problem programs, no coupling spread (the draws are still
    made, from each problem's own generator)."""
    from repro.annealer.embedded import embed_ising
    from repro.annealer.ice import ICEModel

    embedding = machine.embedding_for(problems[0].num_variables)
    rows = [embed_ising(problem, embedding,
                        chain_strength=parameters.chain_strength,
                        extended_range=parameters.extended_range
                        ).ising.coupling_values.tolist()
            for problem in problems]
    others = {value for row in rows[:-1] for value in row}
    value = next(value for value in rows[-1] if value not in others)
    return ICEModel(quadratic_mean=-value, quadratic_std=0.0)


def framed_batch_spins(monkeypatch, sampler, replicas):
    """Seat the spin buffer of *sampler*'s next C batch call — one batch of
    *replicas* rows — in a NaN-framed matrix: an interior view whose row
    stride exceeds its width.  Returns ``(view, frame, border)``; the call
    must leave ``frame[border]`` NaN and hand back the view's last state."""
    from repro.annealer import backends

    frame = np.full((replicas + 2, sampler.num_variables + 8), np.nan)
    view = frame[1:-1, 3:-5]
    border = np.ones(frame.shape, dtype=bool)
    border[1:-1, 3:-5] = False
    original = backends._batch_buffers
    monkeypatch.setattr(backends, "_batch_buffers", lambda *shape: (
        view, *original(*shape)[1:]))
    return view, frame, border
