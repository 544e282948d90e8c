"""Statistical conformance: the sweep kernel samples the Boltzmann law.

Every equivalence suite compares one implementation's bits with another's;
this one holds the bits to the physics.  On two problems small enough to
enumerate, the long-run state histogram of a fixed-temperature anneal must
match the exact law ``p(s) ∝ exp(-E(s) / T)`` under a G-test:

* a complete 8-spin problem — every colour class a singleton, the shape of
  a dense logical problem;
* a sparse 10-spin ring with chords and two 2-spin clusters — the embedded
  shape, whose cluster (chain) flips must leave the law invariant too.

The cells are {numpy, cext} x {sequential, counter} plus a 2-block cext
pack per discipline, both always swept as two block ranges
(``every_block_splits``); one sequential cext block always swept as two
lane halves (``every_block_splits`` again); and a 2-block cext pack
annealed as four ICE batches without noise, each batch of each block
restarting from its own fresh spins; and one block of each problem with a
coupler programmed to exactly 0.0, on both paths.  The negative control gives the test
a known power: the same sampler run at ``2T`` — which is the broken
acceptance rule ``u < exp(-delta / (2T))`` — must be rejected.  Seeds are
fixed, so each cell's p-value is one fixed number; the false-alarm budget
is ``1e-3`` per cell.
"""

import numpy as np
import pytest
from scipy import stats

from repro.annealer import backends
from repro.annealer.backends import RNG_MODES
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.ice import ICEModel
from repro.ising.model import IsingModel

TEMPERATURE = 1.0
#: Constant-temperature sweeps per read: enough to forget the uniform start
#: on both problems (coefficients of order 0.5 at T = 1).
SWEEPS = 30
READS = 20000
#: A correct cell must read p above this; the 2T control, below CONTROL.
FALSE_ALARM = 1e-3
CONTROL = 1e-6
#: Bins expected to hold fewer reads are pooled into one.
MIN_EXPECTED = 5.0
SEED = 7


def complete_problem(seed=1):
    rng = np.random.default_rng(seed)
    n = 8
    return IsingModel(num_variables=n, linear=0.5 * rng.normal(size=n),
                      couplings={(i, j): float(0.5 * rng.normal())
                                 for i in range(n) for j in range(i + 1, n)})


def ring_problem(seed=2):
    rng = np.random.default_rng(seed)
    n = 10
    keys = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)}
                  | {(0, 5), (2, 7), (3, 8)})
    couplings = {key: float(0.5 * rng.normal()) for key in keys}
    # The clusters' internal edges: ferromagnetic, so a chain is usually
    # aligned and its collective flip is a move of its own.
    couplings[(0, 1)] = couplings[(5, 6)] = -1.0
    return IsingModel(num_variables=n, linear=0.5 * rng.normal(size=n),
                      couplings=couplings)


#: name -> (problem builder, clusters)
PROBLEMS = {
    "complete8": (complete_problem, None),
    "ring10": (ring_problem, [np.array([0, 1]), np.array([5, 6])]),
}


def state_index(spins):
    """Each row's state as an integer: bit ``v`` set where spin ``v`` is -1."""
    bits = np.asarray(spins) < 0
    return (bits.astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1)


def boltzmann_law(ising, temperature):
    """The exact law over all ``2^N`` states, in :func:`state_index` order."""
    n = ising.num_variables
    states = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    energies = ising.energies(states)
    weights = np.exp(-(energies - energies.min()) / temperature)
    return weights / weights.sum()


def g_test(samples, law):
    """p-value of the G-test of *samples* against *law*, pooling every bin
    expected to hold fewer than :data:`MIN_EXPECTED` reads (and, while the
    pool itself is below that, the next-smallest bins) into one."""
    observed = np.bincount(state_index(samples), minlength=law.size)
    expected = law * len(samples)
    order = np.argsort(expected, kind="stable")
    pooled = max(int(np.count_nonzero(expected < MIN_EXPECTED)),
                 int(np.searchsorted(np.cumsum(expected[order]),
                                     MIN_EXPECTED)) + 1)
    observed = np.append(observed[order[pooled:]],
                         observed[order[:pooled]].sum())
    expected = np.append(expected[order[pooled:]],
                         expected[order[:pooled]].sum())
    seen = observed > 0
    g = 2.0 * np.sum(observed[seen] * np.log(observed[seen] / expected[seen]))
    return stats.chi2.sf(g, observed.size - 1)


def anneal(sampler, temperature, random_states):
    return sampler.anneal(np.full(SWEEPS, temperature), READS, random_states)


class TestBoltzmannConformance:
    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.usefixtures("artefact")
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_single_block_samples_the_law(self, problem, rng_mode):
        build, clusters = PROBLEMS[problem]
        ising = build()
        sampler = IsingSampler(ising, clusters=clusters, rng=rng_mode)
        samples = anneal(sampler, TEMPERATURE, SEED)
        assert g_test(samples, boltzmann_law(ising, TEMPERATURE)) > FALSE_ALARM

    @staticmethod
    def check_pack(problem, rng_mode="sequential", **batches):
        """Two blocks of one structure with their own values, each against
        its own law."""
        if not backends.cext_available():
            pytest.skip("no C compiler for the cext backend")
        build, clusters = PROBLEMS[problem]
        problems = [build(), build(seed=11)]
        sampler = BlockDiagonalSampler(problems, clusters=clusters,
                                       rng=rng_mode)
        samples = sampler.anneal(
            np.full(SWEEPS, TEMPERATURE), READS,
            [np.random.default_rng(SEED + b) for b in range(2)], **batches)
        for ising, block in zip(problems, sampler.split_samples(samples)):
            law = boltzmann_law(ising, TEMPERATURE)
            assert g_test(block, law) > FALSE_ALARM

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_pack_samples_each_blocks_law(self, problem, monkeypatch,
                                          every_block_splits):
        """The sequential pack as two block ranges, whatever the host: a
        helper thread sweeps one of them."""
        ranges = []
        original = backends._helpers
        monkeypatch.setattr(
            backends, "_helpers", lambda workspace, count:
            ranges.append(count) or original(workspace, count))
        self.check_pack(problem)
        assert ranges == [1]

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_ice_batches_restart_from_fresh_spins(self, problem):
        """The batch call's batches share no state: four noise-free ICE
        batches of a quarter of the reads each, every one from a fresh
        start, still sample each block's law."""
        self.check_pack(problem, ice=ICEModel.disabled(),
                        ice_batch_size=READS // 4)

    @pytest.mark.usefixtures("every_block_splits")
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_sharded_counter_pack_samples_each_blocks_law(self, problem):
        """The counter pack as two block ranges, whatever the host."""
        self.check_pack(problem, "counter")

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_lane_halves_sample_the_law(self, problem, every_block_splits):
        """One sequential block as two lane halves on two threads, whatever
        the host."""
        if not backends.cext_available():
            pytest.skip("no C compiler for the cext backend")
        build, clusters = PROBLEMS[problem]
        ising = build()
        splits = every_block_splits["splits"]
        samples = anneal(IsingSampler(ising, clusters=clusters),
                         TEMPERATURE, SEED)
        assert every_block_splits["splits"] > splits
        assert g_test(samples, boltzmann_law(ising, TEMPERATURE)) > FALSE_ALARM

    @pytest.mark.usefixtures("artefact")
    @pytest.mark.parametrize("problem,key", [("complete8", (0, 1)),
                                             ("ring10", (0, 5))],
                             ids=["complete8", "ring10"])
    def test_a_programmed_zero_coupler_samples_the_law(self, problem, key):
        """A coupler programmed to exactly 0.0 stays in the structure — it
        is coloured, swept and, on ring10, a chain boundary like any other
        — and the law is the problem's with that coupling at zero: four
        noise-free ICE batches, which draw onto every programmed coupler."""
        build, clusters = PROBLEMS[problem]
        ising = build()
        values = ising.coupling_values.copy()
        values[ising.coupling_keys.index(key)] = 0.0
        zeroed = IsingModel.from_arrays(ising.num_variables, ising.linear,
                                        ising.coupling_keys, values)
        sampler = BlockDiagonalSampler([zeroed], clusters=clusters)
        assert sampler.isings.keys == ising.coupling_keys
        samples = sampler.anneal(np.full(SWEEPS, TEMPERATURE), READS, [SEED],
                                 ice=ICEModel.disabled(),
                                 ice_batch_size=READS // 4)
        assert g_test(samples, boltzmann_law(zeroed, TEMPERATURE)) > FALSE_ALARM

    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_doubled_temperature_is_rejected(self, problem, rng_mode):
        """The negative control, on the box's path: both paths
        draws the same bits (the identity suites), so one run per problem
        and discipline is the control of every cell."""
        build, clusters = PROBLEMS[problem]
        ising = build()
        sampler = IsingSampler(ising, clusters=clusters, rng=rng_mode)
        samples = anneal(sampler, 2.0 * TEMPERATURE, SEED)
        assert g_test(samples, boltzmann_law(ising, TEMPERATURE)) < CONTROL
