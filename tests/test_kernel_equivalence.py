"""Randomized equivalence suite for the colour-class sweep kernel.

The sampler has one sweep kernel, checked here against the repository's
other Metropolis implementations and against itself across backends:

* the sequential discipline is written out plainly in
  ``sequential_sweep_oracle`` (one variable, one neighbour, one draw at a
  time); both paths must follow it bit for bit over whole energy
  trajectories, on complete graphs (the QuAMax logical regime, which
  colours into singletons), on the ML reductions of real channel uses and
  on sparse problems with wide classes;
* packs of complete-graph problems must equal their per-block serial
  anneals;
* agreement with the scalar ``sample_reference`` loop, whose
  random-permutation sweeps never share a stream with the kernel, is
  statistical: both reach the brute-force ground state with compatible
  energy distributions;
* compiled backends reproduce the numpy loops bit for bit, on dense and
  embedded (chain-clustered) problems, single blocks and packs, and at the
  edges of the C kernels' lane layout.

The sweep over ``(num_vars, density, schedule)`` is seeded, so failures are
reproducible.  That the sampler samples the Boltzmann law at all is
``tests/test_boltzmann.py``.  Every single-block sequential cext call here
sweeps as two lane halves on two threads (the ``every_block_splits``
fixture), so each identity above holds for the split call too.
"""

import numpy as np
import pytest

from repro.annealer import backends
from repro.annealer.engine import (
    BlockDiagonalSampler,
    IsingSampler,
    colour_classes,
)
from repro.ising.model import IsingModel
from repro.ising.solver import (
    BruteForceIsingSolver,
    SimulatedAnnealingSolver,
    geometric_temperature_schedule,
)

pytestmark = pytest.mark.usefixtures("every_block_splits")
needs_cext = pytest.mark.skipif(not backends.cext_available(),
                                reason="no C compiler builds the artefact here")


def random_ising(num_variables, seed, density=1.0):
    rng = np.random.default_rng(seed)
    couplings = {}
    for i in range(num_variables):
        for j in range(i + 1, num_variables):
            if rng.random() <= density:
                couplings[(i, j)] = float(rng.normal())
    return IsingModel(num_variables=num_variables,
                      linear=rng.normal(size=num_variables),
                      couplings=couplings)


def schedule(num_sweeps, hot=5.0, cold=0.05):
    return geometric_temperature_schedule(num_sweeps, hot, cold)


def sequential_sweep_oracle(ising, temperatures, num_replicas, rng,
                            snapshots=()):
    """The sequential draw discipline written out plainly, one variable and
    one neighbour at a time, independent of the sampler's operators.

    The start is ``2 * rng.integers(0, 2, (R, N)) - 1``.  Each sweep visits
    the colour classes in order; a class's members update together from the
    state before the class, each local field summed over neighbours in
    ascending index order from zero, then the linear term added.  A move
    with ``delta <= 0`` is taken without a draw; the uphill ones draw one
    uniform each, replica-major, and flip when it is below
    ``exp(-delta / T)``.  On a complete graph every class is a singleton
    and this is the textbook index-order sweep.  Returns the spins after
    each sweep count in *snapshots*, keyed by that count.
    """
    n = ising.num_variables
    neighbours = [[] for _ in range(n)]
    for (i, j), value in ising.couplings.items():
        neighbours[i].append((j, value))
        neighbours[j].append((i, value))
    for row in neighbours:
        row.sort()
    spins = 2.0 * rng.integers(0, 2, size=(num_replicas, n)) - 1.0
    classes = colour_classes(ising)
    states = {}
    for sweep, temperature in enumerate(temperatures, start=1):
        for group in classes:
            fields = np.zeros((num_replicas, group.size))
            for m, i in enumerate(group):
                for j, value in neighbours[i]:
                    fields[:, m] += value * spins[:, j]
            fields += ising.linear[group]
            delta = -2.0 * spins[:, group] * fields
            accept = delta <= 0.0
            uphill = ~accept
            accept[uphill] = (rng.random(np.count_nonzero(uphill))
                              < np.exp(-delta[uphill] / temperature))
            spins[:, group] = np.where(accept, -spins[:, group],
                                       spins[:, group])
        if sweep in snapshots:
            states[sweep] = spins.astype(np.int8)
    return states


def assert_trajectory_matches_oracle(ising, temperatures, num_replicas, seed,
                                     array_digest):
    """Anneals over schedule prefixes consume a prefix of the stream, so the
    k-sweep samples ARE the trajectory after k sweeps of the full anneal:
    comparing several prefixes compares trajectories, not end points."""
    num_sweeps = len(temperatures)
    prefixes = (1, num_sweeps // 2, num_sweeps)
    expected = sequential_sweep_oracle(ising, temperatures, num_replicas,
                                       np.random.default_rng(seed),
                                       snapshots=prefixes)
    sampler = IsingSampler(ising)
    operator = ising.coupling_operator()
    for prefix in prefixes:
        actual = sampler.anneal(temperatures[:prefix], num_replicas,
                                random_state=seed)
        np.testing.assert_array_equal(actual, expected[prefix])
        np.testing.assert_array_equal(
            ising.energies(actual, operator=operator),
            ising.energies(expected[prefix], operator=operator))
        assert array_digest(actual) == array_digest(expected[prefix])


class TestCompleteGraphDynamics:
    """A complete coupling graph (the QuAMax logical regime) colours into
    singletons: the colour kernel sweeps it one variable at a time in class
    order, and everything a pack promises still holds."""

    # Seeded randomized sweep: complete graphs of several sizes, several
    # temperature schedules, several seeds, on both paths.
    CASES = [(num_variables, num_sweeps, hot, seed)
             for num_variables in (5, 11, 18)
             for num_sweeps, hot in ((30, 5.0), (75, 2.0))
             for seed in (0, 1)]

    @pytest.mark.parametrize("num_variables", [4, 12, 24])
    def test_complete_graph_colours_into_singletons(self, num_variables):
        ising = random_ising(num_variables, 0)
        assert len(colour_classes(ising)) == num_variables
        assert all(group.size == 1
                   for group in IsingSampler(ising).block_classes)

    @pytest.mark.usefixtures("artefact")
    @pytest.mark.parametrize("num_variables,num_sweeps,hot,seed", CASES)
    def test_energy_trajectories_and_digests_match_oracle(
            self, num_variables, num_sweeps, hot, seed, array_digest):
        ising = random_ising(num_variables, seed)
        assert_trajectory_matches_oracle(ising, schedule(num_sweeps, hot=hot),
                                         12, seed + 40, array_digest)

    def test_refresh_values_sweeps_the_new_values(self):
        base = random_ising(9, 16)
        rng = np.random.default_rng(4)
        replacement = IsingModel(
            num_variables=9, linear=rng.normal(size=9),
            couplings={key: float(rng.normal()) for key in base.couplings})
        refreshed = IsingSampler(base)
        temperatures = schedule(30)
        refreshed.anneal(temperatures[:3], 7, random_state=16)
        refreshed.refresh_values(replacement)
        expected = sequential_sweep_oracle(
            replacement, temperatures, 7, np.random.default_rng(17),
            snapshots=(30,))
        np.testing.assert_array_equal(
            refreshed.anneal(temperatures, 7, random_state=17), expected[30])

    def test_multi_block_matches_serial(self):
        rng = np.random.default_rng(8)
        base = random_ising(9, 9)
        problems = [
            IsingModel(num_variables=9, linear=rng.normal(size=9),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(3)
        ]
        temperatures = schedule(40)
        blocked = BlockDiagonalSampler(problems)
        combined = blocked.anneal(
            temperatures, 8, [np.random.default_rng(70 + b) for b in range(3)])
        for b, block in enumerate(blocked.split_samples(combined)):
            serial = IsingSampler(problems[b]).anneal(
                temperatures, 8, random_state=np.random.default_rng(70 + b))
            np.testing.assert_array_equal(block, serial)

    def test_anneal_is_deterministic(self, array_digest):
        sampler = IsingSampler(random_ising(14, 18))
        temperatures = schedule(50)
        first = sampler.anneal(temperatures, 20, random_state=19)
        second = sampler.anneal(temperatures, 20, random_state=19)
        assert array_digest(first) == array_digest(second)


class TestGeneralGraphDynamics:
    """Off the complete graph, classes hold several members that update
    together; the oracle's class-ordered, replica-major draws still
    reproduce the kernel bit for bit."""

    @pytest.mark.usefixtures("artefact")
    @pytest.mark.parametrize("num_users", [4, 8, 12])
    def test_quamax_logical_problem_matches_oracle(self, num_users,
                                                   array_digest):
        # The ML reduction of a QPSK channel use couples almost every
        # variable pair: the logical problems the solvers are handed.
        from repro.mimo.system import MimoUplink
        from repro.transform.reduction import MLToIsingReducer

        link = MimoUplink(num_users=num_users, constellation="QPSK")
        channel_use = link.transmit(snr_db=20.0, random_state=1)
        ising = MLToIsingReducer().reduce(channel_use).ising
        assert_trajectory_matches_oracle(ising, schedule(30), 8,
                                         num_users + 60, array_digest)

    @pytest.mark.usefixtures("artefact")
    @pytest.mark.parametrize("num_variables,density", [(16, 0.15), (24, 0.3)])
    def test_sparse_problem_matches_oracle(self, num_variables, density,
                                           array_digest):
        ising = random_ising(num_variables, 1, density=density)
        assert len(colour_classes(ising)) < num_variables / 2
        assert_trajectory_matches_oracle(ising, schedule(40), 8,
                                         num_variables + 70, array_digest)


class TestStatisticalAgreementAcrossDynamics:
    """Where the update orders differ, agreement is statistical."""

    @pytest.mark.parametrize("density,seed", [(0.5, 21), (0.8, 22)])
    def test_solves_partially_coupled_problems(self, density, seed):
        # Between the sparse and the complete regime classes are few and
        # uneven; the sampler must still find the exact ground state.
        ising = random_ising(12, seed, density=density)
        exact = BruteForceIsingSolver().ground_energy(ising)
        samples = IsingSampler(ising).anneal(schedule(150), 60,
                                             random_state=seed)
        assert ising.energies(samples).min() == pytest.approx(exact)

    def test_dense_solver_matches_scalar_reference_statistics(self):
        ising = random_ising(12, 23)
        exact = BruteForceIsingSolver().ground_energy(ising)
        solver = SimulatedAnnealingSolver(num_sweeps=120, num_reads=150)
        vectorised = solver.sample(ising, random_state=24)
        reference = solver.sample_reference(ising, random_state=24)

        def read_energies(result):
            return np.repeat(result.energies, result.num_occurrences)

        vec = read_energies(vectorised)
        ref = read_energies(reference)
        assert vec.size == ref.size == 150
        pooled_sem = np.hypot(vec.std(ddof=1) / np.sqrt(vec.size),
                              ref.std(ddof=1) / np.sqrt(ref.size))
        assert abs(vec.mean() - ref.mean()) <= 2.5 * max(pooled_sem, 1e-12)
        assert vectorised.best_energy == pytest.approx(exact)
        assert reference.best_energy == pytest.approx(exact)
        assert vectorised.ground_state_probability(exact, 1e-9) > 0.3
        assert reference.ground_state_probability(exact, 1e-9) > 0.3


@needs_cext
class TestCompiledBackendSharedDynamics:
    """The C artefact must reproduce the numpy loops' streams exactly.

    A seeded randomized sweep over problem shapes — dense logical-style
    problems, whose classes are singletons, and sparse ones with a handful
    of wide classes — so a compiled backend that diverges on either shape
    fails here by digest.
    """

    CASES = [(num_variables, density, num_sweeps, seed)
             for num_variables, density in ((6, 1.0), (14, 1.0), (16, 0.3))
             for num_sweeps in (25, 60)
             for seed in (0, 1)]

    @pytest.mark.parametrize("num_variables,density,num_sweeps,seed", CASES)
    def test_digests_agree(self, num_variables, density, num_sweeps, seed,
                           array_digest, on_numpy):
        ising = random_ising(num_variables, seed, density=density)
        temperatures = schedule(num_sweeps)
        sampler = IsingSampler(ising)
        with on_numpy():
            expected = sampler.anneal(temperatures, 10, random_state=seed + 50)
        actual = sampler.anneal(temperatures, 10, random_state=seed + 50)
        np.testing.assert_array_equal(expected, actual)
        assert array_digest(expected) == array_digest(actual)

    def test_compiled_backend_solves_to_ground_state(self):
        ising = random_ising(12, 33)
        exact = BruteForceIsingSolver().ground_energy(ising)
        sampler = IsingSampler(ising)
        samples = sampler.anneal(schedule(150), 60, random_state=34)
        assert ising.energies(samples).min() == pytest.approx(exact)


# The embedded-shaped cluster workload, shared with the backend and golden
# suites so they all exercise one problem family.
from cluster_workloads import build_path_chain_problem as path_chain_ising  # noqa: E402
from cluster_workloads import framed_batch_spins  # noqa: E402


def chain_pack(blocks, num_variables, seed):
    """*blocks* structure-sharing path-chain problems (random values over
    one coupling structure) and their clusters."""
    base, clusters = path_chain_ising(num_variables, 5, seed, density=0.12)
    rng = np.random.default_rng(seed + 1)
    problems = [
        IsingModel(num_variables=num_variables,
                   linear=rng.normal(size=num_variables),
                   couplings={key: float(rng.normal())
                              for key in base.couplings})
        for _ in range(blocks)
    ]
    return problems, clusters


@needs_cext
class TestEmbeddedClusterSharedDynamics:
    """Cluster (chain-flip) moves across backends: bit-identical streams.

    A seeded randomized sweep over embedded-shaped problems — path chains
    of several lengths (including chains past NumPy's short-reduction
    cutoff) plus sparse cross couplings — annealed with cluster moves under
    both paths.  The numpy loops are the reference; the fused
    compiled cluster kernels must reproduce their per-variable/per-cluster
    draw streams exactly, over schedule prefixes (trajectories, not just
    end points), and for multi-block packs (the serving shape, one
    pack-level compiled dispatch).
    """

    CASES = [(num_variables, chain_length, num_sweeps, seed)
             for num_variables, chain_length in ((24, 4), (48, 8), (64, 16))
             for num_sweeps in (20, 45)
             for seed in (0, 1)]

    @pytest.mark.parametrize(
        "num_variables,chain_length,num_sweeps,seed", CASES)
    def test_embedded_cluster_digests_agree(self, num_variables,
                                            chain_length, num_sweeps, seed,
                                            array_digest, on_numpy):
        ising, clusters = path_chain_ising(num_variables, chain_length,
                                           seed + 60)
        temperatures = schedule(num_sweeps)
        reference = IsingSampler(ising, clusters=clusters)
        compiled = IsingSampler(ising, clusters=clusters)
        for prefix in (1, num_sweeps // 2, num_sweeps):
            with on_numpy():
                expected = reference.anneal(temperatures[:prefix], 8,
                                            random_state=seed + 61)
            actual = compiled.anneal(temperatures[:prefix], 8,
                                     random_state=seed + 61)
            np.testing.assert_array_equal(expected, actual)
            assert array_digest(expected) == array_digest(actual)

    def test_embedded_cluster_pack_matches_numpy_and_serial(self, on_numpy):
        base, clusters = path_chain_ising(20, 5, 70, density=0.12)
        rng = np.random.default_rng(71)
        problems = [
            IsingModel(num_variables=20, linear=rng.normal(size=20),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(4)
        ]
        temperatures = schedule(35)
        packed = BlockDiagonalSampler(problems, clusters=clusters)
        with on_numpy():
            expected = packed.anneal(
                temperatures, 6,
                [np.random.default_rng(80 + b) for b in range(4)])
        actual = packed.anneal(
            temperatures, 6,
            [np.random.default_rng(80 + b) for b in range(4)])
        np.testing.assert_array_equal(expected, actual)
        for b, block in enumerate(packed.split_samples(actual)):
            serial = IsingSampler(problems[b], clusters=clusters).anneal(
                temperatures, 6, random_state=np.random.default_rng(80 + b))
            np.testing.assert_array_equal(block, serial)

    def test_refresh_values_rebinds_cluster_kernels(self, on_numpy):
        """ICE-style rebinds flow through the cached compiled descriptors."""
        base, clusters = path_chain_ising(24, 6, 72, density=0.1)
        rng = np.random.default_rng(73)
        replacement = IsingModel(
            num_variables=24, linear=rng.normal(size=24),
            couplings={key: float(rng.normal()) for key in base.couplings})
        temperatures = schedule(30)
        rebound = IsingSampler(base, clusters=clusters)
        # Populate the structure caches on the original values first.
        rebound.anneal(temperatures[:3], 3, random_state=74)
        rebound.refresh_values(replacement)
        with on_numpy():
            expected = IsingSampler(replacement, clusters=clusters).anneal(
                temperatures, 5, random_state=75)
        np.testing.assert_array_equal(
            rebound.anneal(temperatures, 5, random_state=75), expected)

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    @pytest.mark.parametrize("temperature", [5.0, 0.02], ids=["hot", "cold"])
    def test_constant_temperature_colour_cluster_stress(self, blocks, rng_mode,
                                                        temperature, on_numpy):
        """The colour moves at their two extremes: at T=5 most proposals
        are accepted, so every field is summed over freshly flipped
        neighbours; at T=0.02 almost none is, so the same fields come back
        sweep after sweep.  Either way the numpy loops are reproduced."""
        problems, clusters = chain_pack(blocks, 30, 90)
        temperatures = np.full(25, temperature)

        def anneal():
            sampler = BlockDiagonalSampler(problems, clusters=clusters,
                                           rng=rng_mode)
            return sampler.anneal(temperatures, 7,
                                  [np.random.default_rng(92 + b)
                                   for b in range(blocks)])

        with on_numpy():
            expected = anneal()
        np.testing.assert_array_equal(expected, anneal())

    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_kept_workspace_serves_neither_earlier_call_nor_earlier_values(
            self, rng_mode, on_numpy):
        """Two successive anneals of a sampler rebound through
        ``refresh_values`` equal two fresh samplers: nothing the kernel
        workspace keeps between calls (lane scratch, argument block) may
        carry spins or values of an earlier call into a later one."""
        base, clusters = path_chain_ising(24, 6, 93, density=0.1)
        rng = np.random.default_rng(94)
        replacement = IsingModel(
            num_variables=24, linear=rng.normal(size=24),
            couplings={key: float(rng.normal()) for key in base.couplings})
        temperatures = schedule(30)
        rebound = IsingSampler(base, clusters=clusters, rng=rng_mode)
        rebound.anneal(temperatures, 5, random_state=95)
        rebound.refresh_values(replacement)
        for seed in (96, 97):
            with on_numpy():
                expected = IsingSampler(
                    replacement, clusters=clusters, rng=rng_mode).anneal(
                    temperatures, 5, random_state=seed)
            np.testing.assert_array_equal(
                rebound.anneal(temperatures, 5, random_state=seed), expected)


@needs_cext
class TestLaneEdges:
    """The lane-major cext colour kernels at the edges of their layout.

    The C kernels sweep all replicas of a spin at once over a transposed
    copy padded to the vector width, so the cases that could go wrong are
    the ones the layout adds: replica counts around a lane boundary (pad
    lanes must never draw, flip or be written back), packs whose blocks are
    column slices, batch-call spin buffers whose row stride exceeds their
    width, and lane groups split across helper threads.  Everything is
    compared with the numpy reference loops from the drawn start, spins
    *and* generator end state.
    """

    SIZE = 30

    @staticmethod
    def states(rngs):
        return [rng.bit_generator.state for rng in rngs]

    @pytest.mark.parametrize("replicas", [1, 2, 3, 4, 5, 7, 25])
    @pytest.mark.parametrize("layout", ["one-block", "three-blocks",
                                        "strided"])
    @pytest.mark.parametrize("with_clusters", [True, False],
                             ids=["clusters", "plain"])
    @pytest.mark.parametrize("temperature", [5.0, 0.02], ids=["hot", "cold"])
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_lane_layouts_match_the_reference_loops(
            self, monkeypatch, replicas, layout, with_clusters, temperature,
            rng_mode, on_numpy):
        blocks = 3 if layout == "three-blocks" else 1
        problems, clusters = chain_pack(blocks, self.SIZE, 100)
        if not with_clusters:
            clusters = None
        temperatures = np.full(12, temperature)

        reference_rngs = [np.random.default_rng(103 + b)
                          for b in range(blocks)]
        with on_numpy():
            expected = BlockDiagonalSampler(
                problems, clusters=clusters, rng=rng_mode).anneal(
                temperatures, replicas, reference_rngs)

        rngs = [np.random.default_rng(103 + b) for b in range(blocks)]
        sampler = BlockDiagonalSampler(problems, clusters=clusters,
                                       rng=rng_mode)
        if layout == "strided":
            # The batch call's spins as an interior view of a larger
            # matrix: the row stride exceeds the width, and the NaN border
            # shows any write that strays outside the view.
            view, frame, border = framed_batch_spins(monkeypatch, sampler,
                                                     replicas)
        actual = sampler.anneal(temperatures, replicas, rngs)
        if layout == "strided":
            assert np.isnan(frame[border]).all()
            np.testing.assert_array_equal(view, actual)
        np.testing.assert_array_equal(expected, actual)
        assert self.states(rngs) == self.states(reference_rngs)

    @pytest.mark.parametrize("replicas", [5, 7, 25])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_lane_groups_are_identical_across_thread_counts(
            self, monkeypatch, replicas, blocks, on_numpy,
            every_block_splits):
        """The two ways a call's lane groups reach a second core — a pack's
        blocks as one range per usable CPU, one sequential block's replicas
        as two lane halves (a one-block counter call stays whole) — leave
        the numpy loops' spins and generator states on 1, 2 and 4 usable
        CPUs, in either discipline; a replica count that is no multiple of
        the lane width leaves the last group part-filled."""
        problems, clusters = chain_pack(blocks, self.SIZE, 100)
        temperatures = schedule(20, hot=3.0)
        ranges = []
        original = backends._batch_block
        monkeypatch.setattr(
            backends, "_batch_block", lambda space, buffers, lo, hi, *rest:
            ranges.append(hi - lo) or original(space, buffers, lo, hi, *rest))

        def anneal(rng_mode):
            rngs = [np.random.default_rng(110 + b) for b in range(blocks)]
            spins = BlockDiagonalSampler(
                problems, clusters=clusters, rng=rng_mode).anneal(
                temperatures, replicas, rngs)
            return spins, self.states(rngs)

        for rng_mode in backends.RNG_MODES:
            with on_numpy():
                expected, expected_states = anneal(rng_mode)
            for cpus in (1, 2, 4):
                monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
                ranges.clear()
                splits = every_block_splits["splits"]
                spins, states = anneal(rng_mode)
                case = f"rng={rng_mode} cpus={cpus}"
                np.testing.assert_array_equal(expected, spins, err_msg=case)
                assert states == expected_states, case
                assert len(ranges) == min(blocks, cpus), case
                halves = (blocks == 1 and cpus > 1
                          and rng_mode == "sequential")
                assert every_block_splits["splits"] == splits + halves, case
