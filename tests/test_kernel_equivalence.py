"""Randomized equivalence suite for the dense sequential-sweep kernel.

The dense kernel is only trusted because it is checked against the other two
Metropolis implementations of the repository:

* on problems whose colour classes degenerate to singletons (any complete
  coupling graph — the QuAMax logical regime), the dense and colour-class
  kernels perform the *same* sequential dynamics and consume the *same*
  per-variable Metropolis draws, so their energy trajectories and sample
  digests must agree bit-for-bit;
* on general problems the kernels' update orders differ, so agreement is
  statistical: both must reach the brute-force ground state and produce
  compatible energy distributions, as must the scalar ``sample_reference``
  loop (whose random-permutation sweeps never share a stream with either
  vectorised kernel).

The sweep over ``(num_vars, density, schedule)`` is seeded, so failures are
reproducible, and dispatch itself is pinned: dense problems must select the
dense kernel, sparse problems the colour kernel.
"""

import numpy as np
import pytest

from repro.annealer.backends import available_backends
from repro.annealer.engine import (
    KERNELS,
    BlockDiagonalSampler,
    IsingSampler,
    colour_classes,
)
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel
from repro.ising.solver import (
    BruteForceIsingSolver,
    SimulatedAnnealingSolver,
    geometric_temperature_schedule,
)


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


class TestKernelDispatch:
    @pytest.mark.parametrize("num_variables", [4, 12, 24])
    def test_dense_problem_selects_dense_kernel(self, num_variables):
        sampler = IsingSampler(random_ising(num_variables, 0))
        assert sampler.kernel == "auto"
        assert sampler.selected_kernel == "dense"

    @pytest.mark.parametrize("num_variables,density", [(16, 0.15), (24, 0.3)])
    def test_sparse_problem_selects_colour_kernel(self, num_variables, density):
        ising = random_ising(num_variables, 1, density=density)
        sampler = IsingSampler(ising)
        assert len(sampler.block_classes) < num_variables / 2
        assert sampler.selected_kernel == "colour"

    @pytest.mark.parametrize("num_users", [4, 8, 12])
    def test_quamax_logical_problem_selects_dense_kernel(self, num_users):
        # The ML reduction couples almost every variable pair, so its
        # colouring degenerates toward singletons — the regime the dense
        # kernel exists for (ISSUE motivation: dense logical Ising from the
        # QuAMax transform).
        from repro.mimo.system import MimoUplink
        from repro.transform.reduction import MLToIsingReducer

        link = MimoUplink(num_users=num_users, constellation="QPSK")
        channel_use = link.transmit(snr_db=20.0, random_state=1)
        ising = MLToIsingReducer().reduce(channel_use).ising
        assert IsingSampler(ising).selected_kernel == "dense"

    def test_uncoupled_problem_selects_colour_kernel(self):
        ising = IsingModel(num_variables=6, linear=np.ones(6))
        assert IsingSampler(ising).selected_kernel == "colour"

    def test_small_sparse_problems_keep_colour_kernel(self):
        # These colourings hit the class-count ratio by accident (a chain
        # colours into 2 classes, an uncoupled pair into 1) but are nowhere
        # near dense; auto must leave their seeded colour streams alone.
        chain = IsingModel(num_variables=4, linear=np.zeros(4),
                           couplings={(0, 1): 1.0, (1, 2): -1.0,
                                      (2, 3): 0.5})
        assert IsingSampler(chain).selected_kernel == "colour"
        pair = IsingModel(num_variables=2, linear=np.ones(2))
        assert IsingSampler(pair).selected_kernel == "colour"

    def test_explicit_override_wins(self):
        dense_problem = random_ising(10, 2)
        assert IsingSampler(dense_problem,
                            kernel="colour").selected_kernel == "colour"
        sparse_problem = random_ising(16, 3, density=0.2)
        assert IsingSampler(sparse_problem,
                            kernel="dense").selected_kernel == "dense"

    def test_invalid_kernel_rejected(self):
        with pytest.raises(AnnealerError):
            IsingSampler(random_ising(6, 4), kernel="sequential")
        assert KERNELS == ("auto", "dense", "colour")

    def test_multi_block_dispatch(self):
        dense = [random_ising(8, seed) for seed in (5, 6)]
        assert BlockDiagonalSampler(dense).selected_kernel == "dense"
        base = random_ising(12, 7, density=0.25)
        rng = np.random.default_rng(0)
        sparse_blocks = [
            IsingModel(num_variables=12, linear=rng.normal(size=12),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(2)
        ]
        assert BlockDiagonalSampler(sparse_blocks).selected_kernel == "colour"


class TestDenseColourSharedDynamics:
    """Bit-for-bit agreement where the two kernels share one dynamics."""

    # Seeded randomized sweep: complete graphs of several sizes, several
    # temperature schedules, several seeds.  Complete graphs guarantee the
    # all-singleton colouring under which the kernels are one algorithm.
    CASES = [(num_variables, num_sweeps, hot, seed)
             for num_variables in (5, 11, 18)
             for num_sweeps, hot in ((30, 5.0), (75, 2.0))
             for seed in (0, 1)]

    @pytest.mark.parametrize("num_variables,num_sweeps,hot,seed", CASES)
    def test_energy_trajectories_and_digests_agree(self, num_variables,
                                                   num_sweeps, hot, seed,
                                                   array_digest):
        ising = random_ising(num_variables, seed)
        assert len(colour_classes(ising)) == num_variables
        colour = IsingSampler(ising, kernel="colour")
        dense = IsingSampler(ising, kernel="dense")
        temperatures = schedule(num_sweeps, hot=hot)
        operator = ising.coupling_operator()
        # Annealing over a schedule prefix consumes a prefix of the random
        # stream, so the k-sweep samples ARE the trajectory state after k
        # sweeps of the full anneal — comparing them over several prefixes
        # compares the energy trajectories, not just the end points.
        for prefix in (1, num_sweeps // 2, num_sweeps):
            colour_spins = colour.anneal(temperatures[:prefix], 12,
                                         random_state=seed + 40)
            dense_spins = dense.anneal(temperatures[:prefix], 12,
                                       random_state=seed + 40)
            np.testing.assert_array_equal(colour_spins, dense_spins)
            np.testing.assert_array_equal(
                ising.energies(colour_spins, operator=operator),
                ising.energies(dense_spins, operator=operator))
            assert array_digest(colour_spins) == array_digest(dense_spins)

    def test_multi_block_dense_matches_colour_and_serial(self):
        rng = np.random.default_rng(8)
        base = random_ising(9, 9)
        problems = [
            IsingModel(num_variables=9, linear=rng.normal(size=9),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(3)
        ]
        temperatures = schedule(40)
        combined_dense = BlockDiagonalSampler(problems, kernel="dense").anneal(
            temperatures, 8, [np.random.default_rng(70 + b) for b in range(3)])
        combined_colour = BlockDiagonalSampler(problems, kernel="colour").anneal(
            temperatures, 8, [np.random.default_rng(70 + b) for b in range(3)])
        np.testing.assert_array_equal(combined_dense, combined_colour)
        blocked = BlockDiagonalSampler(problems)
        for b, block in enumerate(blocked.split_samples(combined_dense)):
            serial = IsingSampler(problems[b]).anneal(
                temperatures, 8, random_state=np.random.default_rng(70 + b))
            np.testing.assert_array_equal(block, serial)

    @pytest.mark.parametrize("backend", available_backends())
    def test_cluster_moves_shared_between_kernels(self, backend):
        # The colour kernel recomputes every local field from the operator;
        # the dense kernel maintains its field matrix incrementally across
        # single-spin AND cluster flips.  Equal trajectories on every
        # backend are the guarantee that incrementally maintained fields
        # match freshly computed ones.
        ising = random_ising(10, 11)
        clusters = [np.array([0, 1, 2], dtype=np.intp),
                    np.array([6, 7], dtype=np.intp)]
        temperatures = schedule(35)
        colour = IsingSampler(ising, clusters=clusters, kernel="colour",
                              backend=backend)
        dense = IsingSampler(ising, clusters=clusters, kernel="dense",
                             backend=backend)
        np.testing.assert_array_equal(
            colour.anneal(temperatures, 10, random_state=13),
            dense.anneal(temperatures, 10, random_state=13))

    def test_initial_spins_honoured(self):
        ising = random_ising(8, 14)
        rng = np.random.default_rng(3)
        start = rng.choice(np.array([-1.0, 1.0]), size=(6, 8))
        temperatures = schedule(25)
        np.testing.assert_array_equal(
            IsingSampler(ising, kernel="colour").anneal(
                temperatures, 6, random_state=15, initial_spins=start),
            IsingSampler(ising, kernel="dense").anneal(
                temperatures, 6, random_state=15, initial_spins=start))

    def test_refresh_values_rebinds_dense_kernel(self):
        base = random_ising(9, 16)
        rng = np.random.default_rng(4)
        replacement = IsingModel(
            num_variables=9, linear=rng.normal(size=9),
            couplings={key: float(rng.normal()) for key in base.couplings})
        refreshed = IsingSampler(base, kernel="dense")
        refreshed.refresh_values(replacement)
        fresh = IsingSampler(replacement, classes=refreshed.classes,
                             kernel="dense")
        temperatures = schedule(30)
        np.testing.assert_array_equal(
            refreshed.anneal(temperatures, 7, random_state=17),
            fresh.anneal(temperatures, 7, random_state=17))

    def test_dense_kernel_is_deterministic(self, array_digest):
        ising = random_ising(14, 18)
        sampler = IsingSampler(ising)
        assert sampler.selected_kernel == "dense"
        temperatures = schedule(50)
        first = sampler.anneal(temperatures, 20, random_state=19)
        second = sampler.anneal(temperatures, 20, random_state=19)
        assert array_digest(first) == array_digest(second)


class TestStatisticalAgreementAcrossDynamics:
    """Where the update orders differ, agreement is statistical."""

    @pytest.mark.parametrize("density,seed", [(0.5, 21), (0.8, 22)])
    def test_forced_dense_solves_sparse_problems(self, density, seed):
        # Forcing the dense kernel onto a sparser problem changes the update
        # order (classes are no longer singletons) but must remain a correct
        # Metropolis sampler: it still finds the exact ground state.
        ising = random_ising(12, seed, density=density)
        exact = BruteForceIsingSolver().ground_energy(ising)
        sampler = IsingSampler(ising, kernel="dense")
        samples = sampler.anneal(schedule(150), 60, random_state=seed)
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


class TestCompiledBackendSharedDynamics:
    """Compiled backends must reproduce the numpy loops' streams exactly.

    A seeded randomized sweep over problem shapes that exercise both
    kernels through ``kernel="auto"`` dispatch — dense logical-style
    problems land on the dense sequential kernel, sparse ones on the
    colour-class kernel — so a compiled backend that diverges on either
    path, or in the dispatch glue between them, fails here by digest.
    """

    from repro.annealer.backends import available_backends as _avail

    COMPILED = [name for name in _avail() if name != "numpy"]
    CASES = [(num_variables, density, num_sweeps, seed)
             for num_variables, density in ((6, 1.0), (14, 1.0), (16, 0.3))
             for num_sweeps in (25, 60)
             for seed in (0, 1)]

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("num_variables,density,num_sweeps,seed", CASES)
    def test_auto_kernel_digests_agree(self, backend, num_variables, density,
                                       num_sweeps, seed, array_digest):
        ising = random_ising(num_variables, seed, density=density)
        temperatures = schedule(num_sweeps)
        reference = IsingSampler(ising, backend="numpy")
        compiled = IsingSampler(ising, backend=backend)
        assert reference.selected_kernel == compiled.selected_kernel
        expected = reference.anneal(temperatures, 10, random_state=seed + 50)
        actual = compiled.anneal(temperatures, 10, random_state=seed + 50)
        np.testing.assert_array_equal(expected, actual)
        assert array_digest(expected) == array_digest(actual)

    @pytest.mark.parametrize("backend", COMPILED)
    def test_compiled_backend_solves_to_ground_state(self, backend):
        ising = random_ising(12, 33)
        exact = BruteForceIsingSolver().ground_energy(ising)
        sampler = IsingSampler(ising, backend=backend)
        samples = sampler.anneal(schedule(150), 60, random_state=34)
        assert ising.energies(samples).min() == pytest.approx(exact)


# The embedded-shaped cluster workload, shared with the backend and golden
# suites so they all exercise one problem family.
from cluster_workloads import build_path_chain_problem as path_chain_ising  # noqa: E402


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


class TestEmbeddedClusterSharedDynamics:
    """Cluster (chain-flip) moves across backends: bit-identical streams.

    A seeded randomized sweep over embedded-shaped problems — path chains
    of several lengths (including chains past NumPy's short-reduction
    cutoff) plus sparse cross couplings — annealed with cluster moves under
    every available backend.  The numpy loops are the reference; the fused
    compiled cluster kernels must reproduce their per-variable/per-cluster
    draw streams exactly, over schedule prefixes (trajectories, not just
    end points), for both sweep kernels, and for multi-block packs (the
    serving shape, one pack-level compiled dispatch).
    """

    from repro.annealer.backends import available_backends as _avail

    COMPILED = [name for name in _avail() if name != "numpy"]
    CASES = [(num_variables, chain_length, num_sweeps, seed)
             for num_variables, chain_length in ((24, 4), (48, 8), (64, 16))
             for num_sweeps in (20, 45)
             for seed in (0, 1)]

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize(
        "num_variables,chain_length,num_sweeps,seed", CASES)
    def test_embedded_cluster_digests_agree(self, backend, num_variables,
                                            chain_length, num_sweeps, seed,
                                            array_digest):
        ising, clusters = path_chain_ising(num_variables, chain_length,
                                           seed + 60)
        temperatures = schedule(num_sweeps)
        reference = IsingSampler(ising, clusters=clusters, backend="numpy")
        compiled = IsingSampler(ising, clusters=clusters, backend=backend)
        assert reference.selected_kernel == compiled.selected_kernel
        for prefix in (1, num_sweeps // 2, num_sweeps):
            expected = reference.anneal(temperatures[:prefix], 8,
                                        random_state=seed + 61)
            actual = compiled.anneal(temperatures[:prefix], 8,
                                     random_state=seed + 61)
            np.testing.assert_array_equal(expected, actual)
            assert array_digest(expected) == array_digest(actual)

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("kernel", ["colour", "dense"])
    def test_embedded_cluster_pack_matches_numpy_and_serial(self, backend,
                                                            kernel):
        base, clusters = path_chain_ising(20, 5, 70, density=0.12)
        rng = np.random.default_rng(71)
        problems = [
            IsingModel(num_variables=20, linear=rng.normal(size=20),
                       couplings={key: float(rng.normal())
                                  for key in base.couplings})
            for _ in range(4)
        ]
        temperatures = schedule(35)
        expected = BlockDiagonalSampler(problems, clusters=clusters,
                                        kernel=kernel,
                                        backend="numpy").anneal(
            temperatures, 6,
            [np.random.default_rng(80 + b) for b in range(4)])
        packed = BlockDiagonalSampler(problems, clusters=clusters,
                                      kernel=kernel, backend=backend)
        actual = packed.anneal(
            temperatures, 6,
            [np.random.default_rng(80 + b) for b in range(4)])
        np.testing.assert_array_equal(expected, actual)
        for b, block in enumerate(packed.split_samples(actual)):
            serial = IsingSampler(problems[b], clusters=clusters,
                                  kernel=kernel, backend=backend).anneal(
                temperatures, 6, random_state=np.random.default_rng(80 + b))
            np.testing.assert_array_equal(block, serial)

    @pytest.mark.parametrize("backend", COMPILED)
    def test_refresh_values_rebinds_cluster_kernels(self, backend):
        """ICE-style rebinds flow through the cached compiled descriptors."""
        base, clusters = path_chain_ising(24, 6, 72, density=0.1)
        rng = np.random.default_rng(73)
        replacement = IsingModel(
            num_variables=24, linear=rng.normal(size=24),
            couplings={key: float(rng.normal()) for key in base.couplings})
        temperatures = schedule(30)
        rebound = IsingSampler(base, clusters=clusters, backend=backend)
        # Populate the structure caches on the original values first.
        rebound.anneal(temperatures[:3], 3, random_state=74)
        rebound.refresh_values(replacement)
        fresh = IsingSampler(replacement, classes=rebound.classes,
                             clusters=clusters, backend="numpy")
        np.testing.assert_array_equal(
            rebound.anneal(temperatures, 5, random_state=75),
            fresh.anneal(temperatures, 5, random_state=75))

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    @pytest.mark.parametrize("temperature", [5.0, 0.02], ids=["hot", "cold"])
    def test_constant_temperature_colour_cluster_stress(self, backend, blocks,
                                                        rng_mode, temperature):
        """The colour moves at their two extremes: at T=5 most proposals
        are accepted, so every field is summed over freshly flipped
        neighbours; at T=0.02 almost none is, so the same fields come back
        sweep after sweep.  Either way the numpy loops are reproduced."""
        problems, clusters = chain_pack(blocks, 30, 90)
        temperatures = np.full(25, temperature)

        def anneal(used_backend):
            sampler = BlockDiagonalSampler(problems, clusters=clusters,
                                           kernel="colour",
                                           backend=used_backend, rng=rng_mode)
            return sampler.anneal(temperatures, 7,
                                  [np.random.default_rng(92 + b)
                                   for b in range(blocks)])

        np.testing.assert_array_equal(anneal("numpy"), anneal(backend))

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_kept_workspace_serves_neither_earlier_call_nor_earlier_values(
            self, backend, rng_mode):
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
        rebound = IsingSampler(base, clusters=clusters, kernel="colour",
                               backend=backend, rng=rng_mode)
        rebound.anneal(temperatures, 5, random_state=95)
        rebound.refresh_values(replacement)
        for seed in (96, 97):
            fresh = IsingSampler(replacement, clusters=clusters,
                                 kernel="colour", backend="numpy",
                                 rng=rng_mode)
            np.testing.assert_array_equal(
                rebound.anneal(temperatures, 5, random_state=seed),
                fresh.anneal(temperatures, 5, random_state=seed))


class TestLaneEdges:
    """The lane-major cext colour kernels at the edges of their layout.

    The C kernels sweep all replicas of a spin at once over a transposed
    copy padded to the vector width, so the cases that could go wrong are
    the ones the layout adds: replica counts around a lane boundary (pad
    lanes must never draw, flip or be written back), packs whose blocks are
    column slices, spin matrices whose row stride exceeds their width, and
    — under the counter discipline — replicas split into several lane
    groups across threads.  Everything is compared with the numpy
    reference loops, spins *and* generator end state.
    """

    from repro.annealer.backends import available_backends as _avail

    COMPILED = [name for name in _avail() if name != "numpy"]
    SIZE = 30

    @staticmethod
    def states(rngs):
        return [rng.bit_generator.state for rng in rngs]

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("replicas", [1, 2, 3, 4, 5, 7, 25])
    @pytest.mark.parametrize("layout", ["one-block", "three-blocks",
                                        "strided"])
    @pytest.mark.parametrize("with_clusters", [True, False],
                             ids=["clusters", "plain"])
    @pytest.mark.parametrize("temperature", [5.0, 0.02], ids=["hot", "cold"])
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_lane_layouts_match_the_reference_loops(
            self, backend, replicas, layout, with_clusters, temperature,
            rng_mode):
        blocks = 3 if layout == "three-blocks" else 1
        problems, clusters = chain_pack(blocks, self.SIZE, 100)
        if not with_clusters:
            clusters = None
        temperatures = np.full(12, temperature)
        width = blocks * self.SIZE
        initial = np.random.default_rng(102).choice(
            [-1.0, 1.0], size=(replicas, width))

        reference_rngs = [np.random.default_rng(103 + b)
                          for b in range(blocks)]
        expected = BlockDiagonalSampler(
            problems, clusters=clusters, kernel="colour", backend="numpy",
            rng=rng_mode).anneal(temperatures, replicas, reference_rngs,
                                 initial_spins=initial)

        rngs = [np.random.default_rng(103 + b) for b in range(blocks)]
        sampler = BlockDiagonalSampler(problems, clusters=clusters,
                                       kernel="colour", backend=backend,
                                       rng=rng_mode)
        if layout != "strided":
            actual = sampler.anneal(temperatures, replicas, rngs,
                                    initial_spins=initial)
        else:
            # The caller's matrix as an interior view of a larger one: the
            # row stride exceeds the width, and the NaN border shows any
            # write that strays outside the view.
            from repro.annealer import counter
            frame = np.full((replicas + 2, width + 5), np.nan)
            view = frame[1:-1, 2:-3]
            view[...] = initial
            keys = ([counter.block_key(rng) for rng in rngs]
                    if rng_mode == "counter" else None)
            sampler._dispatch_colour(view, temperatures, backend, rngs, keys)
            actual = view.astype(np.int8)
            border = np.ones(frame.shape, dtype=bool)
            border[1:-1, 2:-3] = False
            assert np.isnan(frame[border]).all()
        np.testing.assert_array_equal(expected, actual)
        assert self.states(rngs) == self.states(reference_rngs)

    @pytest.mark.parametrize("backend", COMPILED)
    @pytest.mark.parametrize("replicas", [5, 7, 25])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_lane_groups_are_identical_across_thread_counts(self, backend,
                                                            replicas, blocks):
        """With more threads than blocks the counter kernel splits a block's
        replicas into several lane groups; a replica count that is no
        multiple of the lane width leaves the last group part-filled."""
        problems, clusters = chain_pack(blocks, self.SIZE, 100)
        temperatures = schedule(20, hot=3.0)

        def anneal(used_backend, threads):
            return BlockDiagonalSampler(
                problems, clusters=clusters, kernel="colour",
                backend=used_backend, rng="counter", threads=threads).anneal(
                temperatures, replicas,
                [np.random.default_rng(110 + b) for b in range(blocks)])

        reference = anneal("numpy", 1)
        for threads in (1, 2, 4):
            np.testing.assert_array_equal(reference, anneal(backend, threads),
                                          err_msg=f"threads={threads}")
