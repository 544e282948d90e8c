"""Tests for the vectorised Metropolis sampling engine."""

import numpy as np
import pytest

from repro.annealer import backends
from repro.annealer.backends import RNG_MODES
from repro.annealer.engine import (
    BlockDiagonalSampler,
    IsingSampler,
    colour_classes,
)
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel, IsingPack
from repro.ising.solver import BruteForceIsingSolver, geometric_temperature_schedule


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


def anneal_from(sampler, start, temperatures, on_numpy):
    """*sampler*'s anneal from a fixed *start* (float ``(R, N)``): the
    NumPy path with its sequential start patched to hand *start* over."""
    with on_numpy(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "sequential_initial_spins",
                      lambda rngs, replicas, size: start.copy())
        return sampler.anneal(temperatures, len(start), random_state=0)


class TestColourClasses:
    def test_classes_cover_all_variables(self):
        ising = random_ising(8, 0, density=0.4)
        classes = colour_classes(ising)
        covered = sorted(int(v) for group in classes for v in group)
        assert covered == list(range(8))

    def test_no_edge_within_a_class(self):
        ising = random_ising(10, 1, density=0.3)
        classes = colour_classes(ising)
        for group in classes:
            members = set(int(v) for v in group)
            for (i, j) in ising.couplings:
                assert not (i in members and j in members)

    def test_isolated_variables_share_one_class(self):
        ising = IsingModel(num_variables=5, linear=np.ones(5), couplings={})
        classes = colour_classes(ising)
        assert len(classes) == 1

    @staticmethod
    def networkx_classes(ising):
        """The oracle: the networkx call ``colour_classes`` used to make,
        under which every seeded stream and golden digest was frozen."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(ising.num_variables))
        graph.add_edges_from(ising.coupling_keys)
        colouring = nx.coloring.greedy_color(graph, strategy="largest_first")
        classes = {}
        for node, colour in colouring.items():
            classes.setdefault(colour, []).append(node)
        return [sorted(nodes) for _, nodes in sorted(classes.items())]

    def assert_same_classes(self, ising):
        ours = colour_classes(ising)
        assert all(group.dtype == np.intp for group in ours)
        assert [group.tolist() for group in ours] == \
            self.networkx_classes(ising)

    def test_classes_are_networkx_largest_first_on_random_graphs(self):
        rng = np.random.default_rng(2019)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            self.assert_same_classes(random_ising(
                size, int(rng.integers(1 << 30)), density=rng.random()))

    @pytest.mark.parametrize("num_logical, qubits", [
        (2, 4), (3, 6), (4, 8), (6, 18), (8, 24), (12, 48), (16, 80),
        (24, 168), (48, 624)])
    def test_classes_are_networkx_largest_first_on_served_structures(
            self, num_logical, qubits):
        # Every embedded structure the benchmark workloads program: the
        # clique embeddings of 2 to 48 logical variables.
        from repro.annealer.chimera import ChimeraGraph
        from repro.annealer.embedded import embed_ising
        from repro.annealer.embedding import TriangleCliqueEmbedder

        embedding = TriangleCliqueEmbedder(
            ChimeraGraph.ideal(16, 16)).embed(num_logical)
        embedded = embed_ising(random_ising(num_logical, 7), embedding,
                               chain_strength=4.0).ising
        assert embedded.num_variables == qubits
        self.assert_same_classes(embedded)


class TestSparseCouplingMatrix:
    def test_symmetric(self):
        ising = random_ising(6, 2, density=0.5)
        matrix = ising.coupling_operator().toarray()
        np.testing.assert_allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_values(self):
        ising = IsingModel(num_variables=3, linear=np.zeros(3),
                           couplings={(0, 2): 1.5})
        matrix = ising.coupling_operator().toarray()
        assert matrix[0, 2] == 1.5 and matrix[2, 0] == 1.5

    def test_empty_couplings(self):
        ising = IsingModel(num_variables=4, linear=np.ones(4), couplings={})
        assert ising.coupling_operator().nnz == 0


class TestIsingSampler:
    def test_output_shape_and_values(self):
        ising = random_ising(6, 3)
        sampler = IsingSampler(ising)
        out = sampler.anneal([1.0, 0.5, 0.1], num_replicas=7, random_state=0)
        assert out.shape == (7, 6)
        assert set(np.unique(out)) <= {-1, 1}

    def test_finds_ground_state_of_small_problem(self):
        ising = random_ising(8, 4)
        exact = BruteForceIsingSolver().ground_energy(ising)
        sampler = IsingSampler(ising)
        scale = ising.max_abs_coefficient
        temperatures = geometric_temperature_schedule(150, 3.0 * scale,
                                                      0.01 * scale)
        samples = sampler.anneal(temperatures, num_replicas=40, random_state=1)
        energies = ising.energies(samples)
        assert energies.min() == pytest.approx(exact, rel=1e-9)

    def test_deterministic_with_seed(self):
        ising = random_ising(6, 5)
        sampler = IsingSampler(ising)
        a = sampler.anneal([1.0, 0.1], 5, random_state=3)
        b = sampler.anneal([1.0, 0.1], 5, random_state=3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_temperatures_rejected(self):
        ising = random_ising(4, 7)
        sampler = IsingSampler(ising)
        with pytest.raises(AnnealerError):
            sampler.anneal([], 3)
        with pytest.raises(AnnealerError):
            sampler.anneal([1.0, -0.5], 3)

    def test_low_temperature_keeps_good_start(self, on_numpy):
        # Starting at the ground state and annealing at a tiny temperature
        # must not leave it (sanity of the Metropolis acceptance rule).
        ising = random_ising(6, 8)
        ground = BruteForceIsingSolver().solve(ising).best_sample
        start = np.tile(ground, (4, 1)).astype(np.float64)
        out = anneal_from(IsingSampler(ising), start, [1e-6] * 5, on_numpy)
        np.testing.assert_array_equal(out, np.tile(ground, (4, 1)))


class TestClusterMoves:
    def test_cluster_flip_preserves_correctness(self):
        # With ferromagnetic chains, cluster moves must still sample valid
        # low-energy states (and find the ground state of a chain problem).
        n = 6
        couplings = {(i, i + 1): -2.0 for i in range(n - 1)}
        linear = np.zeros(n)
        linear[0] = 0.5  # a weak field the whole chain should align against
        ising = IsingModel(num_variables=n, linear=linear, couplings=couplings)
        sampler = IsingSampler(ising, clusters=[np.arange(n)])
        temperatures = geometric_temperature_schedule(40, 3.0, 0.01)
        samples = sampler.anneal(temperatures, num_replicas=20, random_state=0)
        energies = ising.energies(samples)
        exact = BruteForceIsingSolver().ground_energy(ising)
        assert energies.min() == pytest.approx(exact)

    def test_cluster_moves_speed_up_chain_reorientation(self, on_numpy):
        # A strongly coupled chain in a weak opposing field: single-spin
        # dynamics at low temperature cannot reorient it, cluster moves can.
        n = 8
        couplings = {(i, i + 1): -2.0 for i in range(n - 1)}
        linear = np.full(n, 0.1)  # prefers all spins -1
        ising = IsingModel(num_variables=n, linear=linear, couplings=couplings)
        start = np.ones((30, n))  # aligned the wrong way
        temperatures = [0.05] * 10

        stuck = anneal_from(IsingSampler(ising), start, temperatures,
                            on_numpy)
        moved = anneal_from(IsingSampler(ising, clusters=[np.arange(n)]),
                            start, temperatures, on_numpy)
        assert ising.energies(moved).mean() < ising.energies(stuck).mean()

    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.usefixtures("artefact")
    def test_empty_cluster_ignored(self, rng_mode):
        # None, no clusters and only-empty clusters are one configuration:
        # the same empty descriptor, hence the same stream, everywhere.
        ising = random_ising(4, 9)
        samples = []
        for clusters in (None, [], [np.array([], dtype=np.intp)]):
            sampler = IsingSampler(ising, clusters=clusters, rng=rng_mode)
            assert sampler.clusters == []
            samples.append(sampler.anneal([2.0, 1.0, 0.5], 6, random_state=3))
        np.testing.assert_array_equal(samples[0], samples[1])
        np.testing.assert_array_equal(samples[0], samples[2])


class TestOneShotSampler:
    def test_fresh_samplers_with_same_seed_agree(self):
        ising = random_ising(5, 10)
        a = IsingSampler(ising).anneal([1.0, 0.5], 4, random_state=2)
        b = IsingSampler(ising).anneal([1.0, 0.5], 4, random_state=2)
        np.testing.assert_array_equal(a, b)


class TestRebindToAnyBlockCount:
    """``refresh_values`` adopts the pack size it is handed: everything a
    sampler derives is block-level, so a warm sampler rebound to more or
    fewer problems is, bit for bit, a freshly constructed one."""

    #: A 9-variable structure with two chains (clusters with internal edges)
    #: and enough other edges to need several colour classes.
    KEYS = [(0, 1), (1, 2), (3, 4), (0, 3), (1, 4), (2, 5), (4, 6), (5, 7),
            (6, 7), (2, 8), (0, 8)]
    CLUSTERS = [np.array([0, 1, 2]), np.array([3, 4])]
    TEMPERATURES = [2.0, 1.0, 0.5, 0.25]

    def pack(self, count, seed):
        rng = np.random.default_rng(seed)
        return [IsingModel(num_variables=9, linear=rng.normal(size=9),
                           couplings={key: float(rng.normal())
                                      for key in self.KEYS})
                for _ in range(count)]

    @pytest.mark.parametrize("rng_mode", RNG_MODES)
    @pytest.mark.parametrize("clusters", [False, True])
    @pytest.mark.usefixtures("artefact")
    def test_rebound_sampler_is_a_fresh_one(self, clusters, rng_mode):
        options = dict(clusters=self.CLUSTERS if clusters else None,
                       rng=rng_mode)
        warm = None
        for step, count in enumerate([4, 1, 16, 3]):
            problems = self.pack(count, seed=step)
            if warm is None:
                warm = BlockDiagonalSampler(problems, **options)
            else:
                assert warm.matches_structure(problems)
                warm.refresh_values(problems)
            assert warm.num_blocks == count
            assert warm.num_variables == 9 * count
            fresh = BlockDiagonalSampler(problems, **options)
            ours = [np.random.default_rng(50 + b) for b in range(count)]
            theirs = [np.random.default_rng(50 + b) for b in range(count)]
            # Twice per step: the second call runs over whatever the first
            # left in the sampler's workspace, and (numpy) over reference
            # operators built before the next change of block count.
            for _ in range(2):
                a = warm.anneal(self.TEMPERATURES, 5, ours)
                b = fresh.anneal(self.TEMPERATURES, 5, theirs)
                assert a.shape == (5, 9 * count) and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
                assert ([rng.bit_generator.state for rng in ours]
                        == [rng.bit_generator.state for rng in theirs])
            assert (warm.coupling_matrix != fresh.coupling_matrix).nnz == 0
            assert [group.tolist() for group in warm.classes] == [
                group.tolist() for group in fresh.classes]

    def test_another_structure_is_still_refused(self):
        warm = BlockDiagonalSampler(self.pack(4, seed=0))
        smaller = [random_ising(8, 1), random_ising(8, 2)]
        other_keys = [IsingModel(num_variables=9, linear=np.zeros(9),
                                 couplings={(0, 1): 1.0})]
        for problems in (smaller, other_keys, []):
            assert not warm.matches_structure(problems)
            with pytest.raises(AnnealerError, match="block size"):
                warm.refresh_values(problems)
        assert warm.num_blocks == 4

    def test_one_generator_per_block_of_the_current_pack(self):
        warm = BlockDiagonalSampler(self.pack(4, seed=0))
        warm.refresh_values(self.pack(2, seed=1))
        with pytest.raises(AnnealerError, match="expected 2"):
            warm.anneal(self.TEMPERATURES, 3, [0, 1, 2, 3])

    @pytest.mark.usefixtures("artefact")
    def test_a_programmed_zero_stays_packed(self, monkeypatch, on_numpy):
        """Only ICE cancels a coupling: a pack rebound to a programmed
        exact zero anneals packed in batches without *ice* on both paths —
        no per-problem fallback, and the bits of the NumPy path."""
        warm = BlockDiagonalSampler(self.pack(3, seed=0),
                                    clusters=self.CLUSTERS)
        pack = warm.isings
        values = pack.values.copy()
        values[1, 4] = 0.0
        warm.refresh_values(IsingPack(pack.num_variables, pack.keys,
                                      pack.linear, values, pack.offsets))
        fallbacks = []
        monkeypatch.setattr(BlockDiagonalSampler, "_per_problem",
                            lambda *args: fallbacks.append(args))

        def anneal():
            rngs = [np.random.default_rng(60 + b) for b in range(3)]
            return warm.anneal(self.TEMPERATURES, 7, rngs,
                               ice_batch_size=3).tobytes()

        got = anneal()
        with on_numpy():
            expected = anneal()
        assert fallbacks == [] and got == expected
