"""Equivalence and determinism tests for the unified Metropolis core.

Covers the contracts the perf refactor relies on:

* the vectorised :class:`SimulatedAnnealingSolver` is statistically
  indistinguishable from the scalar :func:`metropolis_anneal` reference loop
  on a brute-force-verifiable problem;
* :meth:`IsingSampler.refresh_values` rebinds a sampler bit-for-bit
  identically to constructing a fresh one;
* :class:`BlockDiagonalSampler` anneals are bit-for-bit the per-block serial
  anneals, and :meth:`QuantumAnnealerSimulator.run_batch` therefore matches
  serial :meth:`~QuantumAnnealerSimulator.run` submissions;
* the batched pipeline decode equals the serial decode per subcarrier for a
  fixed seed.
"""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.embedded import embed_ising
from repro.annealer.engine import (
    BlockDiagonalSampler,
    IsingSampler,
)
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.decoder.pipeline import OFDMDecodingPipeline
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel
from repro.ising.solver import BruteForceIsingSolver, SimulatedAnnealingSolver
from repro.mimo.system import MimoUplink
from repro.transform.reduction import MLToIsingReducer
from repro.utils.random import child_rngs, ensure_rng


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


def solver_results_equal(a, b):
    return (np.array_equal(a.samples, b.samples)
            and np.array_equal(a.energies, b.energies)
            and np.array_equal(a.num_occurrences, b.num_occurrences))


class TestVectorisedSimulatedAnnealing:
    """Vectorised sample() vs. the scalar metropolis_anneal reference."""

    def test_both_reach_exact_ground_state(self):
        ising = random_ising(12, 0)
        exact = BruteForceIsingSolver().ground_energy(ising)
        solver = SimulatedAnnealingSolver(num_sweeps=150, num_reads=60)
        vectorised = solver.sample(ising, random_state=1)
        reference = solver.sample_reference(ising, random_state=1)
        assert vectorised.best_energy == pytest.approx(exact)
        assert reference.best_energy == pytest.approx(exact)

    def test_energy_distributions_statistically_indistinguishable(self):
        ising = random_ising(12, 1)
        solver = SimulatedAnnealingSolver(num_sweeps=100, num_reads=200)
        vectorised = solver.sample(ising, random_state=2)
        reference = solver.sample_reference(ising, random_state=2)

        def read_energies(result):
            return np.repeat(result.energies, result.num_occurrences)

        vec = read_energies(vectorised)
        ref = read_energies(reference)
        # Same read count, and mean energies within two standard errors of
        # each other (same-seed runs are deterministic, so no flakiness).
        assert vec.size == ref.size == 200
        pooled_sem = np.hypot(vec.std(ddof=1) / np.sqrt(vec.size),
                              ref.std(ddof=1) / np.sqrt(ref.size))
        assert abs(vec.mean() - ref.mean()) <= 2.5 * max(pooled_sem, 1e-12)
        # Both land most reads at or near the ground state.
        exact = BruteForceIsingSolver().ground_energy(ising)
        assert vectorised.ground_state_probability(exact, 1e-9) > 0.3
        assert reference.ground_state_probability(exact, 1e-9) > 0.3

    def test_same_seed_is_deterministic(self):
        ising = random_ising(10, 2)
        solver = SimulatedAnnealingSolver(num_sweeps=50, num_reads=25)
        first = solver.sample(ising, random_state=7)
        second = solver.sample(ising, random_state=7)
        assert solver_results_equal(first, second)

    def test_sample_reference_matches_manual_loop(self):
        from repro.ising.solver import aggregate_samples, metropolis_anneal

        ising = random_ising(8, 3)
        solver = SimulatedAnnealingSolver(num_sweeps=40, num_reads=10)
        result = solver.sample_reference(ising, random_state=5)
        rng = np.random.default_rng(5)
        temperatures = solver.temperature_schedule_for(ising)
        raw = np.stack([metropolis_anneal(ising, temperatures, rng)
                        for _ in range(10)])
        assert solver_results_equal(result, aggregate_samples(ising, raw))


class TestSparseCouplingMatrix:
    def test_empty_couplings_canonical_dtype(self):
        ising = IsingModel(num_variables=4, linear=np.ones(4))
        matrix = ising.coupling_operator()
        assert matrix.dtype == np.float64
        assert matrix.shape == (4, 4)
        assert matrix.nnz == 0

    def test_matches_dense_form(self):
        ising = random_ising(7, 4, density=0.5)
        _, dense = ising.to_dense()
        symmetric = dense + dense.T
        np.testing.assert_allclose(ising.coupling_operator().toarray(),
                                   symmetric)


class TestRefreshValues:
    def _clusters(self, n):
        return [np.arange(0, n // 2, dtype=np.intp),
                np.arange(n // 2, n, dtype=np.intp)]

    def test_refresh_equals_fresh_construction(self):
        base = random_ising(10, 5, density=0.6)
        other = random_ising(10, 6, density=1.0)
        # Same structure: reuse base's keys with other's values.
        rng = np.random.default_rng(0)
        replacement = IsingModel(
            num_variables=10,
            linear=rng.normal(size=10),
            couplings={key: float(rng.normal())
                       for key in base.couplings})
        del other
        clusters = self._clusters(10)
        refreshed = IsingSampler(base, clusters=clusters)
        refreshed.refresh_values(replacement)
        fresh = IsingSampler(replacement, clusters=clusters)
        temperatures = [2.0, 1.0, 0.5, 0.1]
        a = refreshed.anneal(temperatures, 8, random_state=3)
        b = fresh.anneal(temperatures, 8, random_state=3)
        np.testing.assert_array_equal(a, b)

    def test_refresh_rejects_different_structure(self):
        sampler = IsingSampler(random_ising(8, 7, density=0.5))
        with pytest.raises(AnnealerError):
            sampler.refresh_values(random_ising(8, 8, density=1.0))
        with pytest.raises(AnnealerError):
            sampler.refresh_values(random_ising(6, 7, density=0.5))
        # Same variable and coupling counts, one coupling moved.
        moved = dict(sampler.ising.couplings)
        key = next(iter(moved))
        absent = next((i, j) for i in range(8) for j in range(i + 1, 8)
                      if (i, j) not in moved)
        moved[absent] = moved.pop(key)
        with pytest.raises(AnnealerError):
            sampler.refresh_values(IsingModel(
                num_variables=8, linear=sampler.ising.linear,
                couplings=moved))

    @pytest.mark.parametrize("rng", ["sequential", "counter"])
    @pytest.mark.usefixtures("artefact")
    def test_ice_batches_refresh_like_rebuild(self, rng):
        # The machine's ICE-batch cycle: one embedded 3-user QPSK problem,
        # re-programmed with a fresh ICE draw for each of 8 batches.
        # Rebinding one sampler between batches anneals exactly what
        # building a new sampler for every batch does.
        link = MimoUplink(num_users=3, constellation="QPSK")
        reduced = MLToIsingReducer().reduce(
            link.transmit(snr_db=15.0, random_state=0))
        machine = QuantumAnnealerSimulator()
        parameters = AnnealerParameters()
        embedded = embed_ising(
            reduced.ising, machine.embedding_for(reduced.num_variables),
            chain_strength=parameters.chain_strength,
            extended_range=parameters.extended_range)
        temperatures = parameters.schedule.temperature_profile(
            sweeps_per_us=machine.sweeps_per_us,
            hot=machine.hot_temperature, cold=machine.cold_temperature)
        options = dict(clusters=[np.asarray(chain, dtype=np.intp)
                                 for chain in embedded.compact_chains.values()],
                       rng=rng)
        perturbations = [machine.ice.perturb(embedded.ising,
                                             np.random.default_rng(k))
                         for k in range(8)]

        rebuild_rng = np.random.default_rng(0)
        rebuilt = [IsingSampler(perturbed, **options).anneal(
                       temperatures, 25, random_state=rebuild_rng)
                   for perturbed in perturbations]
        refresh_rng = np.random.default_rng(0)
        sampler = IsingSampler(perturbations[0], **options)
        for perturbed, expected in zip(perturbations, rebuilt):
            sampler.refresh_values(perturbed)
            np.testing.assert_array_equal(
                sampler.anneal(temperatures, 25, random_state=refresh_rng),
                expected)

    def test_refresh_updates_energies(self):
        base = random_ising(6, 9)
        scaled = base.scaled(2.0)
        sampler = IsingSampler(base)
        sampler.refresh_values(scaled)
        dense = sampler.coupling_matrix.toarray()
        _, upper = scaled.to_dense()
        np.testing.assert_allclose(dense, upper + upper.T)
        np.testing.assert_allclose(sampler.linear, scaled.linear)


class TestBlockDiagonalSampler:
    def _same_structure_problems(self, count, n, seed):
        base = random_ising(n, seed, density=0.7)
        problems = []
        rng = np.random.default_rng(seed + 100)
        for _ in range(count):
            problems.append(IsingModel(
                num_variables=n,
                linear=rng.normal(size=n),
                couplings={key: float(rng.normal())
                           for key in base.couplings}))
        return problems

    def test_blocked_anneal_matches_serial_per_block(self):
        problems = self._same_structure_problems(4, 9, 10)
        clusters = [np.array([0, 1, 2], dtype=np.intp),
                    np.array([5, 6], dtype=np.intp)]
        blocked = BlockDiagonalSampler(problems, clusters=clusters)
        temperatures = [3.0, 1.5, 0.7, 0.2, 0.05]
        combined = blocked.anneal(temperatures, 6,
                                  [np.random.default_rng(40 + b)
                                   for b in range(4)])
        for b, (problem, block) in enumerate(
                zip(problems, blocked.split_samples(combined))):
            serial = IsingSampler(problem, clusters=clusters).anneal(
                temperatures, 6, random_state=np.random.default_rng(40 + b))
            np.testing.assert_array_equal(block, serial)

    def test_structure_mismatch_rejected(self):
        problems = self._same_structure_problems(2, 8, 11)
        mismatched = random_ising(8, 99, density=0.3)
        with pytest.raises(AnnealerError):
            BlockDiagonalSampler([problems[0], mismatched])

    def test_refresh_values_matches_reconstruction(self):
        problems = self._same_structure_problems(3, 8, 12)
        rng = np.random.default_rng(5)
        replacements = [
            IsingModel(num_variables=8, linear=rng.normal(size=8),
                       couplings={key: float(rng.normal())
                                  for key in problems[0].couplings})
            for _ in range(3)
        ]
        sampler = BlockDiagonalSampler(problems)
        sampler.refresh_values(replacements)
        fresh = BlockDiagonalSampler(replacements)
        rngs_a = [np.random.default_rng(60 + b) for b in range(3)]
        rngs_b = [np.random.default_rng(60 + b) for b in range(3)]
        np.testing.assert_array_equal(
            sampler.anneal([1.0, 0.4], 5, rngs_a),
            fresh.anneal([1.0, 0.4], 5, rngs_b))

    @pytest.mark.parametrize("density", [0.3, 0.7, 1.0])
    def test_slot_edge_maps_match_scipy_reference(self, density):
        """The lexsort-derived slot->edge maps equal scipy's own slicing.

        The sampler derives every kernel layout (full matrix, colour
        classes, cluster rows) as a gather from its ``(blocks, E)`` value
        matrix through block-local slot->edge maps.  With every (block,
        edge) carrying a distinct value, those gathers must reproduce what
        a COO assembly of the combined matrix and scipy row slicing give —
        for the scipy operators of the numpy loops and for the
        ``(blocks, nnz)`` matrices of the compiled kernels alike.
        """
        from scipy import sparse
        base = random_ising(9, 21, density=density)
        keys = list(base.couplings)
        problems = [IsingModel(num_variables=9, linear=np.zeros(9),
                               couplings={key: 1000.0 * (b + 1) + e
                                          for e, key in enumerate(keys)})
                    for b in range(3)]
        clusters = [np.array([0, 1, 2], dtype=np.intp),
                    np.array([5, 8], dtype=np.intp)]
        sampler = BlockDiagonalSampler(problems, clusters=clusters)
        n = sampler.num_variables
        rows, cols, data = [], [], []
        for b, problem in enumerate(problems):
            for (i, j), value in problem.couplings.items():
                rows += [9 * b + i, 9 * b + j]
                cols += [9 * b + j, 9 * b + i]
                data += [value, value]
        full = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()

        def assert_same_csr(operator, expected):
            expected = expected.tocsr()
            expected.sort_indices()
            np.testing.assert_array_equal(operator.indptr, expected.indptr)
            np.testing.assert_array_equal(operator.indices, expected.indices)
            np.testing.assert_array_equal(operator.data, expected.data)

        reference = sampler._reference_operators()
        assert_same_csr(sampler.coupling_matrix, full)
        assert len(sampler.class_operators) == len(sampler.block_classes)
        for operator, group in zip(sampler.class_operators, sampler.classes):
            assert_same_csr(operator, full[group, :])
        assert len(reference.cluster_operators) == len(clusters)
        for operator, columns in zip(reference.cluster_operators,
                                     reference.cluster_columns):
            assert_same_csr(operator, full[columns, :])

        def block_rows(operators, widths, b):
            return np.concatenate([
                operator[b * width:(b + 1) * width].data
                for operator, width in zip(operators, widths)])

        class_data = np.take(sampler._values, sampler._class_csr.edges, axis=1)
        cluster_data = np.take(sampler._values, sampler._cluster_csr.edges,
                               axis=1)
        edge_values = np.take(sampler._values,
                              sampler._cluster_internal_edges, axis=1)
        structure = sampler._cluster_structure
        for b in range(3):
            np.testing.assert_array_equal(
                class_data[b], block_rows(reference.class_operators,
                                          sampler._class_widths, b))
            np.testing.assert_array_equal(
                cluster_data[b], block_rows(reference.cluster_operators,
                                            sampler._cluster_lengths, b))
            internal = [problems[b].couplings[(int(i), int(j))]
                        for i, j in zip(structure.edge_i, structure.edge_j)]
            np.testing.assert_array_equal(edge_values[b], internal)


class TestRunBatch:
    @pytest.fixture(scope="class")
    def machine(self):
        return QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))

    def _problems(self, machine, count, seed):
        link = MimoUplink(num_users=3, constellation="QPSK")
        rng = np.random.default_rng(seed)
        from repro.transform.reduction import MLToIsingReducer
        reducer = MLToIsingReducer()
        return [reducer.reduce(link.transmit(snr_db=15.0, random_state=rng)).ising
                for _ in range(count)]

    def test_batch_matches_serial_runs(self, machine):
        problems = self._problems(machine, 3, seed=0)
        parameters = AnnealerParameters(num_anneals=40)
        base = np.random.default_rng(17)
        children = list(child_rngs(base, len(problems)))
        batch = machine.run_batch(problems, parameters,
                                  random_states=children)
        serial_children = list(child_rngs(np.random.default_rng(17),
                                          len(problems)))
        for problem, child, result in zip(problems, serial_children, batch):
            serial = machine.run(problem, parameters, random_state=child)
            assert solver_results_equal(serial.solutions, result.solutions)
            assert (serial.broken_chain_fraction
                    == result.broken_chain_fraction)
            assert serial.parallelization == result.parallelization

    def test_batch_rejects_mixed_sizes(self, machine):
        small = random_ising(4, 1)
        large = random_ising(6, 2)
        with pytest.raises(AnnealerError):
            machine.run_batch([small, large])

    def test_batch_needs_problems(self, machine):
        with pytest.raises(AnnealerError):
            machine.run_batch([])


class TestBatchedPipelineEquivalence:
    @pytest.fixture(scope="class")
    def pipeline(self):
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=30),
                                random_state=0)
        return OFDMDecodingPipeline(decoder)

    def _channel_uses(self, count, seed, num_users=3):
        link = MimoUplink(num_users=num_users, constellation="QPSK")
        rng = np.random.default_rng(seed)
        return [link.transmit(snr_db=18.0, random_state=rng)
                for _ in range(count)]

    def test_batched_equals_one_job_decodes(self, pipeline):
        channel_uses = self._channel_uses(6, seed=3)
        batched = pipeline.decode_subcarriers(channel_uses, random_state=9)
        children = child_rngs(ensure_rng(9), len(channel_uses))
        assert batched.num_subcarriers == len(channel_uses)
        for use, child, b in zip(channel_uses, children,
                                 batched.subcarrier_results):
            a = pipeline.decoder.detect_with_run(use, random_state=child)
            assert solver_results_equal(a.run.solutions,
                                        b.result.run.solutions)
            np.testing.assert_array_equal(a.detection.bits,
                                          b.result.detection.bits)
            np.testing.assert_array_equal(a.detection.symbols,
                                          b.result.detection.symbols)

    def test_detect_batch_handles_mixed_problem_sizes(self, pipeline):
        mixed = self._channel_uses(2, seed=4) + self._channel_uses(
            2, seed=5, num_users=2)
        outcomes = pipeline.decoder.detect_batch(mixed, random_state=1)
        assert len(outcomes) == 4
        assert [o.reduced.num_variables for o in outcomes] == [6, 6, 4, 4]

    def test_frame_decode_is_the_subcarrier_decode_prefix(self, pipeline):
        """The frame derives one child per use of the whole frame and packs
        only what completes it: its subcarriers are the whole decode's."""
        channel_uses = self._channel_uses(6, seed=6)
        frame = pipeline.decode_frame(channel_uses, frame_size_bytes=3,
                                      random_state=11)
        whole = pipeline.decode_subcarriers(channel_uses, random_state=11)
        assert frame.num_decoded == 4
        for a, b in zip(frame.subcarrier_results, whole.subcarrier_results):
            assert solver_results_equal(a.result.run.solutions,
                                        b.result.run.solutions)
            assert a.bit_errors == b.bit_errors


class TestBruteForcePartialSelection:
    def test_lowest_states_match_full_sort(self):
        ising = random_ising(10, 20)
        spectrum = BruteForceIsingSolver(block_bits=6).lowest_states(
            ising, num_states=8)
        # Independent reference: full enumeration + full sort.
        all_spins = np.array(
            [[1 if (v >> k) & 1 else -1 for k in range(10)]
             for v in range(1 << 10)], dtype=np.int8)
        all_energies = ising.energies(all_spins)
        expected = np.sort(all_energies)[:8]
        np.testing.assert_allclose(np.sort(spectrum.energies), expected)

    def test_num_states_larger_than_pool_blocks(self):
        ising = random_ising(5, 21)
        spectrum = BruteForceIsingSolver(block_bits=3).lowest_states(
            ising, num_states=12)
        assert spectrum.num_samples == 12
        assert list(spectrum.energies) == sorted(spectrum.energies)
