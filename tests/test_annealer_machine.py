"""Tests for the simulated D-Wave machine front end and unembedding."""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.embedded import embed_ising
from repro.annealer.embedding import TriangleCliqueEmbedder
from repro.annealer.ice import ICEModel
from repro.annealer.machine import (
    AnnealerParameters,
    AnnealResult,
    OverheadModel,
    QuantumAnnealerSimulator,
)
from repro.annealer.parallel import parallel_copies, parallelization_factor
from repro.annealer.schedule import AnnealSchedule
from repro.annealer.unembed import unembed_samples
from repro.exceptions import AnnealerError
from repro.ising.solver import BruteForceIsingSolver
from repro.mimo.system import MimoUplink
from repro.transform.reduction import MLToIsingReducer


def make_reduced(num_users=4, constellation="BPSK", seed=0, snr_db=None):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    channel_use = link.transmit(random_state=seed, snr_db=snr_db)
    return MLToIsingReducer().reduce(channel_use)


@pytest.fixture(scope="module")
def small_machine():
    return QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6))


class TestAnnealerParameters:
    def test_defaults(self):
        parameters = AnnealerParameters()
        assert parameters.extended_range is True
        assert parameters.num_anneals >= 1

    def test_with_num_anneals(self):
        parameters = AnnealerParameters().with_num_anneals(7)
        assert parameters.num_anneals == 7

    def test_validation(self):
        with pytest.raises(Exception):
            AnnealerParameters(chain_strength=-1.0)
        with pytest.raises(Exception):
            AnnealerParameters(num_anneals=0)


class TestOverheadModel:
    def test_total(self):
        model = OverheadModel(preprocessing_us=10.0, programming_us=5.0,
                              readout_per_anneal_us=2.0)
        assert model.total_us(3) == pytest.approx(10.0 + 5.0 + 6.0)

    def test_defaults_dominate_anneal_time(self):
        # The Section 7 observation: overheads are orders of magnitude above
        # the pure anneal time today.
        assert OverheadModel().total_us(100) > 1000.0


class TestParallelization:
    def test_formula(self):
        # 16 logical qubits -> 80 physical; 2031 / 80 ~= 25.
        assert parallelization_factor(16) == pytest.approx(2031 / 80.0)

    def test_at_least_one(self):
        assert parallelization_factor(60) >= 1.0

    def test_too_large_problem_rejected(self):
        with pytest.raises(AnnealerError):
            parallelization_factor(120)

    def test_parallel_copies_integral(self):
        assert parallel_copies(16) == int(2031 // 80)

    def test_geometry_efficiency(self):
        full = parallelization_factor(16, geometry_efficiency=1.0)
        derated = parallelization_factor(16, geometry_efficiency=0.5)
        assert derated == pytest.approx(full / 2.0)
        with pytest.raises(AnnealerError):
            parallelization_factor(16, geometry_efficiency=0.0)


class TestUnembedding:
    def make_embedded(self, num_users=3, seed=1):
        reduced = make_reduced(num_users=num_users, seed=seed)
        embedder = TriangleCliqueEmbedder(ChimeraGraph.ideal(4, 4))
        embedding = embedder.embed(reduced.ising.num_variables)
        return reduced, embed_ising(reduced.ising, embedding, chain_strength=4.0)

    def test_intact_chains_unembed_exactly(self):
        reduced, embedded = self.make_embedded()
        logical_truth = reduced.ground_truth_spins()
        chains = embedded.compact_chains
        physical = np.empty(embedded.num_physical, dtype=np.int8)
        for logical_index, chain in chains.items():
            physical[list(chain)] = logical_truth[logical_index]
        recovered, report = unembed_samples(embedded, physical[None, :],
                                            random_state=0)
        np.testing.assert_array_equal(recovered[0], logical_truth)
        assert report.broken_chains == 0

    def test_majority_vote_resolves_broken_chain(self):
        reduced, embedded = self.make_embedded(num_users=4)
        chains = embedded.compact_chains
        logical_truth = reduced.ground_truth_spins()
        physical = np.empty(embedded.num_physical, dtype=np.int8)
        for logical_index, chain in chains.items():
            physical[list(chain)] = logical_truth[logical_index]
        # Flip a single qubit of chain 0 (chain length is 2 here, so force a
        # longer problem for a strict-majority case below).
        chain0 = list(chains[0])
        physical[chain0[0]] = -logical_truth[0]
        logical, report = unembed_samples(embedded, physical[None, :],
                                          random_state=0)
        assert report.broken_chains == 1
        # With a 2-qubit chain the vote is a tie, so only check the rest.
        np.testing.assert_array_equal(logical[0][1:], logical_truth[1:])

    def test_majority_wins_on_longer_chains(self):
        reduced = make_reduced(num_users=8, seed=2)
        embedder = TriangleCliqueEmbedder(ChimeraGraph.ideal(4, 4))
        embedding = embedder.embed(8)  # chain length 3
        embedded = embed_ising(reduced.ising, embedding, chain_strength=4.0)
        truth = reduced.ground_truth_spins()
        chains = embedded.compact_chains
        physical = np.empty(embedded.num_physical, dtype=np.int8)
        for logical_index, chain in chains.items():
            physical[list(chain)] = truth[logical_index]
        # Corrupt one qubit out of three: majority must still recover.
        physical[list(chains[2])[0]] = -truth[2]
        logical, report = unembed_samples(embedded, physical[None, :],
                                          random_state=0)
        np.testing.assert_array_equal(logical[0], truth)
        assert report.broken_chains == 1
        assert report.tie_breaks == 0
        assert 0 < report.broken_fraction < 1

    def test_shape_validation(self):
        _, embedded = self.make_embedded()
        with pytest.raises(AnnealerError):
            unembed_samples(embedded, np.ones((2, 3), dtype=np.int8))


class TestQuantumAnnealerSimulator:
    def test_run_returns_result(self, small_machine):
        reduced = make_reduced(num_users=4, seed=3)
        parameters = AnnealerParameters(num_anneals=20)
        result = small_machine.run(reduced.ising, parameters, random_state=0)
        assert isinstance(result, AnnealResult)
        assert result.num_anneals == 20
        assert result.solutions.total_reads == 20
        assert result.parallelization >= 1.0
        assert result.compute_time_us > 0

    def test_noise_free_machine_finds_ground_state(self):
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(6, 6),
                                           ice=ICEModel.disabled())
        reduced = make_reduced(num_users=6, constellation="QPSK", seed=4)
        exact = BruteForceIsingSolver(max_variables=12).ground_energy(reduced.ising)
        parameters = AnnealerParameters(
            schedule=AnnealSchedule(anneal_time_us=2.0, pause_time_us=2.0),
            num_anneals=40)
        result = machine.run(reduced.ising, parameters, random_state=1)
        assert result.best_energy == pytest.approx(exact, abs=1e-6)
        assert result.ground_state_probability(exact) > 0.2

    def test_deterministic_with_seed(self, small_machine):
        reduced = make_reduced(num_users=4, seed=5)
        parameters = AnnealerParameters(num_anneals=10)
        a = small_machine.run(reduced.ising, parameters, random_state=42)
        b = small_machine.run(reduced.ising, parameters, random_state=42)
        np.testing.assert_array_equal(a.solutions.samples, b.solutions.samples)
        np.testing.assert_array_equal(a.solutions.num_occurrences,
                                      b.solutions.num_occurrences)

    def test_solution_probabilities_sum_to_one(self, small_machine):
        reduced = make_reduced(num_users=4, seed=6)
        result = small_machine.run(reduced.ising,
                                   AnnealerParameters(num_anneals=15),
                                   random_state=0)
        assert result.solution_probabilities().sum() == pytest.approx(1.0)

    def test_compute_time_accounting(self, small_machine):
        reduced = make_reduced(num_users=4, seed=7)
        schedule = AnnealSchedule(anneal_time_us=1.0, pause_time_us=1.0)
        parameters = AnnealerParameters(schedule=schedule, num_anneals=10)
        result = small_machine.run(reduced.ising, parameters, random_state=0)
        expected = 10 * 2.0 / result.parallelization
        assert result.compute_time_us == pytest.approx(expected)

    def test_embedding_cache_reused(self, small_machine):
        first = small_machine.embedding_for(8)
        second = small_machine.embedding_for(8)
        assert first is second

    def test_explicit_embedding_accepted(self, small_machine):
        reduced = make_reduced(num_users=4, seed=8)
        embedding = TriangleCliqueEmbedder(small_machine.topology).embed(4)
        result = small_machine.run(reduced.ising,
                                   AnnealerParameters(num_anneals=5),
                                   random_state=0, embedding=embedding)
        assert result.embedded.embedding is embedding

    def test_invalid_construction(self):
        with pytest.raises(AnnealerError):
            QuantumAnnealerSimulator(hot_temperature=0.1, cold_temperature=1.0)

    def test_best_bits_consistent_with_best_spins(self, small_machine):
        reduced = make_reduced(num_users=4, seed=9)
        result = small_machine.run(reduced.ising,
                                   AnnealerParameters(num_anneals=10),
                                   random_state=0)
        np.testing.assert_array_equal(result.best_bits,
                                      (result.best_spins + 1) // 2)


class TestSamplerCache:
    """The structure-keyed warm sampler cache of the machine front end."""

    def _machine(self, cache):
        return QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4),
                                        sampler_cache_size=cache)

    def _solutions(self, machine, reduced_list, num_anneals=12):
        parameters = AnnealerParameters(num_anneals=num_anneals)
        return [machine.run(reduced.ising, parameters, random_state=seed)
                for seed, reduced in enumerate(reduced_list)]

    def test_cached_runs_bit_identical_to_uncached(self):
        reduced = [make_reduced(num_users=3, constellation="QPSK", seed=s,
                                snr_db=12.0) for s in range(5)]
        cold = self._solutions(self._machine(0), reduced)
        warm = self._solutions(self._machine(8), reduced)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.solutions.samples,
                                          b.solutions.samples)
            np.testing.assert_array_equal(a.solutions.energies,
                                          b.solutions.energies)
            np.testing.assert_array_equal(a.solutions.num_occurrences,
                                          b.solutions.num_occurrences)

    def test_same_structure_jobs_hit_the_cache(self):
        machine = self._machine(8)
        reduced = [make_reduced(num_users=3, constellation="QPSK", seed=s,
                                snr_db=12.0) for s in range(4)]
        self._solutions(machine, reduced)
        info = machine.sampler_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 3
        assert info["entries"] == 1

    def test_distinct_structures_get_distinct_entries(self):
        machine = self._machine(8)
        a = make_reduced(num_users=2, constellation="QPSK", seed=1, snr_db=12.0)
        b = make_reduced(num_users=3, constellation="BPSK", seed=2, snr_db=12.0)
        self._solutions(machine, [a, b, a, b])
        info = machine.sampler_cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 2
        assert info["entries"] == 2

    def test_structure_checked_once_per_ice_batch(self, monkeypatch):
        """A work counter, not a clock: every rebind costs one structure
        check (the build of the first batch validates while it stacks)."""
        from repro.annealer.engine import BlockDiagonalSampler

        checks = []
        original = BlockDiagonalSampler.matches_structure

        def counting(sampler, isings):
            checks.append(len(isings))
            return original(sampler, isings)

        monkeypatch.setattr(BlockDiagonalSampler, "matches_structure",
                            counting)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4),
                                           ice_batch_size=5)
        reduced = make_reduced(num_users=3, constellation="QPSK", seed=1,
                               snr_db=12.0)
        machine.run(reduced.ising, AnnealerParameters(num_anneals=20),
                    random_state=0)
        assert checks == [1] * 3

    def _cancel_one_coupling(self, monkeypatch, on_call):
        """Make the *on_call*-th ICE realisation (0-based, counted per
        machine run) land one coupling of the last problem on exactly zero."""
        from repro.annealer.ice import ICEModel

        original = ICEModel.perturb_pack
        calls = []

        def perturb_pack(ice, problems, rngs):
            perturbed = original(ice, problems, rngs)
            calls.append(len(problems))
            if len(calls) - 1 == on_call:
                perturbed.values[-1, 3] = 0.0
            return perturbed

        monkeypatch.setattr(ICEModel, "perturb_pack", perturb_pack)
        return calls

    def test_cancelled_coupling_anneals_per_problem_and_keeps_the_sampler(
            self, monkeypatch):
        """An ICE draw that zeroes a coupling exactly changes that batch's
        structure: the batch anneals problem by problem, and the warm
        sampler is still there for the next batch and the next call."""
        from repro.annealer.engine import BlockDiagonalSampler, IsingSampler

        pack = [make_reduced(num_users=3, constellation="QPSK", seed=s,
                             snr_db=12.0).ising for s in range(3)]
        parameters = AnnealerParameters(num_anneals=15)
        builds = []
        original_init = BlockDiagonalSampler.__init__

        def counting_init(sampler, isings, *args, **kwargs):
            builds.append((type(sampler).__name__, len(isings)))
            original_init(sampler, isings, *args, **kwargs)

        monkeypatch.setattr(BlockDiagonalSampler, "__init__", counting_init)
        calls = self._cancel_one_coupling(monkeypatch, on_call=1)
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4),
                                           ice_batch_size=5)
        first = machine.run_batch(pack, parameters, random_state=3)
        # One pack build for batch 0, three one-problem samplers for the
        # cancelled batch 1, and batch 2 rebinds the kept pack sampler.
        assert builds == [("BlockDiagonalSampler", 3)] + [
            (IsingSampler.__name__, 1)] * 3
        assert machine.sampler_cache_info()["entries"] == 1
        del builds[:]
        machine.run_batch(pack, parameters, random_state=4)
        assert builds == []  # warm: the kept sampler served all batches

        # The per-problem batch follows each problem's own stream, so the
        # cold machine (no cache) agrees bit for bit under the same ICE.
        del calls[:]
        cold = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4),
                                        ice_batch_size=5,
                                        sampler_cache_size=0)
        for a, b in zip(first, cold.run_batch(pack, parameters,
                                              random_state=3)):
            np.testing.assert_array_equal(a.solutions.samples,
                                          b.solutions.samples)
            np.testing.assert_array_equal(a.solutions.num_occurrences,
                                          b.solutions.num_occurrences)

    def test_sampler_errors_propagate(self, monkeypatch):
        """Only the cancelled-coupling test routes around the pack sampler:
        an AnnealerError from the rebind (or the build, or the anneal — a
        missing backend kernel, a malformed cluster) is the caller's to
        see, not a cue for a silent unpacked retry."""
        from repro.annealer.engine import BlockDiagonalSampler

        reduced = [make_reduced(num_users=3, constellation="QPSK", seed=s,
                                snr_db=12.0) for s in range(2)]
        machine = self._machine(8)
        self._solutions(machine, reduced[:1])

        def refuse(sampler, isings):
            raise AnnealerError("structure changed")

        monkeypatch.setattr(BlockDiagonalSampler, "refresh_values", refuse)
        with pytest.raises(AnnealerError, match="structure changed"):
            self._solutions(machine, reduced[1:])

        def no_kernel(sampler, *args, **kwargs):
            raise AnnealerError("no pack colour+cluster kernel")

        monkeypatch.setattr(BlockDiagonalSampler, "anneal", no_kernel)
        with pytest.raises(AnnealerError, match="no pack colour"):
            self._solutions(self._machine(0), reduced[:1])

    def test_capacity_evicts_least_recently_used(self):
        machine = self._machine(1)
        a = make_reduced(num_users=2, constellation="QPSK", seed=1, snr_db=12.0)
        b = make_reduced(num_users=3, constellation="BPSK", seed=2, snr_db=12.0)
        self._solutions(machine, [a, b, a])
        info = machine.sampler_cache_info()
        assert info["entries"] == 1
        # a evicted by b, then b evicted by a: every lookup missed.
        assert info["misses"] == 3
        assert info["hits"] == 0

    def test_zero_capacity_disables_cache(self):
        machine = self._machine(0)
        reduced = [make_reduced(num_users=2, seed=s, snr_db=12.0)
                   for s in range(3)]
        self._solutions(machine, reduced)
        info = machine.sampler_cache_info()
        assert info == {"capacity": 0, "entries": 0, "hits": 0, "misses": 0}

    def test_clear_drops_entries_keeps_counters(self):
        machine = self._machine(8)
        reduced = [make_reduced(num_users=2, seed=s, snr_db=12.0)
                   for s in range(2)]
        self._solutions(machine, reduced)
        machine.clear_sampler_cache()
        info = machine.sampler_cache_info()
        assert info["entries"] == 0
        assert info["hits"] + info["misses"] == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(Exception):
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4),
                                     sampler_cache_size=-1)

    def test_one_sampler_serves_every_pack_size(self, monkeypatch):
        """The cache key holds no pack size: a structure misses once, then
        hits at any size, on the one sampler ever constructed for it — and
        every result is the cold machine's, bit for bit."""
        from repro.annealer.engine import BlockDiagonalSampler

        builds = []
        original_init = BlockDiagonalSampler.__init__

        def counting_init(sampler, isings, *args, **kwargs):
            builds.append(len(isings))
            original_init(sampler, isings, *args, **kwargs)

        monkeypatch.setattr(BlockDiagonalSampler, "__init__", counting_init)
        machine = self._machine(8)
        parameters = AnnealerParameters(num_anneals=10)
        packs = [[make_reduced(num_users=3, constellation="QPSK",
                               seed=10 * call + s, snr_db=12.0).ising
                  for s in range(size)]
                 for call, size in enumerate([4, 1, 16, 3])]
        warm = [machine.run_batch(pack, parameters, random_state=call)
                for call, pack in enumerate(packs)]
        assert builds == [4]
        info = machine.sampler_cache_info()
        assert (info["misses"], info["hits"], info["entries"]) == (1, 3, 1)

        cold_machine = self._machine(0)
        for call, pack in enumerate(packs):
            cold = cold_machine.run_batch(pack, parameters,
                                          random_state=call)
            for a, b in zip(warm[call], cold):
                for name in ("samples", "energies", "num_occurrences"):
                    assert (getattr(a.solutions, name).tobytes()
                            == getattr(b.solutions, name).tobytes())
                assert a.unembedding == b.unembedding
        assert builds == [4, 4, 1, 16, 3]

    def test_batched_packs_cache_across_calls(self):
        machine = self._machine(8)
        parameters = AnnealerParameters(num_anneals=10)
        packs = [[make_reduced(num_users=3, constellation="QPSK",
                               seed=10 * call + s, snr_db=12.0).ising
                  for s in range(3)] for call in range(3)]
        for call, pack in enumerate(packs):
            machine.run_batch(pack, parameters, random_state=call)
        info = machine.sampler_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2
