"""The counter-RNG contract: keyed Philox streams for replica parallelism.

``rng="counter"`` trades the engine's sequential draw discipline (one
generator per block, draws consumed in a fixed order) for
keyed Philox4x32-10 streams addressed by ``(site, sweep, replica, tag)``
under a per-block 64-bit key.  Every uniform is a pure function of its
coordinates, so evaluation order is free — which is what lets a pack
sweep on any number of cores with the same bits.  These tests pin the
contract:

* the Philox primitive itself (determinism, range, coordinate/key
  sensitivity, vectorised == scalar);
* seeded-substream disjointness across blocks and replicas;
* bit-identical streams across backends (numpy reference vs compiled);
* bit-identical streams across usable-CPU counts (1 ≡ 4);
* bit-identical decodes across worker-pool modes (inline/thread/process);
* the guard rails: sequential mode is untouched by any of this, an unknown
  discipline is rejected at every layer, and the scheduler never packs two
  disciplines together.
"""

import numpy as np
import pytest

from repro.annealer import backends, counter
from repro.annealer.backends import cext_available
from repro.annealer.chimera import ChimeraGraph
from repro.annealer.engine import IsingSampler
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import DecodeBatch, EDFBatchScheduler
from repro.cran.service import CranService
from repro.cran.workers import WorkerPool, decode_pack
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import AnnealerError, DetectionError, SchedulingError
from repro.ising.model import IsingModel
from repro.ising.solver import (
    SimulatedAnnealingSolver,
    geometric_temperature_schedule,
)
from repro.mimo.system import MimoUplink

SEED = 2019

needs_cext = pytest.mark.skipif(not cext_available(),
                                reason="no C compiler builds the artefact here")


def dense_problem(n=16, seed=SEED):
    rng = np.random.default_rng(seed)
    return IsingModel(
        num_variables=n,
        linear=rng.normal(size=n),
        couplings={(i, j): float(rng.normal())
                   for i in range(n) for j in range(i + 1, n)})


def embedded_problem():
    from cluster_workloads import build_path_chain_problem
    return build_path_chain_problem(128, 16, SEED, density=0.05)


# --------------------------------------------------------------------------- #
# The Philox primitive
# --------------------------------------------------------------------------- #
class TestPhiloxPrimitive:
    #: The Random123 distribution's Philox4x32-10 known answers: counter
    #: words, key words -> the first two output words.
    KNOWN_ANSWERS = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
         (0xA4093822, 0x299F31D0), (0xD16CFE09, 0x94FDCCEB)),
    ]

    @pytest.mark.parametrize("words,key,expected", KNOWN_ANSWERS)
    def test_published_known_answers(self, words, key, expected):
        """The reference is the published function, so every fast form
        pinned to it inherits a standard and not just its siblings."""
        x0, x1 = expected
        key = key[0] | key[1] << 32
        assert int(counter.philox4x32(*words, key)) == x0 << 32 | x1
        uniform = float(counter.philox_uniform(*words, key))
        assert uniform == ((x0 << 32 | x1) >> 11) * 2.0 ** -53

    def test_deterministic_and_in_unit_interval(self):
        sites = np.arange(4096, dtype=np.uint32)
        u1 = counter.philox_uniform(sites, 3, 7, counter.TAG_SWEEP,
                                    0xDEADBEEFCAFEF00D)
        u2 = counter.philox_uniform(sites, 3, 7, counter.TAG_SWEEP,
                                    0xDEADBEEFCAFEF00D)
        assert np.array_equal(u1, u2)
        assert u1.dtype == np.float64
        assert np.all(u1 >= 0.0) and np.all(u1 < 1.0)
        # The stream is not degenerate: essentially uniform over [0, 1).
        assert 0.45 < u1.mean() < 0.55

    def test_vectorised_matches_scalar(self):
        key = 0x0123456789ABCDEF
        sites = np.arange(33, dtype=np.uint32)
        vector = counter.philox_uniform(sites, 5, 2, counter.TAG_CLUSTER, key)
        scalar = np.array([
            float(counter.philox_uniform(
                np.array([site], dtype=np.uint32), 5, 2,
                counter.TAG_CLUSTER, key)[0])
            for site in sites])
        assert np.array_equal(vector, scalar)

    @pytest.mark.parametrize("axis", ["site", "sweep", "replica", "tag",
                                      "key"])
    def test_every_coordinate_separates_streams(self, axis):
        base = dict(site=np.arange(256, dtype=np.uint32), sweep=1, replica=1,
                    tag=counter.TAG_SWEEP, key=0x1111222233334444)
        moved = dict(base)
        if axis == "site":
            moved["site"] = base["site"] + np.uint32(256)
        elif axis == "sweep":
            moved["sweep"] = 2
        elif axis == "replica":
            moved["replica"] = 2
        elif axis == "tag":
            moved["tag"] = counter.TAG_INIT
        else:
            moved["key"] = 0x1111222233334445
        u_base = counter.philox_uniform(base["site"], base["sweep"],
                                        base["replica"], base["tag"],
                                        base["key"])
        u_moved = counter.philox_uniform(moved["site"], moved["sweep"],
                                         moved["replica"], moved["tag"],
                                         moved["key"])
        # Avalanche: a one-step move in any coordinate decorrelates the
        # whole vector, not just one entry.
        assert not np.any(u_base == u_moved)

    def test_block_keys_distinct_and_reproducible(self):
        keys_a = [counter.block_key(np.random.default_rng(SEED))
                  for _ in range(1)]
        parent = np.random.default_rng(SEED)
        keys = [counter.block_key(parent) for _ in range(64)]
        assert len(set(keys)) == 64
        assert keys[0] == keys_a[0]  # same seeding discipline, same keys

    def test_initial_spins_keyed_and_pm_one(self):
        spins = counter.counter_initial_spins(0xABCD, 8, 32)
        assert spins.shape == (8, 32)
        assert set(np.unique(spins)) <= {-1.0, 1.0}
        assert np.array_equal(spins,
                              counter.counter_initial_spins(0xABCD, 8, 32))
        other = counter.counter_initial_spins(0xABCE, 8, 32)
        assert not np.array_equal(spins, other)
        # Replicas draw disjoint substreams of the same key.
        assert not np.array_equal(spins[0], spins[1])


# --------------------------------------------------------------------------- #
# Backend and CPU-count equivalence
# --------------------------------------------------------------------------- #
class TestCounterEquivalence:
    @pytest.fixture(scope="class")
    def schedule(self):
        return geometric_temperature_schedule(60, 5.0, 0.05)

    def reference_dense(self, schedule, on_numpy):
        with on_numpy():
            return IsingSampler(dense_problem(), rng="counter").anneal(
                schedule, 12, random_state=SEED)

    @needs_cext
    def test_dense_backend_equivalence(self, schedule, on_numpy):
        reference = self.reference_dense(schedule, on_numpy)
        sampler = IsingSampler(dense_problem(), rng="counter")
        assert np.array_equal(sampler.anneal(schedule, 12, random_state=SEED),
                              reference)

    @needs_cext
    def test_dense_thread_independence(self, schedule, on_numpy,
                                       monkeypatch):
        # Any number of usable CPUs, the split gate off: the counter call
        # of one block keeps the reference bits.
        reference = self.reference_dense(schedule, on_numpy)
        monkeypatch.setattr(backends, "_SPLIT_SPINS", 0)
        for cpus in (1, 4):
            monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
            sampler = IsingSampler(dense_problem(), rng="counter")
            assert np.array_equal(
                sampler.anneal(schedule, 12, random_state=SEED), reference)

    @needs_cext
    def test_embedded_cluster_equivalence_and_threads(self, schedule,
                                                      on_numpy):
        ising, clusters = embedded_problem()
        with on_numpy():
            reference = IsingSampler(ising, clusters=clusters,
                                     rng="counter").anneal(
                schedule, 8, random_state=SEED)
        sampler = IsingSampler(ising, clusters=clusters, rng="counter")
        assert np.array_equal(
            sampler.anneal(schedule, 8, random_state=SEED), reference)

    @needs_cext
    def test_sparse_problem_equivalence(self, schedule, on_numpy):
        # Without its clusters the embedded problem is plain sparse colour
        # sweeps; counter streams must agree with the numpy reference
        # across paths.
        ising, _clusters = embedded_problem()
        with on_numpy():
            reference = IsingSampler(ising, rng="counter").anneal(
                schedule, 8, random_state=SEED)
        sampler = IsingSampler(ising, rng="counter")
        assert np.array_equal(
            sampler.anneal(schedule, 8, random_state=SEED), reference)

    def test_solver_counter_mode_backend_identical(self, on_numpy):
        solver = SimulatedAnnealingSolver(num_sweeps=50, num_reads=20,
                                          rng="counter")
        with on_numpy():
            results = [solver.sample(dense_problem(), random_state=SEED)]
        if cext_available():
            results.append(solver.sample(dense_problem(), random_state=SEED))
        first = results[0]
        for other in results[1:]:
            assert np.array_equal(first.samples, other.samples)
            assert np.array_equal(first.energies, other.energies)

    def test_counter_differs_from_sequential_but_both_valid(self, schedule):
        # Counter mode is a *different* exact stream, not a re-expression of
        # the sequential one.
        ising = dense_problem()
        seq = IsingSampler(ising).anneal(
            schedule, 12, random_state=SEED)
        ctr = IsingSampler(ising, rng="counter").anneal(
            schedule, 12, random_state=SEED)
        assert seq.shape == ctr.shape
        assert not np.array_equal(seq, ctr)

    def test_sequential_streams_unchanged_by_default(self, schedule):
        # The default-constructed sampler and an explicit rng="sequential"
        # one must consume the exact same streams.
        ising = dense_problem()
        default = IsingSampler(ising).anneal(
            schedule, 12, random_state=SEED)
        explicit = IsingSampler(ising, rng="sequential").anneal(
            schedule, 12, random_state=SEED)
        assert np.array_equal(default, explicit)


# --------------------------------------------------------------------------- #
# Substream disjointness across blocks and replicas
# --------------------------------------------------------------------------- #
class TestSubstreamDisjointness:
    def test_pack_blocks_decode_like_singleton_runs(self):
        # Pack-level evaluation-order independence: annealing B blocks as
        # one counter-mode pack must reproduce each block annealed alone
        # with its own stream — the property the sequential discipline
        # also guarantees, preserved under the counter contract.
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        params = AnnealerParameters(num_anneals=10)
        problems = [dense_problem(seed=SEED + i) for i in range(3)]
        packed = machine.run_batch(
            problems, params, random_states=[SEED + 100 + i
                                             for i in range(3)],
            rng="counter")
        for i, problem in enumerate(problems):
            alone = machine.run(problem, params, random_state=SEED + 100 + i,
                                rng="counter")
            assert np.array_equal(packed[i].solutions.samples,
                                  alone.solutions.samples)
            assert np.array_equal(packed[i].solutions.energies,
                                  alone.solutions.energies)

    def test_replica_streams_are_disjoint(self):
        # No two replicas of a counter anneal may share a trajectory (the
        # birthday bound at 2^64 keys makes collisions impossible unless
        # the replica coordinate were ignored).
        sampler = IsingSampler(dense_problem(), rng="counter")
        spins = sampler.anneal(geometric_temperature_schedule(40, 5.0, 0.5),
                               16, random_state=SEED)
        unique = {spin_row.tobytes() for spin_row in np.asarray(spins)}
        assert len(unique) > 1


# --------------------------------------------------------------------------- #
# Guard rails
# --------------------------------------------------------------------------- #
class TestGuards:
    def test_engine_rejects_unknown_rng(self):
        with pytest.raises(AnnealerError, match="rng"):
            IsingSampler(dense_problem(), rng="philox")

    def test_machine_rejects_unknown_rng(self):
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        with pytest.raises(AnnealerError, match="rng"):
            machine.run(dense_problem(), AnnealerParameters(num_anneals=5),
                        random_state=SEED, rng="philox")

    def test_decoder_rejects_unknown_rng(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        use = link.transmit(random_state=np.random.default_rng(0))
        with pytest.raises(DetectionError, match="rng"):
            QuAMaxDecoder().detect_batch([use], rng="philox")

    def test_job_rejects_unknown_rng_mode(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        use = link.transmit(random_state=np.random.default_rng(0))
        with pytest.raises(SchedulingError, match="rng_mode"):
            DecodeJob(job_id=0, user_id=0, frame=0, subcarrier=0,
                      channel_use=use, arrival_time_us=0.0,
                      rng_mode="philox")

    def test_scheduler_never_packs_two_disciplines_together(self):
        # A pack is one annealer call under one draw discipline: the
        # scheduler queues each discipline on its own, so a mixed load is
        # served (it used to be refused) and no pack ever mixes modes.
        link = MimoUplink(num_users=2, constellation="BPSK")
        rng = np.random.default_rng(0)
        scheduler = EDFBatchScheduler(max_batch=2, max_wait_us=np.inf)
        batches = []
        for i, mode in enumerate(["counter", "sequential", "sequential",
                                  "counter", "counter"]):
            batches += scheduler.submit(DecodeJob(
                job_id=i, user_id=0, frame=0, subcarrier=i,
                channel_use=link.transmit(random_state=rng),
                arrival_time_us=float(i), rng_mode=mode))
        batches += scheduler.drain()
        assert [batch.job_ids for batch in batches] == [(1, 2), (0, 3), (4,)]
        assert all(len({job.rng_mode for job in batch.jobs}) == 1
                   for batch in batches)
        assert [batch.jobs[0].rng_mode for batch in batches] == [
            "sequential", "counter", "counter"]

    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_pack_decodes_under_its_jobs_discipline(self, monkeypatch,
                                                    rng_mode):
        """``decode_pack`` always hands ``detect_batch`` the pack's own draw
        discipline."""
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(2, 2)),
            AnnealerParameters(num_anneals=4))
        seen = []
        detect_batch = decoder.detect_batch

        def recording(channel_uses, random_states, rng):
            seen.append(rng)
            return detect_batch(channel_uses, random_states=random_states,
                                rng=rng)

        monkeypatch.setattr(decoder, "detect_batch", recording)
        link = MimoUplink(num_users=2, constellation="BPSK")
        job = DecodeJob(job_id=0, user_id=0, frame=0, subcarrier=0,
                        channel_use=link.transmit(random_state=0),
                        arrival_time_us=0.0, rng_mode=rng_mode)
        outcomes, _ = decode_pack(decoder, None, 0, DecodeBatch(
            jobs=(job,), flush_time_us=0.0, reason="full"))
        assert seen == [rng_mode]
        assert len(outcomes) == 1

    def test_pool_derives_process_thread_budget(self, monkeypatch):
        """The default budget divides the CPUs this process may use (its
        affinity mask), not the machine's: two workers under a one-CPU
        mask on an eight-CPU machine get one CPU each, not four."""
        import os
        monkeypatch.setattr(backends, "_USABLE_CPUS", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        decoder = QuAMaxDecoder()
        with WorkerPool(decoder, num_workers=2, mode="process") as pool:
            assert pool.worker_info()["threads"] == 1
        with WorkerPool(decoder, num_workers=2, mode="process",
                        threads=3) as override:
            assert override.worker_info()["threads"] == 3
        inline = WorkerPool(decoder)
        assert inline.worker_info()["threads"] == 1

    @pytest.mark.parametrize("budget, usable", [(1, 1), (3, 2)])
    def test_process_worker_caps_its_packs_at_the_budget(self, monkeypatch,
                                                         budget, usable):
        """A process worker's one use of the pool's ``threads``: its
        initializer caps the CPUs its packs shard over at that budget (a
        budget over the affinity mask leaves the mask) and installs the
        decoder and fault plan it was handed."""
        from repro.cran import workers
        monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
        monkeypatch.setattr(workers, "_WORKER_DECODER", None)
        monkeypatch.setattr(workers, "_WORKER_FAULTS", None)
        decoder = QuAMaxDecoder()
        workers._process_worker_init((decoder, None, budget))
        assert backends._usable_cpus() == usable
        assert workers._WORKER_DECODER is decoder
        assert workers._WORKER_FAULTS is None


# --------------------------------------------------------------------------- #
# Serving-layer identity across pool modes
# --------------------------------------------------------------------------- #
class TestServingIdentity:
    @pytest.fixture(scope="class")
    def jobs(self):
        link = MimoUplink(num_users=2, constellation="BPSK")
        rng = np.random.default_rng(0)
        return [
            DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                      channel_use=link.transmit(random_state=rng),
                      arrival_time_us=10.0 * i, deadline_us=10.0 * i + 1e6,
                      seed=100 + i, rng_mode="counter")
            for i in range(6)
        ]

    @staticmethod
    def service():
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=10))
        return CranService(decoder, max_batch=4)

    @staticmethod
    def payload(report):
        return [(r.job.job_id, r.result.detection.bits.tobytes(),
                 r.result.run.solutions.energies.tobytes())
                for r in report.results]

    def test_inline_thread_pool_identity(self, jobs):
        inline = self.service().run(jobs)
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=10))
        threaded = CranService(decoder, max_batch=4, num_workers=2,
                               mode="thread").run(jobs)
        assert self.payload(inline) == self.payload(threaded)
        assert inline.telemetry["workers"]["threads"] == 1

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_thread_budget_and_packing_are_invisible(self, jobs, threads):
        # The service's threads is a process worker's CPU budget; an
        # inline pool reports it and shards over the process's CPUs.  At
        # every budget, packs of up to 4 decode bit for bit as batch-1
        # serving does.
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=10))
        serial = CranService(decoder, max_batch=1).run(jobs)
        packed = CranService(decoder, max_batch=4,
                             threads=threads).run(jobs)
        assert packed.telemetry["workers"]["threads"] == threads
        assert packed.telemetry["mean_batch_fill"] > 1
        assert self.payload(packed) == self.payload(serial)

    @pytest.mark.skipif(not cext_available(),
                        reason="process identity exercised with the cext")
    def test_process_pool_identity(self, jobs):
        inline = self.service().run(jobs)
        decoder = QuAMaxDecoder(
            QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4)),
            AnnealerParameters(num_anneals=10))
        process = CranService(decoder, max_batch=4, num_workers=2,
                              mode="process", threads=2).run(jobs)
        assert self.payload(inline) == self.payload(process)
        assert process.telemetry["workers"]["threads"] == 2
