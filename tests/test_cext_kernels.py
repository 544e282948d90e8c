"""Clock-free guards of the C kernels' exact shortcuts.

The cext kernels settle most uphill proposals with a squeeze test instead
of ``exp``, and the colour kernels sweep lane-major — all replicas of one
spin at once over a transposed copy of the block.  Both must leave every
decision — hence every seeded stream — untouched; the cross-backend
identity and golden suites prove that end to end.  This file pins the
pieces:

* the **work counters** (`BlockDiagonalSampler.last_sweep_work`) repeat
  exactly, show the squeeze is on the hot path, and agree with the number
  of uniforms the generator actually handed out;
* the **lane layout** leaves everything but the caller's spins alone (pad
  lanes, workspace bounds) and draws through any BitGenerator;
* the **squeeze** equals ``u < exp(-delta / T)`` on an adversarial grid
  around both of its decision boundaries;
* the **Philox fill** — counter draws valued a vector at a time — equals
  the reference ``counter.philox_uniform`` at every compiled-in width, and
  the initial configuration built on it equals the reference's;
* the **sequential initial configuration** — drawn in C through each
  generator's published ``bitgen_t`` — equals the ``rng.integers`` loop for
  every BitGenerator, and leaves every generator where that loop leaves it
  (buffered half-word included);
* a **sharded pack** of either draw discipline — its blocks split into
  one range per usable CPU, swept side by side — equals the one call in
  spins, generator states and work, and stays one call when blocks share a
  bit generator;
* a **pack's ICE batches** — ``pack_ice_batches``, every batch's ICE
  draws, value gathers, start and sweep in one call per range of blocks —
  equal the NumPy path's perturb-then-anneal loop in spins and generator
  states, in either discipline, as one range or several, and as lane
  halves; one noise-free batch is the plain anneal;
* **lane halves** — one block's replicas split over two threads, each
  drawing from a C-stepped PCG64 jumped to its own draw offsets — equal
  the one-thread call at any cut, step and jump as NumPy does, fall back to
  the one-thread call when the helper is busy or a half waits too long, and
  stand down after such calls;
* the **read-out's energy operator** — every problem's ``A_b @ D_b.T``
  over its distinct reads, in the read-out a machine pack's batch call
  runs — equals scipy's CSR product as bytes, layout included, on every
  structure the serving path aggregates over;
* the read-out's **distinct reads** equal ``np.unique(axis=0)``'s order,
  first occurrences and counts (the programming and the vote inside the
  batch call are held to their NumPy passes stage by stage in
  ``test_pack_pipeline.py``);
* the C source compiles **warning-free** (no dead argument rides along in
  the entry-point signatures).
"""

import contextlib
import ctypes
import gc
import itertools
import math
import os
import subprocess
import threading
from types import FrameType, SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from repro.annealer import backends
from repro.annealer.chimera import ChimeraGraph
from repro.annealer import counter
from repro.annealer.counter import block_key
from repro.annealer.embedded import embed_ising
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.ice import ICEModel
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel, symmetric_csr_template
from repro.mimo.system import MimoUplink
from repro.transform.reduction import MLToIsingReducer

from cluster_workloads import framed_batch_spins

pytestmark = pytest.mark.skipif(not backends.cext_available(),
                                reason="no C compiler for the cext backend")

MACHINE = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
PARAMETERS = AnnealerParameters()
#: The machine's default per-sweep temperatures (hot 1.5 -> cold 0.02).
TEMPERATURES = PARAMETERS.schedule.temperature_profile(
    sweeps_per_us=MACHINE.sweeps_per_us, hot=MACHINE.hot_temperature,
    cold=MACHINE.cold_temperature)
REPLICAS = 20
#: Uniforms the sequential colour kernel draws on ``embedded_bpsk()`` under
#: ``TEMPERATURES`` x ``REPLICAS`` from seed 11 — measured on the plain
#: (pre-squeeze, row-major) kernel by the generator-advance identity below.
PINNED_DRAWS = 35107


def embedded_bpsk(num_users=12, seed=5):
    """A 12-user BPSK ML problem clique-embedded on a 4x4 Chimera chip."""
    channel_use = MimoUplink(num_users=num_users, constellation="BPSK"
                             ).transmit(random_state=seed, snr_db=20.0)
    logical = MLToIsingReducer().reduce(channel_use).ising
    embedded = embed_ising(logical, MACHINE.embedding_for(num_users),
                           chain_strength=PARAMETERS.chain_strength,
                           extended_range=PARAMETERS.extended_range)
    clusters = [np.asarray(chain, dtype=np.intp)
                for chain in embedded.compact_chains.values()]
    return embedded.ising, clusters


class TestWorkCounters:
    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_counts_repeat_and_shortcuts_are_hot(self, rng_mode):
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters,
                               rng=rng_mode)
        assert sampler.last_sweep_work is None
        first = sampler.anneal(TEMPERATURES, REPLICAS, random_state=11)
        work = sampler.last_sweep_work
        again = sampler.anneal(TEMPERATURES, REPLICAS, random_state=11)
        np.testing.assert_array_equal(first, again)
        assert sampler.last_sweep_work == work

        sweeps = len(TEMPERATURES)
        assert work.proposals == sweeps * REPLICAS * (ising.num_variables
                                                      + len(clusters))
        assert 0 < work.draws <= work.proposals
        # The squeeze settles at least four uphill draws in five.
        assert work.exp_calls <= 0.2 * work.draws

    def test_draws_equal_the_generator_stream(self):
        """``draws`` is the stream length: the generator ends exactly that
        many steps past its initial-spin draw, at the count the pre-squeeze
        kernel consumed on this problem (pinned)."""
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters)
        rng = np.random.default_rng(11)
        sampler.anneal(TEMPERATURES, REPLICAS, random_state=rng)
        work = sampler.last_sweep_work
        reference = np.random.default_rng(11)
        reference.integers(0, 2, size=(REPLICAS, ising.num_variables))
        reference.bit_generator.advance(work.draws)
        assert (rng.bit_generator.state["state"]
                == reference.bit_generator.state["state"])
        assert work.draws == PINNED_DRAWS

    def test_reference_backend_reports_none(self, on_numpy):
        ising, clusters = embedded_bpsk()
        numpy_sampler = IsingSampler(ising, clusters=clusters)
        with on_numpy():
            numpy_sampler.anneal(TEMPERATURES[:3], 4, random_state=11)
        assert numpy_sampler.last_sweep_work is None


class TestLaneLayout:
    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.MT19937, np.random.Philox,
        np.random.SFC64])
    def test_every_bit_generator_draws_through_the_pointer_seam(
            self, bit_generator, on_numpy):
        """The kernel draws through ``next_double`` and knows no generator
        by name: any BitGenerator gives the numpy loops' spins and ends in
        the numpy loops' state."""
        ising, clusters = embedded_bpsk()
        outcomes = []
        for path in (on_numpy, contextlib.nullcontext):
            rng = np.random.Generator(bit_generator(11))
            with path():
                samples = IsingSampler(ising, clusters=clusters).anneal(
                    TEMPERATURES, 5, random_state=rng)
            outcomes.append((samples, rng.bit_generator.state))
        (expected, expected_state), (actual, state) = outcomes
        np.testing.assert_array_equal(expected, actual)
        np.testing.assert_equal(state, expected_state)

    @pytest.mark.parametrize("rng_mode", ["sequential", "counter"])
    def test_kernel_writes_only_the_callers_spins(self, monkeypatch, rng_mode,
                                                  on_numpy):
        """Canary: thirteen replicas leave three pad lanes in one lane group
        of sixteen.  The batch call's spins are an interior view of a
        NaN-bordered matrix and the lane scratch — all of it poisoned, the
        counter discipline's uniform rows included, sized by the helper the
        call itself uses — is followed by guard words; the call must leave
        border and guard untouched and every spin it hands back a finite
        +-1 — nothing of a pad lane or of the scratch reaches the caller."""
        ising, clusters = embedded_bpsk()
        size, replicas = ising.num_variables, 13
        sampler = IsingSampler(ising, clusters=clusters, rng=rng_mode)
        lanes, used = backends._lane_layout(replicas, size, size)
        assert lanes == 16
        scratch = np.full(used + 64, 12345.0)
        sampler._kernel_workspace["lanes"] = (scratch, backends._ptr(scratch))
        view, frame, border = framed_batch_spins(monkeypatch, sampler,
                                                 replicas)

        samples = sampler.anneal(TEMPERATURES, replicas,
                                 random_state=np.random.default_rng(13))

        assert sampler._kernel_workspace["lanes"][0] is scratch
        assert (scratch[used:] == 12345.0).all()
        assert np.isnan(frame[border]).all()
        assert (np.abs(view) == 1.0).all()
        np.testing.assert_array_equal(view, samples)
        with on_numpy():
            expected = IsingSampler(ising, clusters=clusters,
                                    rng=rng_mode).anneal(
                TEMPERATURES, replicas, random_state=np.random.default_rng(13))
        np.testing.assert_array_equal(samples, expected)


class TestSqueezeExactness:
    @staticmethod
    def quartic(x):
        return 1.0 + x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0)))

    def test_probe_equals_reference_expression(self):
        probe = backends._load_cext().metropolis_accept_probe
        ratios = np.concatenate([10.0 ** np.arange(-300.0, 0.0, 12.5),
                                 np.linspace(0.05, 40.0, 81),
                                 np.linspace(41.0, 800.0, 70)])
        checked = 0
        for temperature in np.unique(TEMPERATURES):
            for delta in ratios * temperature:
                x = delta / temperature
                boundary = math.exp(-x)
                squeeze = 1.0 / self.quartic(x)
                uniforms = {
                    0.0, 2.0 ** -53, 1.0 - 2.0 ** -53,
                    math.nextafter(boundary, 0.0), boundary,
                    math.nextafter(boundary, 1.0),
                    math.nextafter(squeeze, 0.0), squeeze,
                    math.nextafter(squeeze, 1.0),
                }
                for u in uniforms:
                    if not 0.0 <= u < 1.0:
                        continue
                    expected = u < math.exp(-delta / temperature)
                    assert probe(delta, temperature, u) == expected, (
                        delta, temperature, u)
                    checked += 1
        assert checked > 20000


class TestPhiloxFill:
    #: A (site, lane) grid straddling every uint32 edge of the address.
    BEGINS = (0, 1, 2 ** 16, 2 ** 32 - 3)
    SWEEPS = (0, 29, 2 ** 32 - 1)
    FIRST_REPLICAS = (0, 7, 2 ** 32 - 5)       # first + lane wraps
    TAGS = (counter.TAG_SWEEP, counter.TAG_CLUSTER, counter.TAG_INIT)
    KEYS = (0, 2 ** 64 - 1, 0x9E3779B97F4A7C15)
    LANES = (4, 8, 12, 28)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_every_width_equals_the_reference(self, width):
        probe = backends._load_cext().philox_fill_probe
        buffer = np.empty(3 * max(self.LANES) + 1)
        for begin, sweep, first, tag, key, lanes in itertools.product(
                self.BEGINS, self.SWEEPS, self.FIRST_REPLICAS, self.TAGS,
                self.KEYS, self.LANES):
            end = min(begin + 3, 2 ** 32 - 1)
            # An odd element offset: 8-byte aligned only.
            out = buffer[1:1 + (end - begin) * lanes]
            out[:] = np.nan
            status = probe(width, begin, end, sweep, first, tag, key, lanes,
                           out.ctypes.data_as(ctypes.c_void_p))
            if status == -1:
                assert width > backends.philox_lanes()
                pytest.skip(f"this CPU cannot run the {width}-wide fill")
            assert status == width
            sites = np.arange(begin, end, dtype=np.uint64)[:, None]
            replicas = (first + np.arange(lanes, dtype=np.uint64))[None, :]
            expected = counter.philox_uniform(
                sites.astype(np.uint32), sweep, replicas.astype(np.uint32),
                tag, key)
            np.testing.assert_array_equal(out.reshape(expected.shape),
                                          expected)

    def test_dispatched_width_is_a_compiled_one(self):
        assert backends.philox_lanes() in (1, 2, 4)
        probe = backends._load_cext().philox_fill_probe
        assert probe(3, 0, 0, 0, 0, 0, 0, 4, None) == -1

    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    @pytest.mark.parametrize("replicas", [1, 5, 25])
    @pytest.mark.parametrize("blocks", [1, 3, 16])
    def test_initial_spins_equal_the_reference(self, blocks, replicas,
                                               backend):
        """The start the batch call values with the Philox fill
        (``philox_start``, through its ``counter_initial_spins`` export),
        64 variables a tile, and the NumPy path's, per block."""
        keys = [block_key(np.random.default_rng(seed))
                for seed in range(blocks)]
        for size in (1, 24, 64, 150):
            if backend == "numpy":
                spins = backends.counter_initial_spins(keys, replicas, size)
            else:
                spins = np.empty((replicas, blocks * size))
                backends._load_cext().counter_initial_spins(
                    backends._ptr(spins), replicas, blocks, size,
                    backends._ptr(np.array(keys, dtype=np.uint64)))
            assert spins.shape == (replicas, blocks * size)
            assert spins.flags.c_contiguous and spins.flags.writeable
            for b, key in enumerate(keys):
                np.testing.assert_array_equal(
                    spins[:, b * size:(b + 1) * size],
                    counter.counter_initial_spins(key, replicas, size))


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def oracle_initial_spins(rngs, replicas, size):
    """The sequential discipline's initial configuration as the engine drew
    it before the C export: one ``Generator.integers`` call per block."""
    spins = np.empty((replicas, len(rngs) * size))
    for b, rng in enumerate(rngs):
        spins[:, b * size:(b + 1) * size] = rng.integers(
            0, 2, size=(replicas, size))
    spins *= 2.0
    spins -= 1.0
    return spins


def drawn_start(backend, rngs, replicas, size):
    """The sequential start of the NumPy path, or of the batch call: its
    ``sequential_initial_spins`` export, called directly."""
    if backend == "numpy":
        return backends.sequential_initial_spins(rngs, replicas, size)
    spins = np.empty((replicas, len(rngs) * size))
    backends._load_cext().sequential_initial_spins(
        *backends._row_strided(spins), replicas, len(rngs), size,
        backends._rng_pointer_arrays(rngs))
    return spins


def next_draws_of_every_kind(rng):
    """What a generator hands out next through each of its four functions
    (``next_uint32``, ``next_uint64``, ``next_double``, ``next_raw``), then
    its end state as the following eight ``random()`` values."""
    return (rng.integers(0, 2 ** 32, size=3, dtype=np.uint32).tolist(),
            rng.integers(0, 2 ** 64, size=3, dtype=np.uint64).tolist(),
            rng.random(3).tolist(),
            rng.bit_generator.random_raw(3).tolist(),
            rng.random(8).tolist())


class TestSequentialInitialSpins:
    """``Generator.integers(0, 2)`` IS ``next_uint32() >> 31``, element by
    element: NumPy's bounded draw for a range of 2 is Lemire's multiply-shift
    of one 32-bit word with nothing to reject.  This class is what pins that
    fact — and with it the ``bitgen_t`` contract — for every BitGenerator."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    @pytest.mark.parametrize("replicas", [1, 5, 25])
    @pytest.mark.parametrize("blocks", [1, 3, 16])
    def test_equals_the_integers_loop(self, blocks, replicas, backend,
                                      bit_generator):
        # Odd products (13 x 5, 1 x 1 ...) leave half a 64-bit word buffered
        # in the generator: the NEXT draw of every kind must match too.
        for size in (1, 13, 24, 672):
            expected_rngs, rngs = (
                [np.random.Generator(bit_generator(100 + b))
                 for b in range(blocks)] for _ in range(2))
            expected = oracle_initial_spins(expected_rngs, replicas, size)
            spins = drawn_start(backend, rngs, replicas, size)
            assert spins.dtype == np.float64
            assert spins.flags.c_contiguous and spins.flags.writeable
            assert spins.tobytes() == expected.tobytes()
            for rng, reference in zip(rngs, expected_rngs):
                np.testing.assert_equal(rng.bit_generator.state,
                                        reference.bit_generator.state)
                assert (next_draws_of_every_kind(rng)
                        == next_draws_of_every_kind(reference))

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_starts_from_a_buffered_half_word(self, bit_generator):
        """One 32-bit draw before the call leaves the generator mid-word:
        the C loop must take the buffered half first, like NumPy does."""
        expected_rng, rng = (np.random.Generator(bit_generator(7))
                             for _ in range(2))
        for generator in (expected_rng, rng):
            generator.integers(0, 2 ** 32, dtype=np.uint32)
        expected = oracle_initial_spins([expected_rng], 5, 13)
        spins = drawn_start("cext", [rng], 5, 13)
        assert spins.tobytes() == expected.tobytes()
        assert (next_draws_of_every_kind(rng)
                == next_draws_of_every_kind(expected_rng))

    def test_writes_only_the_callers_spins(self):
        """The export takes a row stride: an interior view of a NaN-framed
        matrix comes back all +-1 with the frame untouched."""
        blocks, replicas, size = 3, 5, 13
        frame = np.full((replicas + 2, blocks * size + 8), np.nan)
        view = frame[1:-1, 3:-5]
        rngs = [np.random.default_rng(b) for b in range(blocks)]
        backends._load_cext().sequential_initial_spins(
            *backends._row_strided(view), replicas, blocks, size,
            backends._rng_pointer_arrays(rngs))
        border = np.ones(frame.shape, dtype=bool)
        border[1:-1, 3:-5] = False
        assert np.isnan(frame[border]).all()
        np.testing.assert_array_equal(
            view, oracle_initial_spins(
                [np.random.default_rng(b) for b in range(blocks)],
                replicas, size))

    def test_a_served_pack_keeps_no_generator_alive(self):
        """A warm served pack's fresh generators are marshalled for its call
        and let go: nothing but the caller's own list refers to them after
        ``run_batch`` returns, so no workspace or route copies the list or
        keeps a previous pack's generators alive."""
        machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4))
        reducer = MLToIsingReducer()
        link = MimoUplink(num_users=3, constellation="QPSK")
        problems = [reducer.reduce(link.transmit(snr_db=15.0,
                                                 random_state=seed)).ising
                    for seed in range(2)]
        parameters = AnnealerParameters(num_anneals=20)
        for seed in (1, 2):  # a cold pack, then a warm one on its route
            rngs = [np.random.default_rng([seed, block]) for block in (0, 1)]
            machine.run_batch(problems, parameters, random_states=rngs)
        assert machine.sampler_cache_info()["hits"] == 1
        for rng in rngs:
            referrers = [referrer for referrer in gc.get_referrers(rng)
                         if referrer is not rngs
                         and not isinstance(referrer, FrameType)]
            assert referrers == []

    def test_only_a_bit_generator_capsule_is_dereferenced(self):
        """``PyCapsule_GetPointer`` checks the capsule's name: anything but
        a BitGenerator's raises instead of handing C a wild pointer."""
        stand_in = SimpleNamespace(
            bit_generator=SimpleNamespace(capsule=object()))
        with pytest.raises(ValueError):
            backends._rng_pointer_arrays([stand_in])

    def test_engine_start_is_the_export(self):
        """The batch call starts from the export's matrix.  A problem with
        no field and no coupling flips every spin in every sweep without a
        draw, so two sweeps hand back the start, and the generator ends
        where the export leaves it."""
        size = 13
        sampler = IsingSampler(IsingModel(num_variables=size,
                                          linear=np.zeros(size),
                                          couplings={}))
        rng, reference_rng = (np.random.default_rng(21) for _ in range(2))
        start = sampler.anneal([1.0, 1.0], 7, random_state=rng)
        assert sampler.last_sweep_work.draws == 0
        np.testing.assert_array_equal(
            start, drawn_start("cext", [reference_rng], 7, size))
        np.testing.assert_equal(rng.bit_generator.state,
                                reference_rng.bit_generator.state)


def embedded_pack(blocks, with_clusters, rng="sequential"):
    """*blocks* 6-user BPSK problems on one clique embedding: one structure,
    block-level chains as the clusters (or none).  Block *b* is scaled by
    ``1 + b / 8``, so no two blocks share a chain coupling: a range that
    reads another's values shows."""
    problems = [embedded_bpsk(num_users=6, seed=seed)
                for seed in range(blocks)]
    return BlockDiagonalSampler(
        [ising.scaled(1 + b / 8) for b, (ising, _) in enumerate(problems)],
        clusters=problems[0][1] if with_clusters else None, rng=rng)


class TestShardedPack:
    """A colour pack's blocks shard across usable CPUs, in either draw
    discipline: contiguous ranges, one batch call each, the first on the
    calling thread and the rest on helper threads.  Block *b* draws
    only from generator *b* (sequential) or from its own Philox key, drawn
    from generator *b* before the call (counter), so the ranges together
    are the one call — spins, generator states and :class:`SweepWork` —
    unless two blocks share a bit generator."""

    @staticmethod
    def anneal(monkeypatch, cpus, sampler, random_states, split_spins=0):
        """Anneal with *cpus* usable and the size gate at *split_spins*
        (none by default); returns ``(spins, work, ranges)``, the block
        count of every batch call's range."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
        monkeypatch.setattr(backends, "_SPLIT_SPINS", split_spins)
        ranges = []
        original = backends._batch_block
        monkeypatch.setattr(
            backends, "_batch_block", lambda space, buffers, lo, hi, *rest:
            ranges.append(hi - lo) or original(space, buffers, lo, hi, *rest))
        spins = sampler.anneal(TEMPERATURES, REPLICAS, random_states)
        monkeypatch.setattr(backends, "_batch_block", original)
        return spins, sampler.last_sweep_work, ranges

    @pytest.mark.parametrize("rng", ["sequential", "counter"])
    @pytest.mark.parametrize("with_clusters", [True, False])
    @pytest.mark.parametrize("blocks", [2, 3, 16, 17])
    def test_ranges_are_the_one_call(self, monkeypatch, blocks,
                                     with_clusters, rng):
        sampler = embedded_pack(blocks, with_clusters, rng)
        reference_rngs = [np.random.default_rng(b) for b in range(blocks)]
        expected, expected_work, ranges = self.anneal(
            monkeypatch, 1, sampler, reference_rngs)
        assert ranges == [blocks]
        for cpus in (2, 3, 64):  # 64: one block per range
            rngs = [np.random.default_rng(b) for b in range(blocks)]
            spins, work, ranges = self.anneal(monkeypatch, cpus, sampler,
                                              rngs)
            assert len(ranges) == min(blocks, cpus)
            assert sum(ranges) == blocks and max(ranges) - min(ranges) <= 1
            assert spins.tobytes() == expected.tobytes()
            assert work == expected_work
            for rng, reference in zip(rngs, reference_rngs):
                assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("form", ["same generator",
                                      "one bit generator under two"])
    def test_a_shared_generator_keeps_the_one_call(self, monkeypatch, form):
        """Blocks 1 and 2 drawing from one bit generator must stay in block
        order on one thread: the pack is not sharded, and gives the bits of
        the one call."""
        sampler = embedded_pack(4, with_clusters=True)

        def states():
            shared = np.random.default_rng(5)
            twin = (shared if form == "same generator"
                    else np.random.Generator(shared.bit_generator))
            return [np.random.default_rng(4), shared, twin,
                    np.random.default_rng(6)]

        expected, expected_work, _ = self.anneal(monkeypatch, 1, sampler,
                                                 states())
        spins, work, ranges = self.anneal(monkeypatch, 4, sampler, states())
        assert ranges == [4]
        assert spins.tobytes() == expected.tobytes()
        assert work == expected_work

    @pytest.mark.parametrize("gated", [True, False])
    def test_small_packs_stay_on_one_thread(self, monkeypatch, request,
                                            gated):
        """A 4-block pack of 4 spins (320 with its replicas) is below the
        size gate: on two usable CPUs it is still the one call and no
        helper is asked for work.  Under ``every_block_splits`` (no gate)
        the same pack shards; the bits are the one call's either way."""
        from concurrent.futures import ThreadPoolExecutor

        if not gated:
            request.getfixturevalue("every_block_splits")
        gate = backends._SPLIT_SPINS
        problems = [IsingModel(num_variables=4, linear=rng.normal(size=4),
                               couplings={(i, j): float(rng.normal())
                                          for i in range(4)
                                          for j in range(i + 1, 4)})
                    for rng in map(np.random.default_rng, range(4))]
        sampler = BlockDiagonalSampler(problems)
        expected, expected_work, _ = self.anneal(
            monkeypatch, 1, sampler, [np.random.default_rng(b)
                                      for b in range(4)])
        submitted = []
        with ThreadPoolExecutor(1) as pool:
            class Recorder:
                def submit(self, *args):
                    submitted.append(args[0])
                    return pool.submit(*args)

            monkeypatch.setitem(backends._HELPERS, "pool", Recorder())
            spins, work, ranges = self.anneal(
                monkeypatch, 2, sampler, [np.random.default_rng(b)
                                          for b in range(4)], gate)
        assert ranges == ([4] if gated else [2, 2])
        assert len(submitted) == (0 if gated else 1)
        assert spins.tobytes() == expected.tobytes()
        assert work == expected_work

    def test_one_usable_cpu_is_the_one_call(self, monkeypatch):
        """On one CPU nothing is split and no helper is asked for work."""
        monkeypatch.setattr(backends, "_HELPERS", {"pool": None})
        sampler = embedded_pack(16, with_clusters=True)
        _, _, ranges = self.anneal(
            monkeypatch, 1, sampler, [np.random.default_rng(b)
                                      for b in range(16)])
        assert ranges == [16]

    def test_usable_cpus_read_once_and_capped(self, monkeypatch):
        monkeypatch.setattr(backends, "_USABLE_CPUS", None)
        cpus = backends._usable_cpus()
        assert cpus == (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity")
                        else os.cpu_count())
        assert backends._usable_cpus(cap=cpus + 1) == cpus
        assert backends._usable_cpus(cap=0) == 1
        assert backends._usable_cpus() == 1


class TestIceBatchCall:
    """``BlockDiagonalSampler.anneal(..., ice=, ice_batch_size=)`` on the
    artefact: one ``pack_ice_batches`` call per range of blocks runs every
    ICE batch.  The NumPy path — ``perturb_pack``, rebind and anneal per
    batch — is its oracle, bit for bit, generators included."""

    ICE = ICEModel()

    @staticmethod
    def anneal(sampler, blocks, on_numpy=None, replicas=50, batch=20,
               ice=ICE):
        """Three batches (20, 20, 10) from fresh generators: the spins'
        bytes, the generators' states and the kernel's work."""
        rngs = [np.random.default_rng(40 + b) for b in range(blocks)]
        with on_numpy() if on_numpy else contextlib.nullcontext():
            spins = sampler.anneal(TEMPERATURES, replicas, rngs, ice=ice,
                                   ice_batch_size=batch)
        return (spins.tobytes(), [rng.bit_generator.state for rng in rngs],
                sampler.last_sweep_work)

    @pytest.mark.parametrize("rng", ["sequential", "counter"])
    @pytest.mark.parametrize("with_clusters", [True, False])
    @pytest.mark.parametrize("blocks", [1, 3, 16])
    def test_ranges_equal_the_numpy_loop(self, monkeypatch, on_numpy, blocks,
                                         with_clusters, rng):
        sampler = embedded_pack(blocks, with_clusters, rng)
        programmed = sampler.isings
        expected, expected_states, _ = self.anneal(sampler, blocks, on_numpy)
        monkeypatch.setattr(backends, "_SPLIT_SPINS", 0)
        monkeypatch.setattr(backends, "_STALL_BUDGET", -1)
        works, calls = set(), []
        original = backends._batch_block
        monkeypatch.setattr(
            backends, "_batch_block", lambda space, buffers, lo, hi, *rest:
            calls.append(hi - lo) or original(space, buffers, lo, hi, *rest))
        for cpus in (1, 2, 64):
            monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
            calls.clear()
            spins, states, work = self.anneal(sampler, blocks)
            assert spins == expected and states == expected_states, cpus
            # One range per usable CPU, or one block as lane halves.
            shards = min(blocks, cpus)
            assert calls == [blocks * (k + 1) // shards - blocks * k // shards
                             for k in range(shards)]
            works.add(work)
        assert len(works) == 1 and None not in works
        # The call leaves the sampler bound to the programmed values.
        assert sampler.isings is programmed

    def test_lane_half_batches_equal_the_numpy_loop(self, on_numpy,
                                                    every_block_splits):
        """One block over the split gate: each batch's draws and start in
        one call, then its sweep as two lane halves."""
        sampler = embedded_pack(1, True)
        expected = self.anneal(sampler, 1, on_numpy)[:2]
        splits = every_block_splits["splits"]
        assert self.anneal(sampler, 1)[:2] == expected
        assert every_block_splits["splits"] == splits + 3

    @pytest.mark.parametrize("rng", ["sequential", "counter"])
    def test_one_noise_free_batch_is_the_plain_anneal(self, rng, on_numpy):
        """No ICE draws and one batch: the start and the sweep of the batch
        call are the NumPy path's plain anneal, bit for bit, generators
        included, and the batch call with no ICE model at all."""
        sampler = embedded_pack(3, True, rng)
        plain_rngs = [np.random.default_rng(40 + b) for b in range(3)]
        with on_numpy():
            plain = sampler.anneal(TEMPERATURES, 50, plain_rngs)
        expected = (plain.tobytes(), [rng.bit_generator.state
                                      for rng in plain_rngs])
        assert self.anneal(sampler, 3, batch=50, ice=None)[:2] == expected
        work = sampler.last_sweep_work
        assert self.anneal(sampler, 3, batch=50, ice=ICEModel.disabled()) \
            == (*expected, work)


def pcg64_words(state):
    """``{state high, state low, inc high, inc low}`` of a PCG64 state."""
    mask = 2 ** 64 - 1
    return np.array([state["state"] >> 64, state["state"] & mask,
                     state["inc"] >> 64, state["inc"] & mask], np.uint64)


class TestPcg64:
    """The lane halves' own PCG64: C's step and jump-ahead against NumPy's
    ``random()`` stream and ``PCG64.advance``, from random states."""

    @pytest.mark.parametrize("seed", range(6))
    def test_step_and_jump_equal_numpy(self, seed):
        rng = np.random.default_rng(seed)
        for delta in (0, 1, 2, 1000, 2 ** 64 - 1,
                      *rng.integers(2 ** 63, size=4, dtype=np.uint64)):
            bit_generator = np.random.PCG64()
            bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": int(rng.integers(2 ** 63)) << 65
                          | int(rng.integers(2 ** 63)),
                          "inc": int(rng.integers(2 ** 63)) << 64
                          | int(rng.integers(2 ** 63)) << 1 | 1}}
            words = pcg64_words(bit_generator.state["state"])
            out = np.empty(7)
            backends._load_cext().pcg64_probe(
                backends._ptr(words), int(delta), out.size,
                backends._ptr(out))
            bit_generator.advance(int(delta))
            assert (out.tolist()
                    == np.random.Generator(bit_generator).random(7).tolist())
            assert (words.tolist()
                    == pcg64_words(bit_generator.state["state"]).tolist())


class TestLaneHalves:
    """One block on two threads: a single-block sequential call's replicas
    split at a cut into two lane halves, each drawing from its own copy of
    the block's PCG64 jumped to its draw offsets.  Together they are the
    one-thread call — spins, :class:`SweepWork` and the generator's whole
    state dict — wherever the cut falls; every other call takes the
    one-thread path."""

    @staticmethod
    def anneal(sampler, replicas, buffered=False):
        rng = np.random.default_rng(3)
        if buffered:  # 1 + 48 * replicas words: half of one stays buffered
            rng.integers(0, 2 ** 32, dtype=np.uint32)
        spins = sampler.anneal(TEMPERATURES, replicas, rng)
        return (spins.tobytes(), sampler.last_sweep_work,
                rng.bit_generator.state)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("with_clusters", [True, False])
    @pytest.mark.parametrize("replicas", [8, 9, 25, 200])
    def test_halves_are_the_one_thread_call(self, monkeypatch,
                                            every_block_splits, replicas,
                                            with_clusters, buffered):
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters if with_clusters
                               else None)
        monkeypatch.setattr(backends, "_USABLE_CPUS", 1)
        expected = self.anneal(sampler, replicas, buffered)
        assert expected[2]["has_uint32"] == buffered
        monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
        for cut in sorted({1, 4, backends._lane_cut(replicas),
                           replicas // 2 + 1, replicas - 1}):
            read = []  # the route is rebuilt at a patched cut
            monkeypatch.setattr(backends, "_lane_cut",
                                lambda _, cut=cut: read.append(cut) or cut)
            splits = every_block_splits["splits"]
            assert self.anneal(sampler, replicas, buffered) == expected, cut
            assert every_block_splits["splits"] == splits + 1
            assert read, cut

    @pytest.mark.parametrize("case", ["PCG64DXSM", "MT19937", "Philox",
                                      "SFC64", "one CPU", "below the gate"])
    def test_every_other_call_is_one_thread(self, monkeypatch,
                                            every_block_splits, case):
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters)
        bit_generator = getattr(np.random, case, np.random.PCG64)
        if case == "one CPU":
            monkeypatch.setattr(backends, "_USABLE_CPUS", 1)
        if case == "below the gate":
            monkeypatch.setattr(backends, "_SPLIT_SPINS",
                                REPLICAS * ising.num_variables)
        counts = dict(every_block_splits)
        monkeypatch.setattr(backends, "_lane_half_call", None)  # not called
        spins = sampler.anneal(TEMPERATURES, REPLICAS,
                               np.random.Generator(bit_generator(4)))
        assert every_block_splits == counts
        monkeypatch.setattr(backends, "_USABLE_CPUS", 1)
        np.testing.assert_array_equal(
            spins, sampler.anneal(TEMPERATURES, REPLICAS,
                                  np.random.Generator(bit_generator(4))))

    def test_a_busy_helper_means_a_decline(self, monkeypatch,
                                           every_block_splits):
        """The helper pool's one thread is held on an Event: the caller
        finds no helper at its first handshake, takes the call whole and
        gives the one-thread bits; the late helper, once free, returns at
        once."""
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(backends, "_STALL_BUDGET", 0)
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters)
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setitem(backends._HELPERS, "pool", pool)
            release = threading.Event()
            held = pool.submit(release.wait)
            declines = every_block_splits["declines"]
            got = self.anneal(sampler, REPLICAS)
            assert every_block_splits["declines"] == declines + 1
            release.set()
            held.result()
            monkeypatch.setattr(backends, "_USABLE_CPUS", 1)
            assert got == self.anneal(sampler, REPLICAS)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="threads cannot be pinned to one CPU here")
    def test_a_stalled_split_is_made_again_on_one_thread(
            self, monkeypatch, every_block_splits):
        """Both halves on one CPU: every handshake yields to the other
        half, which spins first, so a 3 ms budget lets the helper claim its
        half but runs out within a few dozen moves.  The split aborts,
        neither half writes back, and the one-thread call gives the bits."""
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(backends, "_STALL_BUDGET", 3_000_000)
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters)
        mask = os.sched_getaffinity(0)
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setitem(backends._HELPERS, "pool", pool)
            pool.submit(os.sched_setaffinity, 0, {min(mask)}).result()
            os.sched_setaffinity(0, {min(mask)})
            try:
                stalls = every_block_splits["stalls"]
                got = self.anneal(sampler, REPLICAS)
            finally:
                os.sched_setaffinity(0, mask)
            assert every_block_splits["stalls"] == stalls + 1
        monkeypatch.setattr(backends, "_USABLE_CPUS", 1)
        assert got == self.anneal(sampler, REPLICAS)

    def test_stalls_stand_calls_down(self, monkeypatch, every_block_splits):
        """A stall (an aborted split) or a decline right after another
        stands the next eligible calls down, four times as many each time,
        until four clean splits in a row."""
        monkeypatch.setattr(backends, "_STAND_DOWN_CALLS", (2, 32))
        monkeypatch.setitem(backends._STALL, "rest", 2)
        stall, decline, clean = (backends._ABORTED, backends._WHOLE,
                                 backends._COMMITTED)
        for outcome, resting in [
                (stall, 0), (clean, 0), (stall, 0), (decline, 2), (stall, 8),
                (decline, 32), (stall, 32), (clean, 0), (stall, 0),
                (decline, 32), (clean, 0), (clean, 0), (clean, 0),
                (clean, 0), (stall, 0), (decline, 2)]:
            every_block_splits["resting"] = 0
            backends._note_split(outcome)
            assert every_block_splits["resting"] == resting, outcome
        # Standing down: the one-thread call, counted, until the rest is up.
        ising, clusters = embedded_bpsk()
        sampler = IsingSampler(ising, clusters=clusters)
        every_block_splits["resting"] = 2
        counts = dict(every_block_splits)
        outcomes = [self.anneal(sampler, REPLICAS) for _ in range(3)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert every_block_splits["stand_downs"] == counts["stand_downs"] + 2
        assert every_block_splits["splits"] == counts["splits"] + 1
        assert every_block_splits["resting"] == 0


def patterned_reads(rng, problems, reads, variables, patterns):
    """``(problems, reads, variables)`` spins, problem *b*'s drawn from
    ``patterns[b]`` patterns: runs of every length, ties of every position
    in the sort."""
    pools = [rng.choice(np.array([-1, 1], dtype=np.int8),
                        size=(count, variables)) for count in patterns]
    return np.stack([pool[rng.integers(0, len(pool), size=reads)]
                     for pool in pools])


def read_out_problem(out, b):
    """Problem *b*'s ``(first, occurrences, distinct spins, product)`` of
    a :class:`backends.PackReadOut`."""
    _, reads, size = out.values.shape
    count = int(out.found[b])
    first = out.first[b * reads:b * reads + count]
    product = out.products[size * reads * b:size * (reads * b + count)]
    return (first, out.occurrences[b * reads:b * reads + count],
            out.values.reshape(-1, size)[first], product.reshape(size, count))


class TestReadOutProducts:
    """``A_b @ D_b.T`` of every problem's distinct reads, as the read-out
    (``pack_read_out``, which a machine pack's batch call runs inline)
    leaves it, against scipy's CSR product — the reference
    ``aggregate_pack`` falls back to without a compiler — as bytes: same
    accumulation order, same C-contiguous ``(N, K_b)`` layout, hence the
    same energy contraction."""

    @staticmethod
    def all_pairs(size):
        return tuple((i, j) for i in range(size) for j in range(i + 1, size))

    def structures(self):
        embedded, _ = embedded_bpsk()
        yield from ((size, self.all_pairs(size)) for size in (6, 8, 24, 48))
        yield embedded.num_variables, embedded.coupling_keys  # sparse
        yield 5, ()                                           # no couplings

    @pytest.mark.parametrize("problems", [1, 16])
    @pytest.mark.parametrize("with_zero", [False, True])
    def test_equals_scipy_as_bytes(self, problems, with_zero):
        rng = np.random.default_rng(problems + with_zero)
        for size, keys in self.structures():
            template = symmetric_csr_template(size, keys)
            values = rng.normal(size=(problems, len(keys)))
            if with_zero and keys:
                values[::2, rng.integers(len(keys))] = 0.0
            # K_b from 1 or 2 patterns up to 50 (a one-problem pack: 50).
            raw = patterned_reads(rng, problems, 50, size,
                                  np.resize([50, 1, 2], problems))
            out = backends.read_out(template, raw, values)
            for b in range(problems):
                *_, rows, product = read_out_problem(out, b)
                rows = rows.astype(float)
                expected = sparse.csr_matrix(
                    (values[b][template.edges], template.indices,
                     template.indptr), shape=(size, size)) @ rows.T
                assert product.dtype == expected.dtype == np.float64
                assert product.shape == expected.shape
                assert product.flags.c_contiguous
                assert product.tobytes() == expected.tobytes()
                assert (np.einsum("ki,ik->k", rows, product).tobytes()
                        == np.einsum("ki,ik->k", rows, expected).tobytes())

    def test_shapes_are_checked_before_c_sees_a_pointer(self):
        template = symmetric_csr_template(4, self.all_pairs(4))
        values = np.ones((2, 6))
        spins = np.ones((2, 3, 4), dtype=np.int8)
        for bad in [(spins, values[:, :-1]),             # not the template's
                    (spins[:, :, :3], values),           # wrong width
                    (spins[:1], values),                 # one problem short
                    (spins[0], values)]:                 # not a pack
            with pytest.raises(AnnealerError):
                backends.read_out(template, *bad)


class TestDistinctReads:
    """Every problem's distinct reads as the read-out leaves them, against
    ``np.unique(axis=0, return_index=True, return_counts=True)`` per
    problem: the same order, the first occurrence of each, its count."""

    @pytest.mark.parametrize("variables", [1, 2, 6, 63])
    @pytest.mark.parametrize("problems,reads", [(1, 1), (1, 50), (16, 25),
                                                (3, 200)])
    def test_equals_np_unique(self, variables, problems, reads):
        rng = np.random.default_rng(variables * reads + problems)
        raw = patterned_reads(rng, problems, reads, variables, [7] * problems)
        out = backends.read_out(symmetric_csr_template(variables, ()), raw,
                                np.empty((problems, 0)))
        assert out.first.dtype == out.occurrences.dtype == np.int64
        for b in range(problems):
            first, occurrences, distinct, _ = read_out_problem(out, b)
            rows, index, count = np.unique(raw[b], axis=0, return_index=True,
                                           return_counts=True)
            assert first.tolist() == (b * reads + index).tolist()
            assert occurrences.tolist() == count.tolist()
            assert distinct.tobytes() == rows.tobytes()

    def test_a_read_that_is_not_all_spins_is_refused(self):
        template = symmetric_csr_template(4, ())
        raw = np.ones((2, 5, 4), dtype=np.int8)
        assert backends.read_out(template, raw, np.empty((2, 0))) is not None
        raw[1, 3, 2] = 0
        assert backends.read_out(template, raw, np.empty((2, 0))) is None
        with pytest.raises(AnnealerError):
            backends.read_out(symmetric_csr_template(64, ()),
                              np.ones((1, 5, 64), dtype=np.int8),
                              np.empty((1, 0)))


def test_c_source_compiles_without_warnings(tmp_path):
    """``-Wall -Wextra -Werror``: an argument an entry point stopped using
    must leave its signature (and the ctypes table), not linger unread."""
    source = tmp_path / "metropolis.c"
    source.write_text(backends._C_SOURCE, encoding="utf-8")
    empty = tmp_path / "empty.c"
    empty.write_text("", encoding="utf-8")

    # -U__SSE2__ selects the source's portable (no-intrinsics) branch,
    # -U__SIZEOF_INT128__ the one without 128-bit integers (no lane halves).
    builds = [[], ["-U__SSE2__"], ["-U__SIZEOF_INT128__"]]

    def check(compiler, flags, path):
        try:
            return subprocess.run(
                [compiler, "-O2", "-Wall", "-Wextra", "-Werror",
                 "-fsyntax-only", *flags, str(path)],
                capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            return None

    for compiler in backends._COMPILERS:
        if check(compiler, [], empty) is None:
            continue
        # The one build _compile_cext makes, with and without the vector
        # Philox fills and the lane halves.
        for flags in builds:
            if check(compiler, flags, empty).returncode == 0:
                result = check(compiler, flags, source)
                assert result.returncode == 0, result.stderr
        return
    pytest.skip("no C compiler found")
