"""The pack pipeline of the annealer layer against its per-job oracle.

Inside ``QuantumAnnealerSimulator.run_batch`` a pack of same-structure
problems travels as one structure plan plus one ``(problems, E)`` value
matrix and one ``(problems, P)`` field matrix, and every stage — embed, ICE,
rebind, unembed, aggregate — is an array pass over them.  Before that, every
job's coefficients were rebuilt as a Python dict at every stage.  This file
keeps that per-job dict implementation as a test-local **oracle** (the way
``sample_reference`` keeps the scalar Metropolis loop) and pins the pack
stages to it row by row, bit for bit: programmed values, problem scale and
clip counts, unembedding reports, solution order / energies / counts, and
the state every generator is left in.  Every stage case runs twice
(``artefact``): through the C artefact's programming and read-out calls,
and through the NumPy passes a box without a compiler runs.

The second half guards the point of the exercise without a clock: on a warm
pack the pipeline constructs no per-job ``IsingModel``, scipy matrix or
coupling dict, marshals a handful of pointers per kernel call, asks the
kernel for exactly the work it asked for before, and reads the samples out
(distinct reads, best-solution decode, result assembly) without a per-job
``np.unique``, bit-array validation or validating result constructor.
"""

import multiprocessing
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

try:  # the seeded cases run without it (only CI's cran entry installs it)
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    given = None

from repro.annealer import backends
from repro.annealer import machine as machine_module
from repro.annealer.chimera import ChimeraGraph
from repro.annealer.embedded import (EmbeddedIsing, EmbeddingPlan,
                                     compile_settings, embed_ising,
                                     embed_pack)
from repro.annealer.embedding import Embedding, TriangleCliqueEmbedder
from repro.annealer.engine import BlockDiagonalSampler, IsingSampler
from repro.annealer.ice import ICEModel
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.annealer.schedule import AnnealSchedule
from repro.annealer.unembed import draw_ties, unembed_pack, unembed_samples
from repro.cran.jobs import DecodeJob
from repro.cran.scheduler import DecodeBatch
from repro.cran.workers import WorkerPool
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import AnnealerError
from repro.ising.model import IsingModel, IsingPack, symmetric_csr_template
from repro.ising.solver import aggregate_pack, aggregate_samples
from repro.mimo.system import MimoUplink
from repro.transform.reduction import MLToIsingReducer

from cluster_workloads import cancelling_ice

COUPLER_MAX = 1.0
FIELD_MIN, FIELD_MAX = -2.0, 2.0


# --------------------------------------------------------------------------- #
# The oracle: the per-job dict implementation the pack stages replaced
# --------------------------------------------------------------------------- #
def oracle_embed(ising, embedding, *, chain_strength, extended_range):
    """Appendix B, one job at a time, by the general accumulate-and-clip
    loop over dicts."""
    chain_coupling = -2.0 if extended_range else -1.0
    problem_scale = abs(chain_coupling) / chain_strength
    logical_couplings = dict(ising.couplings)
    largest_coupling = (max(abs(v) for v in logical_couplings.values())
                        if logical_couplings else 0.0)
    largest = (float(np.max(np.abs(ising.linear)))
               if ising.linear.size else 0.0)
    if logical_couplings:
        largest = max(largest, largest_coupling)
    reference = largest_coupling or largest
    if reference > 0:
        problem_scale /= reference
    scaled_linear = ising.linear * problem_scale
    scaled = {key: value * problem_scale
              for key, value in logical_couplings.items()}
    scaled = {key: value for key, value in scaled.items() if value != 0.0}

    num_logical = ising.num_variables
    qubit_order = tuple(sorted({qubit for index in range(num_logical)
                                for qubit in embedding.chains[index]}))
    position = {qubit: index for index, qubit in enumerate(qubit_order)}
    logical_of = [0] * len(qubit_order)
    for logical_index in range(num_logical):
        for qubit in embedding.chains[logical_index]:
            logical_of[position[qubit]] = logical_index
    linear = np.zeros(len(qubit_order))
    couplings = {}
    clipped = 0

    def add_coupling(qubit_a, qubit_b, value):
        nonlocal clipped
        a, b = position[qubit_a], position[qubit_b]
        key = (a, b) if a < b else (b, a)
        total = couplings.get(key, 0.0) + value
        if total < chain_coupling or total > COUPLER_MAX:
            clipped += 1
            total = float(np.clip(total, chain_coupling, COUPLER_MAX))
        couplings[key] = total

    for logical_index in range(num_logical):
        for edge in embedding.chain_edges[logical_index]:
            add_coupling(edge[0], edge[1], chain_coupling)
    for logical_index in range(num_logical):
        chain = embedding.chains[logical_index]
        share = scaled_linear[logical_index] / len(chain)
        for qubit in chain:
            linear[position[qubit]] += share
    for (i, j), value in scaled.items():
        coupler = embedding.logical_couplers.get((i, j))
        if coupler is None:
            coupler = embedding.logical_couplers.get((j, i))
        add_coupling(coupler[0], coupler[1], value)

    clipped += int(np.count_nonzero(np.abs(linear) > FIELD_MAX))
    linear = np.clip(linear, FIELD_MIN, FIELD_MAX)
    couplings = {key: value for key, value in couplings.items()
                 if value != 0.0}
    chains = {logical: tuple(position[qubit] for qubit in chain)
              for logical, chain in embedding.chains.items()
              if logical < num_logical}
    return SimpleNamespace(linear=linear, couplings=couplings,
                           qubit_order=qubit_order,
                           logical_of=tuple(logical_of), chains=chains,
                           problem_scale=problem_scale, clipped=clipped)


def oracle_perturb(ice, linear, couplings, rng):
    """One ICE realisation of one job: fields, then couplings in dict
    order; an exact zero unprograms its coupler."""
    if not ice.enabled:
        return linear, couplings
    linear = linear + rng.normal(ice.linear_mean, ice.linear_std,
                                 size=linear.size)
    noise = rng.normal(ice.quadratic_mean, ice.quadratic_std,
                       size=len(couplings))
    perturbed = {key: value + shift
                 for (key, value), shift in zip(couplings.items(), noise)}
    return linear, {key: value for key, value in perturbed.items()
                    if value != 0.0}


def oracle_unembed(chains, physical, rng):
    """Majority vote of one job, ties drawn per logical index ascending."""
    num_logical = len(chains)
    physical = np.asarray(physical, dtype=np.int8)
    values = np.empty((physical.shape[0], num_logical), dtype=np.int8)
    broken = 0
    ties = 0
    spin_choices = np.array([-1, 1], dtype=np.int8)
    for logical_index in range(num_logical):
        members = list(chains[logical_index])
        sums = physical[:, members].astype(np.int64).sum(axis=1)
        broken += int(np.count_nonzero(np.abs(sums) != len(members)))
        column = np.sign(sums).astype(np.int8)
        tie_mask = column == 0
        num_ties = int(np.count_nonzero(tie_mask))
        if num_ties:
            ties += num_ties
            column[tie_mask] = rng.choice(spin_choices, size=num_ties)
        values[:, logical_index] = column
    return values, (broken, ties, physical.shape[0] * num_logical)


def oracle_aggregate(ising, raw):
    """Distinct reads in ``np.unique(axis=0)`` order, energies through a
    COO-assembled CSR built for this one job, stably sorted by energy."""
    raw = np.asarray(raw, dtype=np.int8)
    distinct, counts = np.unique(raw, axis=0, return_counts=True)
    n = ising.num_variables
    rows, cols, data = [], [], []
    for (i, j), value in ising.couplings.items():
        rows += [i, j]
        cols += [j, i]
        data += [value, value]
    operator = sparse.coo_matrix((data, (rows, cols)), shape=(n, n),
                                 dtype=np.float64).tocsr()
    operator.sort_indices()
    spins = np.asarray(distinct, dtype=float)
    energies = (0.5 * np.einsum("ki,ik->k", spins, operator @ spins.T)
                + spins @ ising.linear + ising.offset)
    order = np.argsort(energies, kind="stable")
    return distinct[order], energies[order], counts[order]


def oracle_run(machine, ising, parameters, rng, embedding=None,
               perturb=oracle_perturb):
    """A whole QA job through the oracle stages (one-block samplers built
    by the validating constructor for the anneals)."""
    if embedding is None:
        embedding = machine.embedding_for(ising.num_variables)
    embedded = oracle_embed(ising, embedding,
                            chain_strength=parameters.chain_strength,
                            extended_range=parameters.extended_range)
    temperatures = parameters.schedule.temperature_profile(
        sweeps_per_us=machine.sweeps_per_us, hot=machine.hot_temperature,
        cold=machine.cold_temperature)
    clusters = [np.asarray(chain, dtype=np.intp)
                for chain in embedded.chains.values()]
    num_physical = len(embedded.qubit_order)
    physical = np.empty((parameters.num_anneals, num_physical), dtype=np.int8)
    produced = 0
    while produced < parameters.num_anneals:
        batch = min(machine.ice_batch_size, parameters.num_anneals - produced)
        linear, couplings = perturb(machine.ice, embedded.linear,
                                    embedded.couplings, rng)
        problem = IsingModel(num_variables=num_physical, linear=linear,
                             couplings=couplings)
        physical[produced:produced + batch] = IsingSampler(
            problem, clusters=clusters).anneal(
                temperatures, batch, random_state=rng)
        produced += batch
    logical, report = oracle_unembed(embedded.chains, physical, rng)
    samples, energies, counts = oracle_aggregate(ising, logical)
    return SimpleNamespace(embedded=embedded, report=report, samples=samples,
                           energies=energies, counts=counts)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def qpsk_pack(count, seed=20, num_users=3, constellation="QPSK"):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    rng = np.random.default_rng(seed)
    reducer = MLToIsingReducer()
    return [reducer.reduce(link.transmit(snr_db=15.0, random_state=rng)).ising
            for _ in range(count)]


def same_structure_problems(count, num_variables, seed, density=1.0,
                            scale=1.0):
    rng = np.random.default_rng(seed)
    keys = [(i, j) for i in range(num_variables)
            for j in range(i + 1, num_variables) if rng.random() <= density]
    return [IsingModel(num_variables=num_variables,
                       linear=scale * rng.normal(size=num_variables),
                       couplings={key: scale * float(rng.normal())
                                  for key in keys},
                       offset=float(rng.normal()))
            for _ in range(count)]


def ideal_machine(**options):
    return QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4), **options)


def clique_embedding(num_logical):
    return TriangleCliqueEmbedder(ChimeraGraph.ideal(4, 4)).embed(num_logical)


def overlapping_embedding():
    """Three logical variables whose chains share qubit 1 and whose couplings
    (0, 2) and (1, 2) land on one physical coupler: the accumulate-and-clip
    case no plan can flatten."""
    return Embedding(
        chains={0: (0, 1), 1: (1, 2), 2: (3, 4)},
        chain_edges={0: ((0, 1),), 1: ((1, 2),), 2: ((3, 4),)},
        logical_couplers={(0, 1): (0, 2), (0, 2): (1, 3), (1, 2): (1, 3)})


def assert_embedded_rows_equal_oracle(packed, problems, embedding, **options):
    assert len(packed) == len(problems)
    for row, problem in zip(packed, problems):
        expected = oracle_embed(problem, embedding, **options)
        assert row.ising.couplings == expected.couplings
        assert list(row.ising.couplings) == list(expected.couplings)
        np.testing.assert_array_equal(row.ising.linear, expected.linear)
        assert row.ising.offset == 0.0
        assert row.problem_scale == expected.problem_scale
        assert row.clipped_coefficients == expected.clipped
        assert row.qubit_order == expected.qubit_order
        assert row.logical_of == expected.logical_of
        assert row.compact_chains == expected.chains
        assert row.num_physical == len(expected.qubit_order)
    assert_served_programming_equals(packed, problems, embedding, **options)


def serve(problems, embedding, *, chain_strength, extended_range):
    """*problems* programmed by the batch call (a served anneal of a few
    sweeps): the sampler's bound ``(fields, couplers)``, or ``None`` when
    the call refused the pack (a coupling that scales to ``0.0``)."""
    logical = IsingPack.stack(problems)
    plan = EmbeddingPlan(embedding, logical.num_variables, logical.keys)
    blocks, size = len(logical), plan.num_physical
    sampler = BlockDiagonalSampler(
        IsingPack(size, plan.physical_keys, np.zeros((blocks, size)),
                  np.ones((blocks, len(plan.physical_keys))),
                  np.zeros(blocks)), clusters=plan.clusters)
    out = sampler.anneal(
        np.linspace(2.0, 0.1, 3), 5,
        [np.random.default_rng(b) for b in range(blocks)], ice=ICEModel(),
        program=(logical, symmetric_csr_template(logical.num_variables,
                                                 logical.keys),
                 plan, *compile_settings(chain_strength, extended_range)))
    if out is None:
        return None
    return sampler.isings.linear, sampler.isings.values


def assert_served_programming_equals(packed, problems, embedding, **options):
    """On the C artefact, the batch call programs a collision-free pack as
    the NumPy passes do (*packed*, ``embed_pack``'s), byte for byte — and
    refuses it where they drop a coupling that scaled to ``0.0``."""
    logical = IsingPack.stack(problems)
    plan = None if logical is None else EmbeddingPlan(
        embedding, logical.num_variables, logical.keys)
    if not backends.cext_available() or plan is None or not plan.direct:
        return
    served = serve(problems, embedding, **options)
    if packed is None or packed.problems.keys != plan.physical_keys:
        assert served is None
        return
    for got, want in zip(served, (packed.problems.linear,
                                  packed.problems.values)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def c_vote(plan, physical, count):
    """The batch call's vote of the ``(samples, count * P)`` *physical*,
    through its read-out export: the ``(count, samples, L)`` chain signs
    (``0`` on a tie) and the broken chains and ties per problem."""
    out = backends.PackReadOut(
        symmetric_csr_template(plan.num_logical, ()),
        np.empty((count, physical.shape[0], plan.num_logical),
                 dtype=np.int8), plan)
    tied = out.read(np.ascontiguousarray(physical, dtype=np.int8))
    assert tied == int(out.counts[1].any())
    return out.values, out.counts[0], out.counts[1]


def assert_run_equals_oracle(result, expected):
    np.testing.assert_array_equal(result.solutions.samples, expected.samples)
    np.testing.assert_array_equal(result.solutions.energies,
                                  expected.energies)
    np.testing.assert_array_equal(result.solutions.num_occurrences,
                                  expected.counts)
    broken, _, total = expected.report
    assert result.broken_chain_fraction == broken / total


# --------------------------------------------------------------------------- #
# Stage by stage
# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("artefact")
class TestEmbedStage:
    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("extended_range", [False, True])
    def test_rows_equal_oracle(self, count, extended_range):
        problems = qpsk_pack(count)
        embedding = clique_embedding(6)
        options = dict(chain_strength=4.0, extended_range=extended_range)
        packed = embed_pack(problems, embedding, **options)
        assert packed.plan.direct
        assert_embedded_rows_equal_oracle(packed, problems, embedding,
                                          **options)

    def test_forced_clipping_counts(self):
        """|J_F| < 1 programs couplings beyond the coupler range and large
        fields beyond the field range: both kinds of clip are counted."""
        problems = same_structure_problems(4, 6, seed=3)
        problems[1] = IsingModel(num_variables=6,
                                 linear=40.0 * problems[1].linear,
                                 couplings=problems[1].couplings)
        embedding = clique_embedding(6)
        options = dict(chain_strength=0.4, extended_range=False)
        packed = embed_pack(problems, embedding, **options)
        assert_embedded_rows_equal_oracle(packed, problems, embedding,
                                          **options)
        assert min(row.clipped_coefficients for row in packed) > 0
        assert (packed[1].clipped_coefficients
                > packed[0].clipped_coefficients)

    def test_fields_only(self):
        embedding = clique_embedding(4)
        fields_only = [IsingModel(num_variables=4,
                                  linear=np.array([0.5, -3.0, 0.0, 1.0]))]
        packed = embed_pack(fields_only, embedding, chain_strength=2.0)
        assert_embedded_rows_equal_oracle(
            packed, fields_only, embedding, chain_strength=2.0,
            extended_range=False)

    def test_auto_range_is_scale_free(self):
        """Every pack is auto-ranged: problems scaled by a power of two
        program the same coefficients, bit for bit, at a scale that much
        smaller."""
        problems = same_structure_problems(3, 6, seed=5)
        scaled = [IsingModel(num_variables=6, linear=4.0 * problem.linear,
                             couplings={key: 4.0 * value for key, value
                                        in problem.couplings.items()})
                  for problem in problems]
        embedding = clique_embedding(6)
        options = dict(chain_strength=3.0, extended_range=True)
        packed = embed_pack(problems, embedding, **options)
        packed_scaled = embed_pack(scaled, embedding, **options)
        assert_embedded_rows_equal_oracle(packed_scaled, scaled, embedding,
                                          **options)
        for row, row_scaled in zip(packed, packed_scaled):
            assert row_scaled.ising.couplings == row.ising.couplings
            assert (row_scaled.ising.linear.tobytes()
                    == row.ising.linear.tobytes())
            assert row_scaled.problem_scale == row.problem_scale / 4.0

    def test_overlapping_chains_keep_accumulate_and_clip(self):
        embedding = overlapping_embedding()
        problems = same_structure_problems(3, 3, seed=8)
        options = dict(chain_strength=1.5, extended_range=True)
        packed = embed_pack(problems, embedding, **options)
        assert not packed.plan.direct
        assert_embedded_rows_equal_oracle(packed, problems, embedding,
                                          **options)

    def test_underflowed_coupling_unprograms_its_coupler(self):
        """A coupling the auto-ranging factor underflows to zero is not
        programmed: a lone problem loses the key, a pack stops being one."""
        embedding = clique_embedding(3)
        tiny = IsingModel(num_variables=3, linear=np.zeros(3),
                          couplings={(0, 1): 1e300, (0, 2): 1e-30,
                                     (1, 2): -2e299})
        lone = embed_pack([tiny], embedding, chain_strength=4.0)
        assert_embedded_rows_equal_oracle(
            lone, [tiny], embedding, chain_strength=4.0,
            extended_range=False)
        assert len(lone[0].ising.couplings) == 3 + 2  # chains + 2 of 3
        healthy = IsingModel(num_variables=3, linear=np.zeros(3),
                             couplings={(0, 1): 1.0, (0, 2): 0.5,
                                        (1, 2): -1.0})
        assert embed_pack([healthy, tiny], embedding,
                          chain_strength=4.0) is None
        assert_served_programming_equals(None, [healthy, tiny], embedding,
                                         chain_strength=4.0,
                                         extended_range=False)

    def test_mixed_structures_are_not_a_pack(self):
        embedding = clique_embedding(4)
        dense = same_structure_problems(1, 4, seed=1)[0]
        sparse_one = same_structure_problems(1, 4, seed=2, density=0.4)[0]
        assert embed_pack([dense, sparse_one], embedding,
                          chain_strength=4.0) is None

    def test_embed_ising_is_the_pack_of_one(self):
        problems = qpsk_pack(3)
        embedding = clique_embedding(6)
        packed = embed_pack(problems, embedding, chain_strength=4.0,
                            extended_range=True)
        for row, problem in zip(packed, problems):
            alone = embed_ising(problem, embedding, chain_strength=4.0,
                                extended_range=True)
            assert alone.ising.couplings == row.ising.couplings
            np.testing.assert_array_equal(alone.ising.linear,
                                          row.ising.linear)
            assert alone.problem_scale == row.problem_scale

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_packs_equal_oracle_through_ice(self, seed):
        rng = np.random.default_rng(seed)
        check_random_pack_through_ice(
            num_variables=int(rng.integers(2, 8)),
            count=int(rng.integers(1, 5)),
            density=float(rng.uniform(0.3, 1.0)),
            magnitude=float(rng.choice([1e-12, 1e-3, 1.0, 50.0, 1e9])),
            chain_strength=float(rng.choice([0.3, 1.0, 4.0, 9.5])),
            extended_range=bool(rng.integers(0, 2)), seed=seed)


def check_random_pack_through_ice(num_variables, count, density, magnitude,
                                  chain_strength, extended_range, seed):
    """Embed a random same-structure pack and draw two ICE batches off the
    same generators: rows, then generator states, equal the oracle's."""
    problems = same_structure_problems(count, num_variables, seed,
                                       density=density, scale=magnitude)
    embedding = clique_embedding(num_variables)
    options = dict(chain_strength=chain_strength,
                   extended_range=extended_range)
    packed = embed_pack(problems, embedding, **options)
    assert_embedded_rows_equal_oracle(packed, problems, embedding, **options)
    ice = ICEModel()
    pack_rngs = [np.random.default_rng(seed + b) for b in range(count)]
    oracle_rngs = [np.random.default_rng(seed + b) for b in range(count)]
    for _ in range(2):
        programmed = ice.perturb_pack(packed.problems, pack_rngs)
        for b, rng in enumerate(oracle_rngs):
            expected = oracle_embed(problems[b], embedding, **options)
            linear, couplings = oracle_perturb(
                ice, expected.linear, expected.couplings, rng)
            assert programmed[b].couplings == couplings
            np.testing.assert_array_equal(programmed[b].linear, linear)
    for a, b in zip(pack_rngs, oracle_rngs):
        assert a.bit_generator.state == b.bit_generator.state


if given is not None:
    @settings(max_examples=60, deadline=None)
    @given(
        num_variables=st.integers(2, 7),
        count=st.integers(1, 4),
        density=st.floats(0.3, 1.0),
        magnitude=st.sampled_from([1e-12, 1e-3, 1.0, 50.0, 1e9]),
        chain_strength=st.sampled_from([0.3, 1.0, 4.0, 9.5]),
        extended_range=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    def test_random_packs_equal_oracle_through_ice(**case):
        check_random_pack_through_ice(**case)


@pytest.mark.skipif(not backends.cext_available(),
                    reason="no C compiler for the cext backend")
class TestProgrammingPathsAgree:
    """Coefficients the dict oracle spells differently from NumPy —
    non-finite and signed-zero ones — programmed by the batch call and by
    the NumPy passes: the same fields and couplers, or a refusal from
    both, as bytes."""

    @staticmethod
    def problems(case):
        rows = []
        for b, problem in enumerate(same_structure_problems(3, 4, seed=14)):
            linear, couplings = problem.linear.copy(), problem.couplings
            first = next(iter(couplings))
            if case in ("nan coupling", "inf coupling") and b == 1:
                couplings = {**couplings, first: float(case[:3])}
            if case in ("nan field", "inf field") and b == 1:
                linear[2] = float(case[:3])
            if case == "signed zeros":
                linear[::2] = -0.0
                linear[1] = 0.0
            if case == "no couplings":
                couplings = {}
                linear *= b  # problem 0 has no coefficient at all
            rows.append(IsingModel(num_variables=4, linear=linear,
                                   couplings=couplings))
        return rows

    @pytest.mark.parametrize("extended_range", [True, False])
    @pytest.mark.parametrize("case", [
        "nan coupling", "inf coupling", "nan field", "inf field",
        "signed zeros", "no couplings"])
    def test_awkward_coefficients_program_alike(self, case, extended_range,
                                                on_numpy):
        problems = self.problems(case)
        embedding = clique_embedding(4)
        options = dict(chain_strength=0.7, extended_range=extended_range)
        with np.errstate(all="ignore"):
            in_c = serve(problems, embedding, **options)
            with on_numpy():
                in_numpy = embed_pack(problems, embedding, **options)
        assert (in_c is None) == (in_numpy is None)
        if in_c is None:
            return
        for got, want in zip(in_c, (in_numpy.problems.linear,
                                    in_numpy.problems.values)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


class TestIceStage:
    def test_perturb_is_the_pack_of_one(self):
        problem = embed_ising(qpsk_pack(1)[0], clique_embedding(6),
                              chain_strength=4.0).ising
        ice = ICEModel()
        alone = ice.perturb(problem, np.random.default_rng(4))
        linear, couplings = oracle_perturb(
            ice, problem.linear, problem.couplings, np.random.default_rng(4))
        assert alone.couplings == couplings
        assert list(alone.couplings) == list(couplings)
        np.testing.assert_array_equal(alone.linear, linear)
        assert alone.offset == problem.offset

    def test_disabled_is_identity(self):
        problems = IsingPack.stack(qpsk_pack(2))
        assert ICEModel.disabled().perturb_pack(problems, [None, None]) \
            is problems

    def test_cancelled_coupling_shows_as_a_zero_and_drops_the_key(self):
        problems = IsingPack.stack(same_structure_problems(2, 4, seed=6))
        programmed = ICEModel().perturb_pack(
            problems, [np.random.default_rng(b) for b in range(2)])
        assert programmed.values.all()
        programmed.values[1, 2] = 0.0
        assert not programmed.values.all()
        assert programmed.keys[2] not in programmed[1].couplings
        assert len(programmed[0].couplings) == len(programmed.keys)


@pytest.mark.usefixtures("artefact")
class TestUnembedStage:
    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_forced_ties_and_reports_equal_oracle(self, count):
        """Two-qubit chains under uniform random spins: half the chains are
        broken and every broken one is a tie, so the per-job tie streams
        are exercised hard."""
        problems = qpsk_pack(count, num_users=2)
        packed = embed_pack(problems, clique_embedding(4), chain_strength=4.0)
        num_physical = packed.plan.num_physical
        assert {len(chain) for chain in packed.plan.chains.values()} == {2}
        spins = np.random.default_rng(1).choice(
            np.array([-1, 1], dtype=np.int8),
            size=(30, count * num_physical))
        pack_rngs = [np.random.default_rng(50 + b) for b in range(count)]
        logical, broken = unembed_pack(packed.plan, spins, pack_rngs)
        assert logical.shape == (count, 30, 4)
        assert (broken.dtype, broken.shape) == (np.float64, (count,))
        if backends.cext_available():  # the batch call's vote, ties drawn
            voted, voted_broken, ties = c_vote(packed.plan, spins, count)
            assert ties.all()
            draw_ties(voted, [np.random.default_rng(50 + b)
                              for b in range(count)])
            assert voted.tobytes() == logical.tobytes()
            assert (voted_broken / (30 * 4)).tobytes() == broken.tobytes()
            with pytest.raises(AnnealerError):  # checked before C sees it
                c_vote(packed.plan, spins[:, 1:], count)
        for b in range(count):
            rng = np.random.default_rng(50 + b)
            block = spins[:, b * num_physical:(b + 1) * num_physical]
            expected, (broken_count, ties, total) = oracle_unembed(
                packed.plan.chains, block, rng)
            np.testing.assert_array_equal(logical[b], expected)
            assert broken[b] == broken_count / total
            assert ties > 0
            assert (pack_rngs[b].bit_generator.state
                    == rng.bit_generator.state)
            alone, fraction = unembed_samples(packed[b], block,
                                              np.random.default_rng(50 + b))
            np.testing.assert_array_equal(alone, expected)
            assert type(fraction) is float
            assert fraction == broken[b]

    def test_a_copied_plan_votes_as_the_original(self):
        """A plan pickled to or from a process worker, or deep-copied,
        holds arrays of its own — the C calls take their addresses when a
        read-out is built over it — and votes as the original does."""
        packed = embed_pack(qpsk_pack(3, num_users=2), clique_embedding(4),
                            chain_strength=4.0)
        plan = packed.plan
        spins = np.random.default_rng(3).choice(
            np.array([-1, 1], dtype=np.int8), size=(40, 3 * plan.num_physical))
        expected, broken = unembed_pack(
            plan, spins, [np.random.default_rng(b) for b in range(3)])
        for copied in (pickle.loads(pickle.dumps(plan)), deepcopy(plan)):
            for name in ("logical_index", "chain_lengths", "chain_members",
                         "chain_bounds"):
                assert not np.shares_memory(getattr(copied, name),
                                            getattr(plan, name))
            logical, copied_broken = unembed_pack(
                copied, spins, [np.random.default_rng(b) for b in range(3)])
            assert logical.tobytes() == expected.tobytes()
            assert copied_broken.tobytes() == broken.tobytes()
            if backends.cext_available():  # the addresses the C vote reads
                for got, want in zip(c_vote(copied, spins, 3),
                                     c_vote(plan, spins, 3)):
                    assert got.tobytes() == want.tobytes()

    def test_overlapping_chains(self):
        packed = embed_pack(same_structure_problems(2, 3, seed=8),
                            overlapping_embedding(), chain_strength=2.0)
        spins = np.random.default_rng(2).choice(
            np.array([-1, 1], dtype=np.int8), size=(20, 2 * 5))
        logical, broken = unembed_pack(
            packed.plan, spins, [np.random.default_rng(b) for b in range(2)])
        for b in range(2):
            expected, (broken_count, _, total) = oracle_unembed(
                packed.plan.chains, spins[:, 5 * b:5 * b + 5],
                np.random.default_rng(b))
            np.testing.assert_array_equal(logical[b], expected)
            assert broken[b] == broken_count / total


@pytest.mark.usefixtures("artefact")
class TestAggregateStage:
    def _check(self, problems, raw):
        """The pack and the per-problem spelling against the oracle, as
        bytes (on each path, see ``artefact``)."""
        results = aggregate_pack(problems, raw)
        assert len(results) == len(problems)
        for problem, reads, result in zip(problems, raw, results):
            expected = oracle_aggregate(problem, reads)
            alone = aggregate_samples(problem, reads,
                                      operator=problem.coupling_operator())
            for got in (result, alone):
                for field, want in zip(
                        (got.samples, got.energies, got.num_occurrences),
                        expected):
                    assert (field.dtype, field.shape) == (want.dtype,
                                                          want.shape)
                    assert field.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_qpsk_packs_equal_oracle(self, count):
        problems = qpsk_pack(count)
        raw = np.random.default_rng(3).choice(
            np.array([-1, 1], dtype=np.int8), size=(count, 50, 6))
        self._check(problems, raw)

    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 6), ("QPSK", 3), ("16-QAM", 2)])
    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("reads", [1, 50])
    def test_modulations_pack_sizes_and_read_counts(self, constellation,
                                                    num_users, count, reads):
        problems = qpsk_pack(count, seed=21, num_users=num_users,
                             constellation=constellation)
        size = problems[0].num_variables
        raw = np.random.default_rng(6).choice(
            np.array([-1, 1], dtype=np.int8), size=(count, reads, size))
        raw[:, reads // 2:] = raw[:, :reads - reads // 2]  # repeats
        self._check(problems, raw)

    def test_exactly_tied_energies_keep_key_order(self):
        """Without fields a read and its negation have the same energy to
        the bit; the stable sort must leave each such pair in key order
        (all -1 sorts first), whatever order the reads arrived in."""
        problems = [IsingModel(num_variables=4, linear=np.zeros(4),
                               couplings=dict(problem.couplings))
                    for problem in same_structure_problems(3, 4, seed=12)]
        raw = np.random.default_rng(7).choice(
            np.array([-1, 1], dtype=np.int8), size=(3, 120, 4))
        self._check(problems, raw)
        for result in aggregate_pack(problems, raw):
            assert result.num_samples == 16
            keys = (result.samples > 0) @ (1 << np.arange(3, -1, -1))
            np.testing.assert_array_equal(result.energies[0::2],
                                          result.energies[1::2])
            assert (keys[0::2] < keys[1::2]).all()
            assert (keys[0::2] + keys[1::2] == 15).all()

    def test_non_spin_reads_take_the_row_unique_path(self):
        problems = same_structure_problems(2, 5, seed=13)
        raw = np.random.default_rng(8).integers(
            -1, 2, size=(2, 30, 5)).astype(np.int8)  # zeros included
        assert (raw == 0).any()
        self._check(problems, raw)

    def _few_wide_reads(self, size):
        problems = same_structure_problems(2, size, seed=9, density=0.2)
        rng = np.random.default_rng(4)
        base = rng.choice(np.array([-1, 1], dtype=np.int8),
                          size=(2, 6, size))
        raw = base[:, rng.integers(0, 6, size=40), :]  # repeats to collapse
        return problems, base, raw

    def test_sixty_four_variables_take_the_row_unique_path(self):
        problems, _, raw = self._few_wide_reads(64)
        self._check(problems, raw)
        assert aggregate_pack(problems, raw)[0].num_samples <= 6

    def test_sixty_three_variables_fill_the_integer_key(self):
        """The widest problem of the key path: reads that differ only in
        the first (bit 2**62) or only in the last variable."""
        problems, base, _ = self._few_wide_reads(63)
        base[:, 1] = base[:, 0]
        base[:, 1, 0] = -base[:, 0, 0]
        base[:, 2] = base[:, 0]
        base[:, 2, -1] = -base[:, 0, -1]
        raw = base[:, np.random.default_rng(5).integers(0, 6, size=40), :]
        self._check(problems, raw)
        assert aggregate_pack(problems, raw)[0].num_samples <= 6

    def test_near_tied_energies_keep_the_stable_order(self):
        """Couplings a few ulps apart make many distinct reads tie or
        almost tie: the energy order must still be the oracle's."""
        keys = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        problems = [
            IsingModel(num_variables=5, linear=np.zeros(5),
                       couplings={key: 1.0 + (b + 1) * e * 2.0 ** -52
                                  for e, key in enumerate(keys)})
            for b in range(3)]
        raw = np.random.default_rng(5).choice(
            np.array([-1, 1], dtype=np.int8), size=(3, 200, 5))
        self._check(problems, raw)
        energies = aggregate_pack(problems, raw)[0].energies
        assert np.min(np.diff(energies)) < 1e-12  # there are (near) ties


# --------------------------------------------------------------------------- #
# The whole run
# --------------------------------------------------------------------------- #
@pytest.mark.usefixtures("artefact")
class TestRunBatchEqualsOracle:
    @staticmethod
    def machine(**options):
        """Five sweeps an anneal: what is under test is the stages around
        the sweep (the kernel suites pin the sweep itself), and without a
        compiler every sweep here runs the reference loops."""
        return ideal_machine(sweeps_per_us=5.0, **options)

    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("cache", [0, 8])
    def test_pack_sizes_and_cache_modes(self, count, cache):
        problems = qpsk_pack(count)
        machine = self.machine(sampler_cache_size=cache, ice_batch_size=10)
        parameters = AnnealerParameters(num_anneals=25)
        for call in range(2):  # second call: warm sampler when cached
            pack_rngs = [np.random.default_rng(100 * call + b)
                         for b in range(count)]
            results = machine.run_batch(problems, parameters,
                                        random_states=pack_rngs)
            for b, (problem, result) in enumerate(zip(problems, results)):
                rng = np.random.default_rng(100 * call + b)
                assert_run_equals_oracle(
                    result, oracle_run(machine, problem, parameters, rng))
                assert (pack_rngs[b].bit_generator.state
                        == rng.bit_generator.state)
        expected_hits = 1 if cache else 0
        assert machine.sampler_cache_info()["hits"] == expected_hits

    def test_generators_end_where_serial_runs_leave_them(self):
        problems = qpsk_pack(5)
        parameters = AnnealerParameters(num_anneals=30)
        pack_rngs = [np.random.default_rng(b) for b in range(5)]
        packed = self.machine().run_batch(problems, parameters,
                                          random_states=pack_rngs)
        serial_machine = self.machine()
        for b, problem in enumerate(problems):
            rng = np.random.default_rng(b)
            serial = serial_machine.run(problem, parameters, random_state=rng)
            assert pack_rngs[b].bit_generator.state == rng.bit_generator.state
            np.testing.assert_array_equal(packed[b].solutions.samples,
                                          serial.solutions.samples)
            np.testing.assert_array_equal(packed[b].solutions.energies,
                                          serial.solutions.energies)

    def test_numpy_backend_rebinds_its_scipy_operators(self):
        """The reference loops read scipy operators refreshed from the same
        value matrix the compiled kernels gather from."""
        problems = qpsk_pack(3)
        machine = self.machine(ice_batch_size=5)
        parameters = AnnealerParameters(num_anneals=15)
        results = machine.run_batch(problems, parameters, random_state=2)
        rngs = np.random.default_rng(2).spawn(3)
        for problem, result, rng in zip(problems, results, rngs):
            assert_run_equals_oracle(
                result, oracle_run(machine, problem, parameters, rng))

    def test_overlapping_chain_embedding(self):
        embedding = overlapping_embedding()
        problems = same_structure_problems(3, 3, seed=8)
        machine = self.machine(ice_batch_size=6)
        parameters = AnnealerParameters(num_anneals=12, chain_strength=1.5)
        pack_rngs = [np.random.default_rng(b) for b in range(3)]
        results = machine.run_batch(problems, parameters,
                                    random_states=pack_rngs,
                                    embedding=embedding)
        for b, (problem, result) in enumerate(zip(problems, results)):
            rng = np.random.default_rng(b)
            assert_run_equals_oracle(
                result, oracle_run(machine, problem, parameters, rng,
                                   embedding=embedding))
            assert pack_rngs[b].bit_generator.state == rng.bit_generator.state

    def test_mixed_structures_are_served_problem_by_problem(self):
        dense = same_structure_problems(1, 4, seed=1)[0]
        sparse_one = same_structure_problems(1, 4, seed=2, density=0.4)[0]
        machine = self.machine()
        parameters = AnnealerParameters(num_anneals=10)
        results = machine.run_batch([dense, sparse_one, dense], parameters,
                                    random_states=[5, 6, 7])
        for problem, seed, result in zip([dense, sparse_one, dense],
                                         [5, 6, 7], results):
            assert_run_equals_oracle(
                result, oracle_run(machine, problem, parameters,
                                   np.random.default_rng(seed)))

    def test_cancelled_coupling_batch_equals_oracle(self, monkeypatch,
                                                    on_numpy):
        """The zero-coupling fallback: the oracle sees the same cancelled
        draw (its dict simply loses the key) and must agree bit for bit,
        through the per-problem batch and the packed ones around it.  The
        zero is patched into ``perturb_pack``, which the NumPy path draws
        ICE through (the C artefact draws it inside its batch call: the
        twins below)."""
        problems = qpsk_pack(3)
        parameters = AnnealerParameters(num_anneals=15)
        original = ICEModel.perturb_pack
        calls = []

        def perturb_pack(ice, pack, rngs):
            perturbed = original(ice, pack, rngs)
            calls.append(len(pack))
            if calls == [3, 3]:  # second batch of the packed run
                perturbed.values[2, 7] = 0.0
            return perturbed

        monkeypatch.setattr(ICEModel, "perturb_pack", perturb_pack)
        machine = self.machine(ice_batch_size=5)
        pack_rngs = [np.random.default_rng(b) for b in range(3)]
        with on_numpy():
            results = machine.run_batch(problems, parameters,
                                        random_states=pack_rngs)
        assert calls == [3] * 3
        monkeypatch.setattr(ICEModel, "perturb_pack", original)

        for b, (problem, result) in enumerate(zip(problems, results)):
            batches = []

            def perturb(ice, linear, couplings, rng, cancel=(b == 2)):
                linear, couplings = oracle_perturb(ice, linear, couplings,
                                                   rng)
                batches.append(None)
                if cancel and len(batches) == 2:
                    del couplings[list(couplings)[7]]
                return linear, couplings

            rng = np.random.default_rng(b)
            expected = oracle_run(machine, problem, parameters, rng,
                                  perturb=perturb)
            assert_run_equals_oracle(result, expected)
            assert pack_rngs[b].bit_generator.state == rng.bit_generator.state

    def cancelled_runs_equal_oracle(self, monkeypatch, count):
        """Run a *count*-problem pack whose last problem loses a coupler to
        the ICE draw in every batch (:func:`cancelling_ice`), hold each
        result and generator to the oracle (which drops the key), and
        return the one-problem samplers the run built."""
        problems = qpsk_pack(count)
        parameters = AnnealerParameters(num_anneals=15)
        machine = self.machine(ice_batch_size=5)
        machine.ice = cancelling_ice(machine, problems, parameters)
        builds = []
        original = IsingSampler.__init__
        monkeypatch.setattr(
            IsingSampler, "__init__", lambda sampler, *args, **kwargs:
            builds.append(1) or original(sampler, *args, **kwargs))
        pack_rngs = [np.random.default_rng(b) for b in range(count)]
        results = machine.run_batch(problems, parameters,
                                    random_states=pack_rngs)
        monkeypatch.setattr(IsingSampler, "__init__", original)
        for b, (problem, result) in enumerate(zip(problems, results)):
            rng = np.random.default_rng(b)
            assert_run_equals_oracle(
                result, oracle_run(machine, problem, parameters, rng))
            assert pack_rngs[b].bit_generator.state == rng.bit_generator.state
        return len(builds)

    def test_cancelled_coupling_in_the_batch_call_equals_oracle(
            self, monkeypatch):
        """The zero drawn, not patched in: on the C path the artefact's
        batch call finds it, hands each of the three batches to the
        per-problem anneal and resumes at the next."""
        assert self.cancelled_runs_equal_oracle(monkeypatch, 3) == 3 * 3

    def test_one_range_resumes_after_its_cancelled_batches(
            self, monkeypatch, every_block_splits):
        """Two block ranges of which only the second holds the cancelling
        problem: the first runs its three batches in one call, the second
        stops at every batch, anneals it problem by problem and resumes
        (twice: the last batch leaves nothing to resume).  Each of those
        problems' anneals is a one-block batch of its own, swept as lane
        halves: three calls of the one entry, its draws and start and one
        per half (the oracle's after the run are not counted).  The NumPy
        path has no ranges: every problem anneals alone."""
        calls = count_artefact_calls(monkeypatch)
        made = {"run": 0, "per problem": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                before = calls.get("pack_ice_batches", 0)
                try:
                    return function(*args, **kwargs)
                finally:
                    made[name] += calls.get("pack_ice_batches", 0) - before
            return counted

        for owner, method, name in [
                (QuantumAnnealerSimulator, "run_batch", "run"),
                (BlockDiagonalSampler, "_per_problem", "per problem")]:
            monkeypatch.setattr(owner, method,
                                counting(name, getattr(owner, method)))
        builds = self.cancelled_runs_equal_oracle(monkeypatch, 4)
        if backends.cext_available():
            assert (made["run"] - made["per problem"], builds) == (1 + 3,
                                                                   2 * 3)
            assert made["per problem"] == 3 * builds
        else:
            assert (calls, builds) == ({}, 4 * 3)

    @staticmethod
    def even_chain_pack():
        """Sixteen two-user BPSK problems — two logical variables, one
        coupling, chains of two, so ties are common; 16 x 4 qubits x 25
        replicas = 1600 spins, so the pack shards — the last the only one
        whose coupling is negative (:func:`cancelling_ice` can cancel it
        alone)."""
        problems = qpsk_pack(48, seed=22, num_users=2, constellation="BPSK")
        positive = [problem for problem in problems
                    if problem.coupling_values[0] > 0]
        negative = [problem for problem in problems
                    if problem.coupling_values[0] < 0]
        return positive[:15] + negative[:1]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("cancel", [False, True])
    def test_even_chains_tie_through_the_batch_call(self, monkeypatch, cpus,
                                                    cancel):
        """Tied chains on the served route: the batch call votes, finds
        ties and stops its read-out there; the draws run in Python in
        today's order and one read-out export finishes the pack.  With
        *cancel* the last problem loses a coupler in every batch, the last
        included, so its range ends without a read-out: one export reads
        the pack out first.  One range or two, bit for bit the oracle."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
        problems = self.even_chain_pack()
        parameters = AnnealerParameters(num_anneals=50)
        # Twenty sweeps an anneal leave chains broken, hence tied.
        machine = ideal_machine(sweeps_per_us=1.0, ice_batch_size=25)
        assert {len(chain) for chain in machine.embedding_for(2).chains
                .values()} == {2}
        if cancel:
            machine.ice = cancelling_ice(machine, problems, parameters)
        calls = count_artefact_calls(monkeypatch)
        shards = []
        original_shards = backends._shards
        monkeypatch.setattr(backends, "_shards", lambda *args: shards.append(
            original_shards(*args)) or shards[-1])
        pack_rngs = [np.random.default_rng(70 + b) for b in range(16)]
        on_c = backends.cext_available()
        results = machine.run_batch(problems, parameters,
                                    random_states=pack_rngs)
        monkeypatch.setattr(backends, "_shards", original_shards)
        for b, (problem, result) in enumerate(zip(problems, results)):
            rng = np.random.default_rng(70 + b)
            assert_run_equals_oracle(
                result, oracle_run(machine, problem, parameters, rng))
            assert pack_rngs[b].bit_generator.state == rng.bit_generator.state
        if on_c:
            assert shards[0] == cpus
            assert calls["pack_read_out"] == 1 + cancel

    def test_thread_pool_with_a_shared_decoder(self):
        """Plans are immutable and shared; samplers (with their kernel
        workspaces) are checked out per call.  Eight
        threads on ~1 core, switching every 10 us, decoding different packs
        through ONE decoder must give each pack its serial result."""
        decoder = QuAMaxDecoder(self.machine(sampler_cache_size=2),
                                AnnealerParameters(num_anneals=20))
        link = MimoUplink(num_users=3, constellation="QPSK")
        rng = np.random.default_rng(11)
        packs = [[link.transmit(snr_db=15.0, random_state=rng)
                  for _ in range(size)]
                 for size in (1, 4, 4, 2, 4, 1, 4, 2) * 3]

        def decode(index):
            results = decoder.detect_batch(
                packs[index],
                random_states=[1000 * index + k
                               for k in range(len(packs[index]))])
            return [result.detection.bits for result in results]

        expected = [decode(index) for index in range(len(packs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(decode, index)
                           for index in range(len(packs))]
                served = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(served, expected):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------- #
# Work counters, no clock
# --------------------------------------------------------------------------- #
needs_cext = pytest.mark.skipif(not backends.cext_available(),
                                reason="no C compiler for the cext backend")


def count_artefact_calls(monkeypatch):
    """Calls into the C artefact from here on, by exported name (empty on
    the NumPy path, where nothing loads it)."""
    lib = backends._load_cext()
    if lib is None:
        return {}
    calls = {}

    class Counting:
        def __getattr__(self, name):
            function = getattr(lib, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return function(*args)
            return counted

    monkeypatch.setattr(backends, "_load_cext", Counting)
    return calls


def qpsk_jobs(count, seed=40):
    link = MimoUplink(num_users=3, constellation="QPSK")
    rng = np.random.default_rng(seed)
    return [DecodeJob(job_id=i, user_id=0, frame=0, subcarrier=i,
                      channel_use=link.transmit(snr_db=15.0,
                                                random_state=rng),
                      arrival_time_us=10.0 * i, deadline_us=1e9, seed=300 + i)
            for i in range(count)]


def serve_in_packs(jobs, pack=16, decoder=None, **pool_options):
    """Every job's detected bits, in job order, served by a fresh pool in
    packs of *pack* jobs (by a fresh decoder unless one is given)."""
    if decoder is None:
        decoder = QuAMaxDecoder(ideal_machine(),
                                AnnealerParameters(num_anneals=20))
    with WorkerPool(decoder, **pool_options) as pool:
        for start in range(0, len(jobs), pack):
            pool.submit(DecodeBatch(jobs=tuple(jobs[start:start + pack]),
                                    flush_time_us=10.0 * (start + pack),
                                    reason="full"))
    return [result.result.detection.bits for result in
            sorted(pool.results(), key=lambda result: result.job.job_id)]


@needs_cext
class TestShardedServing:
    """Sharded packs (two usable CPUs, whatever the host) under the pool
    modes that run them: bits equal to inline serving."""

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the platform's default start method is not fork")
    def test_forked_worker_after_a_sharded_pack(self, monkeypatch):
        """The parent sweeps sharded packs — its helper thread is alive —
        then forks a one-worker process pool that shards too.  The child
        inherits the helper pool's queue but not its thread; it must start
        its own instead of waiting forever on work no thread will take."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
        jobs = qpsk_jobs(32)
        expected = serve_in_packs(jobs)
        assert backends._HELPERS  # the helper pool is running here
        served = []
        serving = threading.Thread(daemon=True, target=lambda: served.append(
            serve_in_packs(jobs, num_workers=1, mode="process",
                           threads=2)))
        serving.start()
        serving.join(timeout=120)
        assert served, "the forked pool did not finish: its worker hung"
        for got, want in zip(served[0], expected, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the platform's default start method is not fork")
    def test_forked_worker_reuses_a_warm_sharded_sampler(self, monkeypatch):
        """The same, through ONE decoder: the forked worker inherits the
        parent's warm sampler, whose kept batch calls must reach the
        child's own helper pool, not the parent's, which has no thread
        there."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
        jobs = qpsk_jobs(32)
        decoder = QuAMaxDecoder(ideal_machine(),
                                AnnealerParameters(num_anneals=20))
        expected = serve_in_packs(jobs, decoder=decoder)
        served = []
        serving = threading.Thread(daemon=True, target=lambda: served.append(
            serve_in_packs(jobs, decoder=decoder, num_workers=1,
                           mode="process")))
        serving.start()
        serving.join(timeout=120)
        assert served, "the forked pool did not finish: its worker hung"
        for got, want in zip(served[0], expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_thread_pool_equals_inline(self, monkeypatch):
        """Two worker threads each sharding their 16-job packs over the one
        helper pool."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
        jobs = qpsk_jobs(64)
        expected = serve_in_packs(jobs)
        served = serve_in_packs(jobs, num_workers=2, mode="thread")
        for got, want in zip(served, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_counter_packs_under_a_crowded_thread_pool(self, monkeypatch):
        """Four workers on two usable CPUs each shard their one-thread
        counter packs over the one helper pool, the switch interval cut so
        the GIL changes hands mid-call: bits equal inline serving."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", 2)
        jobs = [replace(job, rng_mode="counter") for job in qpsk_jobs(64)]
        expected = serve_in_packs(jobs)
        served, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            serving = threading.Thread(
                daemon=True, target=lambda: served.append(serve_in_packs(
                    jobs, num_workers=4, mode="thread")))
            serving.start()
            serving.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert served, "the thread pool did not finish"
        for got, want in zip(served[0], expected, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("budget", [-1, 0])
    def test_one_block_packs_under_a_crowded_thread_pool(
            self, monkeypatch, every_block_splits, budget):
        """Four workers on two usable CPUs split their one-job packs over
        the helper pool, the switch interval cut so the GIL changes hands
        mid-call: bits equal inline serving, whether halves wait for each
        other (no budget) or decline and abort at the first yield (0)."""
        monkeypatch.setattr(backends, "_STALL_BUDGET", budget)
        jobs = qpsk_jobs(24)
        expected = serve_in_packs(jobs, pack=1)
        splits = every_block_splits["splits"]
        served, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            serving = threading.Thread(
                daemon=True, target=lambda: served.append(serve_in_packs(
                    jobs, pack=1, num_workers=4, mode="thread")))
            serving.start()
            serving.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert served, "the thread pool did not finish"
        for got, want in zip(served[0], expected, strict=True):
            np.testing.assert_array_equal(got, want)
        assert budget == 0 or every_block_splits["splits"] > splits


class TestWarmPackWork:
    """What a warm pack costs, counted rather than timed."""

    def _count_constructions(self, monkeypatch, make_problems):
        machine = ideal_machine()
        parameters = AnnealerParameters(num_anneals=50)
        machine.run_batch(make_problems(), parameters, random_state=1)  # warm
        # A fresh input, as every detect_batch reduces a fresh pack: the
        # warm call's rows may not stand in for this one's.
        problems = make_problems()
        counts = {"models": 0, "sparse": 0, "dicts": 0, "embedded": 0}

        def counted(function, name):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(IsingModel, "__init__",
                            counted(IsingModel.__init__, "models"))
        monkeypatch.setattr(
            IsingModel, "from_arrays",
            classmethod(counted(IsingModel.from_arrays.__func__, "models")))
        monkeypatch.setattr(EmbeddedIsing, "__init__",
                            counted(EmbeddedIsing.__init__, "embedded"))
        original_getattr = IsingModel.__getattr__

        def counting_getattr(model, name):
            if name == "couplings":
                counts["dicts"] += 1
            return original_getattr(model, name)

        monkeypatch.setattr(IsingModel, "__getattr__", counting_getattr)
        for matrix_type in (sparse.csr_matrix, sparse.coo_matrix,
                            sparse.csc_matrix):
            monkeypatch.setattr(matrix_type, "__init__",
                                counted(matrix_type.__init__, "sparse"))
        machine.run_batch(problems, parameters, random_state=2)
        assert machine.sampler_cache_info()["hits"] == 1
        monkeypatch.undo()
        return counts

    @pytest.mark.parametrize("source", ["models", "reduced pack"])
    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_no_per_job_model_matrix_or_dict(self, monkeypatch, source,
                                             count):
        """Neither the problems' own objects nor the decoder's
        ``reduce_pack`` rows (an ``IsingPack`` holding no objects) get a
        per-job ``IsingModel`` or ``EmbeddedIsing`` on the way out."""
        def make_problems():
            if source == "models":
                return qpsk_pack(count)
            link = MimoUplink(num_users=3, constellation="QPSK")
            rng = np.random.default_rng(20)
            problems = MLToIsingReducer().reduce_pack(
                [link.transmit(snr_db=15.0, random_state=rng)
                 for _ in range(count)])[0].pack
            assert problems.models is None and len(problems) == count
            return problems

        counts = self._count_constructions(monkeypatch, make_problems)
        # Without a compiler the pack's energies go through ONE scipy
        # operator, built per pack over the logical CSR template its
        # structure's entry keeps: no model, not even a row's.
        numpy_path = not backends.cext_available()
        assert counts == {"models": 0, "dicts": 0, "embedded": 0,
                          "sparse": int(numpy_path)}

    @needs_cext
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_few_pointers_marshalled_per_kernel_call(self, monkeypatch, cpus):
        monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
        problems = qpsk_pack(16)
        machine = ideal_machine()
        parameters = AnnealerParameters(num_anneals=50)
        machine.run_batch(problems, parameters, random_state=1)
        pointers = []
        original_ptr = backends._ptr
        monkeypatch.setattr(
            backends, "_ptr",
            lambda array: pointers.append(array.shape) or original_ptr(array))
        anneals = []
        original_anneal = BlockDiagonalSampler.anneal
        monkeypatch.setattr(
            BlockDiagonalSampler, "anneal",
            lambda sampler, *args, **kwargs: anneals.append(1)
            or original_anneal(sampler, *args, **kwargs))
        machine.run_batch(problems, parameters, random_state=2)
        assert len(anneals) == 1
        # Per pack, once, however many ranges of blocks run it (all 16 in
        # one call on one CPU, two ranges of 8 on two; a range's argument
        # block holds its first block): the logical fields and couplings
        # the call programs from, and its physical out-array.  Everything
        # else it reads and writes — the programmed fields and couplers,
        # the plan, the read-out's out-arrays — lives in argument blocks
        # kept with the sampler.
        assert pointers == [(16, 6), (16, 15), (50, 16 * 18)]

    @needs_cext
    def test_kernel_does_the_work_it_did_before(self):
        """The glue moved, the kernel's work did not: proposals, uniforms
        drawn and ``exp`` calls of this seeded call are the numbers the
        per-job pipeline's kernel call reported."""
        machine = ideal_machine()
        machine.run_batch(qpsk_pack(16), AnnealerParameters(num_anneals=50),
                          random_state=7)
        entry, = machine._structures.values()
        sampler = entry.sampler
        assert tuple(sampler.last_sweep_work) == (288000, 278948, 6508)

    #: Calls into ``src/repro`` of one warm ``decode_pack`` per (jobs, CPUs).
    PYTHON_CALLS = {(1, 1): 63, (1, 2): 63, (16, 1): 248, (16, 2): 252}

    @staticmethod
    def warm_pack_calls(jobs):
        """The decoder and the ``src/repro`` calls of the second of two
        ``decode_pack`` calls of *jobs*-job QPSK packs (one structure)."""
        import os

        import repro
        from repro.cran.workers import decode_pack

        decoder = QuAMaxDecoder(QuantumAnnealerSimulator(),
                                AnnealerParameters(num_anneals=50))
        link = MimoUplink(num_users=3, constellation="QPSK")
        rng = np.random.default_rng(40)

        def batch(first):
            return DecodeBatch(jobs=tuple(
                DecodeJob(job_id=first + k, user_id=0, frame=0, subcarrier=k,
                          channel_use=link.transmit(snr_db=20.0,
                                                    random_state=rng),
                          arrival_time_us=0.0) for k in range(jobs)),
                flush_time_us=0.0, reason="full")

        decode_pack(decoder, None, 0, batch(0))  # warm
        package = os.path.dirname(repro.__file__) + os.sep
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(
                    package):
                calls.append(frame.f_code.co_qualname)

        warm = batch(jobs)
        sys.setprofile(profile)
        try:
            decode_pack(decoder, None, 1, warm)
        finally:
            sys.setprofile(None)
        assert decoder.sampler_cache_info()["hits"] == 1
        return decoder, calls

    @needs_cext
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("jobs", [1, 16])
    def test_python_calls_per_warm_pack(self, monkeypatch, jobs, cpus):
        """The host glue of a warm pack, counted: every Python function of
        the package entered (``sys.setprofile`` ``call`` events) while one
        worker decodes a warm QPSK pack, jobs' generators included.  A
        per-job helper call, or a layer of glue, moves the pinned count."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
        _, calls = self.warm_pack_calls(jobs)
        assert len(calls) == self.PYTHON_CALLS[jobs, cpus], sorted(calls)

    @needs_cext
    def test_first_pack_of_a_process_keeps_its_route(self, monkeypatch):
        """A fresh process reads its usable CPUs while its first pack builds
        a route: that route is filed under the count it was built for, so
        the next pack of the structure takes it — one route, and a warm
        pack's count of calls."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", None)
        decoder, calls = self.warm_pack_calls(1)
        entry, = decoder.annealer._structures.values()
        assert list(entry.sampler._routes) == [1]
        assert len(calls) == self.PYTHON_CALLS[1, 1], sorted(calls)

    @needs_cext
    def test_counter_pack_values_no_draw_in_python(self, monkeypatch):
        """Counter draws are valued by the kernels' Philox fill, initial
        configuration included: a warm counter pack never runs the
        reference ``philox4x32``."""
        from repro.annealer import counter

        problems = qpsk_pack(16)
        machine = ideal_machine()
        options = dict(rng="counter")
        parameters = AnnealerParameters(num_anneals=50)
        machine.run_batch(problems, parameters, random_state=1, **options)
        calls = []
        original = counter.philox4x32
        monkeypatch.setattr(
            counter, "philox4x32",
            lambda *args: calls.append(1) or original(*args))
        machine.run_batch(problems, parameters, random_state=2, **options)
        assert machine.sampler_cache_info()["hits"] == 1
        assert calls == []

    def test_read_out_is_array_passes(self, monkeypatch):
        """After the kernel a warm pack is decoded by array passes: no
        per-job ``np.unique``, bit-array validation or validating result
        constructor, and one spin-to-bit conversion for the (single
        constellation) pack."""
        import repro.decoder.quamax as quamax
        import repro.detectors.base as detectors_base
        import repro.transform.posttranslate as posttranslate
        import repro.transform.reduction as reduction
        import repro.transform.symbols as symbols
        from repro.detectors.base import DetectionResult
        from repro.ising.solver import SolverResult

        link = MimoUplink(num_users=3, constellation="QPSK")
        rng = np.random.default_rng(30)
        uses = [link.transmit(snr_db=15.0, random_state=rng)
                for _ in range(16)]
        decoder = QuAMaxDecoder(ideal_machine(),
                                AnnealerParameters(num_anneals=50))
        expected = decoder.detect_batch(uses, random_state=1)  # warm
        counts = {}

        def counted(owner, name, key=None):
            original = getattr(owner, name)
            counts.setdefault(key or name, 0)

            def wrapper(*args, **kwargs):
                counts[key or name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(np, "unique")
        for module in (detectors_base, posttranslate, reduction, symbols):
            counted(module, "ensure_bit_array")
        counted(SolverResult, "__post_init__", "SolverResult")
        counted(DetectionResult, "__post_init__", "DetectionResult")
        counted(reduction, "spins_to_bits", "per-job spins_to_bits")
        counted(quamax, "spins_to_bits", "pack spins_to_bits")
        results = decoder.detect_batch(uses, random_state=1)
        monkeypatch.undo()
        assert decoder.sampler_cache_info()["hits"] == 1
        assert counts == {"unique": 0, "ensure_bit_array": 0,
                          "SolverResult": 0, "DetectionResult": 0,
                          "per-job spins_to_bits": 0, "pack spins_to_bits": 1}
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.detection.bits,
                                          want.detection.bits)
            assert got.detection.metric == want.detection.metric

    @needs_cext
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_generator_pointers_marshalled_once_per_run(self, monkeypatch,
                                                        cpus):
        """The ICE batches of one run draw from the same generators: their
        ``(next_double, state)`` pointer arrays are built once per
        ``run_batch``, not once per kernel call — nor once per range of a
        sharded call, which copies its slice of the one array's pointers."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
        problems = qpsk_pack(16)
        machine = ideal_machine()
        parameters = AnnealerParameters(num_anneals=50)
        machine.run_batch(problems, parameters, random_state=1)
        builds = []
        original = backends._rng_pointer_arrays
        monkeypatch.setattr(
            backends, "_rng_pointer_arrays",
            lambda rngs: builds.append(len(rngs)) or original(rngs))
        for seed in (2, 3):  # new generators per run: one build each
            machine.run_batch(problems, parameters, random_state=seed)
        assert machine.sampler_cache_info()["hits"] == 2
        assert builds == [16, 16]

    @needs_cext
    def test_the_two_edges_are_one_pass_each(self, monkeypatch):
        """Inside a warm 16-job sequential cext ``detect_batch``: the ML
        reduction is ONE stacked ``reduce_pack`` (no per-job closed form, no
        ``IsingModel`` on the way into ``run_batch``), and ONE anneal call
        makes ONE batch call, which draws every batch's starting
        configuration in C (no ``sequential_initial_spins`` wrapper call,
        no ``Generator.integers`` per block)."""
        import repro.transform.ising_coeffs as ising_coeffs

        link = MimoUplink(num_users=3, constellation="QPSK")
        rng = np.random.default_rng(30)
        uses = [link.transmit(snr_db=15.0, random_state=rng)
                for _ in range(16)]
        decoder = QuAMaxDecoder(ideal_machine(),
                                AnnealerParameters(num_anneals=50))
        expected = decoder.detect_batch(uses, random_state=1)  # warm
        counts = {"build_ml_ising": 0, "reduce": 0, "reduce_pack": 0,
                  "models": 0, "initial_spins": 0, "batch_calls": 0,
                  "anneals": 0, "models before run_batch": None}

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(ising_coeffs, "build_ml_ising", "build_ml_ising")
        counted(MLToIsingReducer, "reduce", "reduce")
        counted(MLToIsingReducer, "reduce_pack", "reduce_pack")
        counted(backends, "sequential_initial_spins", "initial_spins")
        counted(backends, "pack_ice_batches", "batch_calls")
        counted(BlockDiagonalSampler, "anneal", "anneals")
        counted(IsingModel, "__init__", "models")
        original_from_arrays = IsingModel.from_arrays.__func__
        monkeypatch.setattr(IsingModel, "from_arrays", classmethod(
            lambda cls, *args: counts.__setitem__(
                "models", counts["models"] + 1)
            or original_from_arrays(cls, *args)))
        original_run_batch = QuantumAnnealerSimulator.run_batch

        def run_batch(machine, problems, *args, **kwargs):
            assert isinstance(problems, IsingPack)
            assert problems.models is None and len(problems) == 16
            counts["models before run_batch"] = counts["models"]
            return original_run_batch(machine, problems, *args, **kwargs)

        monkeypatch.setattr(QuantumAnnealerSimulator, "run_batch", run_batch)
        results = decoder.detect_batch(uses, random_state=1)
        monkeypatch.undo()
        assert decoder.sampler_cache_info()["hits"] == 1
        assert counts == {"build_ml_ising": 0, "reduce": 0, "reduce_pack": 1,
                          "models": 0, "initial_spins": 0, "batch_calls": 1,
                          "anneals": 1, "models before run_batch": 0}
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got.detection.bits,
                                          want.detection.bits)
            assert got.detection.metric == want.detection.metric

    @needs_cext
    def test_no_scalar_generator_call_on_a_warm_cext_pack(self, monkeypatch):
        """The cext path of a warm pack reaches its generators through the
        ``bitgen_t`` pointers alone: no ``.ctypes`` interface is built, and
        neither the numpy start (the ``integers`` loop) nor the start's
        own wrapper runs — the batch call draws it."""
        problems = qpsk_pack(16)
        machine = ideal_machine()
        parameters = AnnealerParameters(num_anneals=50)
        machine.run_batch(problems, parameters, random_state=1)
        original = backends.sequential_initial_spins
        starts = []
        monkeypatch.setattr(
            backends, "sequential_initial_spins",
            lambda *args: starts.append(args) or original(*args))
        rngs = [np.random.default_rng(seed) for seed in range(16)]
        machine.run_batch(problems, parameters, random_states=rngs)
        assert starts == []
        # ``BitGenerator.ctypes`` is built (and cached there) on first read.
        assert all(getattr(rng.bit_generator, "_ctypes", None) is None
                   for rng in rngs)

    @needs_cext
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_artefact_calls_per_warm_pack(self, monkeypatch, cpus):
        """A warm one-job pack crosses into C once: one batch call
        programs it, runs every ICE batch's draws, gathers, start and
        sweeps, and reads it out — vote, distinct reads and energy
        products.  A 16-job pack makes one batch call per range of blocks,
        out of one anneal and no rebind (the call programs the sampler)."""
        monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
        parameters = AnnealerParameters(num_anneals=50)
        one, sixteen = qpsk_pack(1), qpsk_pack(16)
        machine = ideal_machine()
        for problems in (one, sixteen):
            machine.run_batch(problems, parameters, random_state=1)
        calls = count_artefact_calls(monkeypatch)
        machine.run_batch(one, parameters, random_state=2)
        assert calls == {"pack_ice_batches": 1}

        counts = {"anneal": 0, "refresh_values": 0}
        for name in counts:
            original = getattr(BlockDiagonalSampler, name)
            monkeypatch.setattr(
                BlockDiagonalSampler, name,
                lambda *args, _original=original, _name=name, **kwargs:
                counts.__setitem__(_name, counts[_name] + 1)
                or _original(*args, **kwargs))
        calls.clear()
        machine.run_batch(sixteen, parameters, random_state=2)
        assert calls == {"pack_ice_batches": cpus}
        assert sum(calls.values()) <= cpus + 1
        assert counts == {"anneal": 1, "refresh_values": 0}
        assert machine.sampler_cache_info()["hits"] == 3  # one sampler

    @needs_cext
    @pytest.mark.parametrize("case", ["clean", "tied", "cancelled"])
    def test_artefact_calls_per_warm_lane_half_pack(
            self, monkeypatch, every_block_splits, case):
        """A warm one-job pack swept as lane halves crosses into C through
        the one entry alone: per ICE batch one call for its draws and
        start and one per half, the leader's writing the batch's rows and,
        the last batch, reading the pack out.  The halves' argument blocks
        are the route's: no colour words are built.  ``pack_read_out``
        follows only a chain tie (problem 7 of the even-chain pack ties at
        every seed, problem 0 at none) or a cancelled last batch (the
        route's calls are counted, not the per-problem fallback's)."""
        problems = TestRunBatchEqualsOracle.even_chain_pack()
        problems = problems[7:8] if case == "tied" else problems[:1]
        parameters = AnnealerParameters(num_anneals=50)
        machine = ideal_machine(sweeps_per_us=1.0, ice_batch_size=25)
        if case == "cancelled":
            machine.ice = cancelling_ice(machine, problems, parameters)
        machine.run_batch(problems, parameters, random_state=1)
        calls = count_artefact_calls(monkeypatch)
        made = {"colour words": 0, "ties": 0, "fallbacks": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args):
                made[key] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(backends, "_cext_colour_arguments", "colour words")
        counting(machine_module, "draw_ties", "ties")
        original = BlockDiagonalSampler._per_problem

        def per_problem(sampler, *args):
            before = dict(calls), made["colour words"]
            try:
                return original(sampler, *args)
            finally:
                calls.clear()
                calls.update(before[0])
                made["colour words"] = before[1]
                made["fallbacks"] += 1

        monkeypatch.setattr(BlockDiagonalSampler, "_per_problem", per_problem)
        splits = every_block_splits["splits"]
        machine.run_batch(problems, parameters, random_state=2)
        cancelled = case == "cancelled"
        assert made["colour words"] == 0
        assert made["fallbacks"] == 2 * cancelled
        assert bool(made["ties"]) == (case == "tied") or cancelled
        assert calls.pop("pack_read_out", 0) == cancelled + made["ties"]
        assert calls == {"pack_ice_batches": 2 if cancelled else 2 * 3}
        if not cancelled:
            assert every_block_splits["splits"] == splits + 2

    def test_temperature_profile_is_built_once(self, monkeypatch):
        """A machine builds the profile once per parameters object and
        keeps it with the structure it serves: read-only, contiguous
        float64, so the sampler checks it once."""
        profiles = []
        original = AnnealSchedule.temperature_profile
        monkeypatch.setattr(
            AnnealSchedule, "temperature_profile",
            lambda schedule, **options: profiles.append(
                original(schedule, **options)) or profiles[-1])
        machine = ideal_machine()
        parameters = AnnealerParameters(num_anneals=10)
        for seed in range(3):
            machine.run_batch(qpsk_pack(1 + seed), parameters,
                              random_state=seed)
        profile, = profiles
        assert not profile.flags.writeable
        assert profile.flags.c_contiguous and profile.dtype == np.float64
        paused = AnnealerParameters(
            schedule=AnnealSchedule(
                anneal_time_us=parameters.schedule.anneal_time_us,
                pause_time_us=1.0, pause_position=0.4), num_anneals=10)
        machine.run_batch(qpsk_pack(1), paused, random_state=0)
        assert len(profiles) == 2 and profiles[1].size > profile.size


@needs_cext
class TestServedRoute:
    """A warm sampler serves a machine pack through a route it keeps per
    pack size, schedule, anneal count, ICE settings, compile settings and
    the backend's split settings (``BlockDiagonalSampler.anneal`` with
    ``program=``): whatever changes between packs — the parameters object,
    the machine's rates, its ICE, the usable CPUs, the sampler cache — a
    warm machine's bytes are a cold one's."""

    PARAMETERS = AnnealerParameters(num_anneals=50)

    @staticmethod
    def decode(machine, problems, parameters):
        rngs = [np.random.default_rng(5 + b) for b in range(len(problems))]
        runs = machine.run_batch(problems, parameters, random_states=rngs)
        return [(run.solutions.samples.tobytes(),
                 run.solutions.energies.tobytes(),
                 run.solutions.num_occurrences.tobytes(),
                 run.broken_chain_fraction, run.parallelization,
                 run.parameters, rng.bit_generator.state)
                for run, rng in zip(runs, rngs)]

    def assert_cold_equal(self, warm, problems, parameters, **options):
        got = self.decode(warm, problems, parameters)
        assert got == self.decode(ideal_machine(**options), problems,
                                  parameters)

    def test_pack_size(self):
        one, sixteen = qpsk_pack(1), qpsk_pack(16)
        machine = ideal_machine()
        for problems in (sixteen, one, sixteen, one, one):
            self.assert_cold_equal(machine, problems, self.PARAMETERS)
        assert machine.sampler_cache_info()["misses"] == 1  # one sampler

    def test_parameters_object(self):
        machine, problems = ideal_machine(), qpsk_pack(4)
        for parameters in (self.PARAMETERS, AnnealerParameters(num_anneals=30),
                           AnnealerParameters(num_anneals=50,
                                              chain_strength=2.0),
                           AnnealerParameters(num_anneals=50),
                           self.PARAMETERS):
            self.assert_cold_equal(machine, problems, parameters)

    def test_machine_rates_and_ice(self):
        """One setting at a time, the others the machine's own objects."""
        machine, problems = ideal_machine(), qpsk_pack(4)
        defaults = {name: getattr(machine, name) for name in (
            "sweeps_per_us", "hot_temperature", "ice_batch_size", "ice")}
        for options in ({"sweeps_per_us": 12.0}, {}, {"hot_temperature": 1.2},
                        {"ice_batch_size": 10}, {"ice": ICEModel.disabled()},
                        {}):
            for name, value in {**defaults, **options}.items():
                setattr(machine, name, value)
            self.assert_cold_equal(machine, problems, self.PARAMETERS,
                                   **options)

    @pytest.mark.parametrize("jobs", [1, 16])
    def test_usable_cpus(self, monkeypatch, every_block_splits, jobs):
        """And a warm pack makes the calls its CPUs ask for: two block
        ranges of sixteen blocks, or one block's two lane halves, at two
        CPUs; one call at one.  A range runs both of its ICE batches in one
        call; a lane-half block makes three calls of the one entry a batch:
        its draws and start, and one per half."""
        machine, problems = ideal_machine(), qpsk_pack(jobs)
        for cpus in (1, 2, 1, 2):
            monkeypatch.setattr(backends, "_USABLE_CPUS", cpus)
            calls = count_artefact_calls(monkeypatch)
            got = self.decode(machine, problems, self.PARAMETERS)
            halves = jobs == 1 and cpus == 2
            assert calls["pack_ice_batches"] == (
                2 * 3 if halves else cpus if jobs == 16 else 1)
            assert set(calls) <= {"pack_ice_batches", "pack_read_out"}
            assert got == self.decode(ideal_machine(), problems,
                                      self.PARAMETERS)

    def test_sampler_cache_eviction(self):
        machine = ideal_machine(sampler_cache_size=1)
        qpsk = qpsk_pack(4)
        bpsk = qpsk_pack(4, num_users=2, constellation="BPSK")
        for problems in (qpsk, bpsk, qpsk, qpsk):
            self.assert_cold_equal(machine, problems, self.PARAMETERS,
                                   sampler_cache_size=1)
        info = machine.sampler_cache_info()
        assert (info["misses"], info["hits"]) == (3, 1)


@pytest.mark.usefixtures("artefact")
class TestWarmStructures:
    """One home per served structure: a machine keeps what a coupling
    structure determines — plan, logical CSR template, ``P_f``, profile,
    sampler and its routes — as one entry of its LRU, which every route
    (served, NumPy stages, per-problem fallback, ``run``) looks up, and a
    pickled decoder (what a spawned worker receives) carries it without
    the pointers."""

    PARAMETERS = AnnealerParameters(num_anneals=30)

    def test_every_route_takes_the_one_entry(self):
        machine = ideal_machine()
        pack = qpsk_pack(4)
        machine.run_batch(pack, self.PARAMETERS, random_state=0)
        machine.run(pack[0], self.PARAMETERS, random_state=1)
        # Two structures in one submission: a pack of one each, the first
        # on the kept entry.
        sparse = IsingModel(6, pack[1].linear, {
            key: value for key, value in pack[1].couplings.items()
            if key != (0, 1)})
        machine.run_batch([pack[1], sparse], self.PARAMETERS,
                          random_state=2)
        info = machine.sampler_cache_info()
        assert (info["entries"], info["hits"], info["misses"]) == (2, 2, 2)
        entry = machine._structures[
            "sequential", True, 6, pack[0].coupling_keys]
        assert entry.plan.direct and entry.template.indptr.size == 7
        assert machine._settings[0] is self.PARAMETERS
        assert entry.sampler.num_blocks == 1

    def test_an_underflowed_lone_problem_leaves_the_entry_sampler(self):
        """A lone problem whose scaled coupling underflows to zero anneals
        on a plan of fewer keys and a sampler of its own: the entry's stays
        the full key set's, so the structure's next pack — in the same
        submission's per-problem fallback or the next submission — decodes
        as on a cold machine."""
        tiny = IsingModel(3, np.zeros(3), {(0, 1): 1e300, (0, 2): 1e-30,
                                           (1, 2): -2e299})
        healthy = IsingModel(3, np.zeros(3), {(0, 1): 1.0, (0, 2): 0.5,
                                              (1, 2): -1.0})

        def decode(machine, problems):
            runs = machine.run_batch(problems, self.PARAMETERS,
                                     random_state=3)
            return [(run.solutions.samples.tobytes(),
                     run.solutions.energies.tobytes(),
                     run.solutions.num_occurrences.tobytes(),
                     run.broken_chain_fraction) for run in runs]

        for submissions in (([tiny], [healthy]), ([healthy, tiny],),
                            ([healthy, tiny], [healthy])):
            machine = ideal_machine()
            for problems in submissions:
                assert decode(machine, problems) == decode(ideal_machine(),
                                                           problems)
            info = machine.sampler_cache_info()
            assert (info["entries"], info["misses"]) == (1, 1)

    @staticmethod
    def packs(seed):
        rng = np.random.default_rng(seed)
        qpsk = MimoUplink(num_users=3, constellation="QPSK")
        qam = MimoUplink(num_users=2, constellation="16-QAM")
        return [[link.transmit(snr_db=15.0, random_state=rng)
                 for _ in range(jobs)]
                for link, jobs in ((qpsk, 16), (qpsk, 1), (qam, 4))]

    def test_a_pickled_warm_decoder_decodes_as_it_and_a_cold_one(self):
        decoder = QuAMaxDecoder(ideal_machine(), self.PARAMETERS)
        for seed, uses in enumerate(self.packs(1)):
            decoder.detect_batch(uses, random_state=seed)
        clone = pickle.loads(pickle.dumps(decoder))
        for entry in clone.annealer._structures.values():
            assert entry.sampler._routes == {}
            assert entry.sampler._kernel_workspace == {}
        hits = clone.sampler_cache_info()["hits"]
        cold = QuAMaxDecoder(ideal_machine(), self.PARAMETERS)
        for seed, uses in enumerate(self.packs(2)):
            warm, copied, fresh = (
                each.detect_batch(uses, random_state=10 + seed)
                for each in (decoder, clone, cold))
            for outcomes in zip(warm, copied, fresh):
                first = outcomes[0]
                for other in outcomes[1:]:
                    for name in ("samples", "num_occurrences"):
                        assert (getattr(other.run.solutions, name).tobytes()
                                == getattr(first.run.solutions,
                                           name).tobytes())
                    assert (other.detection.bits.tobytes()
                            == first.detection.bits.tobytes())
        assert clone.sampler_cache_info()["hits"] == hits + 3
