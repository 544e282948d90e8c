"""Tests for the MLToIsingReducer facade and ReducedProblem."""

import numpy as np
import pytest

from repro.detectors.ml import ExhaustiveMLDetector
from repro.exceptions import ReductionError
from repro.ising.solver import BruteForceIsingSolver
from repro.mimo.system import ChannelUse, MimoUplink
from repro.modulation import QPSK
from repro.transform.ising_coeffs import MLIsingStructure, build_ml_ising
from repro.transform.reduction import MLToIsingReducer, ReducedProblem
from repro.transform.symbols import get_transform


def make_channel_use(constellation, num_users, snr_db, seed):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    return link.transmit(snr_db=snr_db, random_state=seed)


class TestReduce:
    @pytest.mark.parametrize("constellation,num_users,expected_vars", [
        ("BPSK", 5, 5), ("QPSK", 4, 8), ("16-QAM", 3, 12),
    ])
    def test_variable_count(self, constellation, num_users, expected_vars):
        channel_use = make_channel_use(constellation, num_users, 20.0, 0)
        reduced = MLToIsingReducer().reduce(channel_use)
        assert isinstance(reduced, ReducedProblem)
        assert reduced.num_variables == expected_vars
        assert reduced.num_users == num_users

    def test_qubo_and_ising_share_argmin(self):
        channel_use = make_channel_use("QPSK", 3, 15.0, 1)
        reduced = MLToIsingReducer().reduce(channel_use)
        qubo = reduced.to_qubo()
        ground = BruteForceIsingSolver(max_variables=12).solve(reduced.ising)
        from repro.ising.model import spins_to_bits
        qubo_best = qubo.energy(spins_to_bits(ground.best_sample))
        # No other assignment should beat the Ising ground state in QUBO form.
        rng = np.random.default_rng(0)
        for _ in range(50):
            candidate = rng.integers(0, 2, size=qubo.num_variables)
            assert qubo.energy(candidate) >= qubo_best - 1e-9


class TestGroundTruthMapping:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 4), ("QPSK", 3), ("16-QAM", 2), ("64-QAM", 1),
    ])
    def test_ground_truth_spins_decode_to_transmitted_bits(self, constellation,
                                                           num_users):
        channel_use = make_channel_use(constellation, num_users, 25.0, 3)
        reduced = MLToIsingReducer().reduce(channel_use)
        spins = reduced.ground_truth_spins()
        decoded = reduced.bits_from_spins(spins)
        np.testing.assert_array_equal(decoded, channel_use.transmitted_bits)
        assert reduced.bit_errors(spins) == 0

    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 4), ("QPSK", 3), ("16-QAM", 2),
    ])
    def test_ground_truth_spins_have_zero_noiseless_energy(self, constellation,
                                                           num_users):
        channel_use = make_channel_use(constellation, num_users, None, 4)
        reduced = MLToIsingReducer().reduce(channel_use)
        energy = reduced.ising.energy(reduced.ground_truth_spins())
        assert energy == pytest.approx(0.0, abs=1e-9)

    def test_ground_truth_symbols_match_transmitted(self):
        channel_use = make_channel_use("16-QAM", 2, 30.0, 5)
        reduced = MLToIsingReducer().reduce(channel_use)
        symbols = reduced.symbols_from_spins(reduced.ground_truth_spins())
        np.testing.assert_allclose(symbols, channel_use.transmitted_symbols)

    def test_metric_of_ground_truth_spins(self):
        channel_use = make_channel_use("QPSK", 3, 20.0, 6)
        reduced = MLToIsingReducer().reduce(channel_use)
        metric = reduced.metric_of_spins(reduced.ground_truth_spins())
        noise_power = np.linalg.norm(
            channel_use.received
            - channel_use.channel @ channel_use.transmitted_symbols) ** 2
        assert metric == pytest.approx(noise_power)

    def test_missing_ground_truth_raises(self):
        channel_use = make_channel_use("QPSK", 2, 20.0, 7)
        anonymous = ChannelUse(channel=channel_use.channel,
                               received=channel_use.received,
                               constellation=QPSK)
        reduced = MLToIsingReducer().reduce(anonymous)
        with pytest.raises(ReductionError):
            reduced.ground_truth_spins()
        with pytest.raises(ReductionError):
            reduced.bit_errors(np.ones(reduced.num_variables))


class TestSolutionMapping:
    def test_ising_ground_state_decodes_to_ml_bits(self):
        channel_use = make_channel_use("16-QAM", 2, 12.0, 8)
        reduced = MLToIsingReducer().reduce(channel_use)
        ground = BruteForceIsingSolver(max_variables=12).solve(reduced.ising)
        decoded = reduced.bits_from_spins(ground.best_sample)
        ml = ExhaustiveMLDetector().detect(channel_use)
        np.testing.assert_array_equal(decoded, ml.bits)
        assert reduced.metric_of_spins(ground.best_sample) == pytest.approx(
            ml.metric, rel=1e-9)

    def test_bits_from_qubo(self):
        channel_use = make_channel_use("QPSK", 2, 20.0, 9)
        reduced = MLToIsingReducer().reduce(channel_use)
        qubo_bits = reduced.ground_truth_qubo_bits()
        np.testing.assert_array_equal(reduced.bits_from_qubo(qubo_bits),
                                      channel_use.transmitted_bits)

    def test_wrong_spin_length_rejected(self):
        channel_use = make_channel_use("BPSK", 3, 20.0, 10)
        reduced = MLToIsingReducer().reduce(channel_use)
        with pytest.raises(ReductionError):
            reduced.bits_from_spins(np.ones(5))


# --------------------------------------------------------------------------- #
# reduce_pack against the per-job closed form it replaced
# --------------------------------------------------------------------------- #
def oracle_build_ml_ising(channel, received, constellation):
    """The per-job evaluation of Eqs. 6-8 / 13-14 as it stood before the
    reduction became one stacked pass — kept here, verbatim but for the
    cached constants being computed in place, as the oracle (the
    ``tests/test_pack_pipeline.py`` pattern), but for the Gram diagonal's
    imaginary part, which is the formula's ``0.0``.  Returns ``(linear,
    keys, values, offset)`` over every pair, exact-zero couplings
    included."""
    transform = get_transform(constellation)
    num_users = channel.shape[1]
    weights = np.tile(np.asarray(transform.weights, dtype=np.complex128) / 2.0,
                      num_users)
    conj_weights = np.conj(weights)
    weight_power = np.abs(weights) ** 2
    user_of = np.repeat(np.arange(num_users), transform.bits_per_symbol)
    gram_index = np.ix_(user_of, user_of)
    upper_i, upper_j = np.triu_indices(weights.size, k=1)

    matched_filter = channel.conj().T @ received      # H^H y, length N_t
    gram = channel.conj().T @ channel                 # H^H H, N_t x N_t
    gram[np.diag_indices(num_users)] = gram.real.diagonal()  # sum |h_ru|^2

    linear = -2.0 * (weights * np.conj(matched_filter[user_of])).real

    pair_matrix = 2.0 * ((conj_weights[:, None] * gram[gram_index])
                         * weights[None, :]).real
    pair_values = pair_matrix[upper_i, upper_j]

    offset = float(np.real(np.vdot(received, received)))
    # Sequential accumulation keeps the historical summation order.
    for term in (weight_power * gram.real[user_of, user_of]).tolist():
        offset += term

    keys = tuple(zip(upper_i.tolist(), upper_j.tolist()))
    return linear, keys, pair_values, offset


def transmissions(constellation, num_users, count, seed, num_rx=None):
    link = MimoUplink(num_users=num_users, constellation=constellation,
                      num_rx_antennas=num_rx)
    rng = np.random.default_rng(seed)
    return [link.transmit(snr_db=15.0, random_state=rng)
            for _ in range(count)]


def assert_rows_equal_oracle(channel_uses, reduced):
    """Every reduced problem bit-equal to the oracle, read both ways (the
    materialised ``IsingModel`` and the pack row), and structure identity:
    equal key tuples are ONE tuple object, and the uses of one
    (constellation, channel shape, key tuple) are the rows of ONE pack, in
    input order."""
    assert len(reduced) == len(channel_uses)
    packs, key_tuples = {}, {}
    for channel_use, problem in zip(channel_uses, reduced):
        linear, keys, values, offset = oracle_build_ml_ising(
            channel_use.channel, channel_use.received,
            channel_use.constellation)
        assert problem.channel_use is channel_use
        assert problem.constellation is channel_use.constellation
        assert problem.num_users == channel_use.num_tx
        ising, pack, row = problem.ising, problem.pack, problem.row
        assert ising is pack[row]
        assert problem.num_variables == ising.num_variables == linear.size
        for got_linear, got_keys, got_values, got_offset in (
                (ising.linear, ising.coupling_keys, ising.coupling_values,
                 ising.offset),
                (pack.linear[row], pack.keys, pack.values[row],
                 pack.offsets[row])):
            assert got_linear.dtype == got_values.dtype == np.float64
            assert got_linear.tobytes() == linear.tobytes()
            assert got_values.tobytes() == values.tobytes()
            assert got_keys == keys
            assert got_offset == offset
        assert type(ising.offset) is float
        assert ising.coupling_keys is pack.keys
        assert key_tuples.setdefault((linear.size, keys), pack.keys) is pack.keys
        packs.setdefault((channel_use.constellation.name,
                          channel_use.channel.shape, keys), []).append(problem)
    for members in packs.values():
        pack = members[0].pack
        assert all(problem.pack is pack for problem in members)
        assert [problem.row for problem in members] == list(range(len(pack)))
        assert pack.linear.flags.c_contiguous
        assert pack.values.flags.c_contiguous
    assert len({id(problem.pack) for problem in reduced}) == len(packs)
    return packs


class TestReducePack:
    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 6), ("QPSK", 3), ("16-QAM", 2), ("64-QAM", 2),
    ])
    @pytest.mark.parametrize("count", [1, 3, 16])
    @pytest.mark.parametrize("tall", [False, True])
    def test_rows_equal_the_per_job_closed_form(self, constellation,
                                                num_users, count, tall):
        uses = transmissions(constellation, num_users, count, seed=50,
                             num_rx=12 if tall else None)
        assert_rows_equal_oracle(uses, MLToIsingReducer().reduce_pack(uses))

    def test_paper_size_problem(self):
        uses = transmissions("BPSK", 48, 2, seed=51, num_rx=96)
        packs = assert_rows_equal_oracle(
            uses, MLToIsingReducer().reduce_pack(uses))
        (_, _, keys), = packs
        assert len(keys) == 48 * 47 // 2

    def test_reduce_and_build_ml_ising_are_the_pack_of_one(self):
        channel_use, = transmissions("16-QAM", 3, 1, seed=52, num_rx=12)
        reducer = MLToIsingReducer()
        assert_rows_equal_oracle([channel_use], [reducer.reduce(channel_use)])
        linear, keys, values, offset = oracle_build_ml_ising(
            channel_use.channel, channel_use.received, "16-QAM")
        ising = build_ml_ising(channel_use.channel.tolist(),
                               channel_use.received.tolist(), "16-QAM")
        assert ising.linear.tobytes() == linear.tobytes()
        assert ising.coupling_values.tobytes() == values.tobytes()
        assert ising.coupling_keys == keys
        assert ising.offset == offset

    def test_a_group_mixing_two_constellations(self):
        """2-user QPSK and 4-user BPSK have one structure — the identical
        key tuple object — but are two stacked passes, hence two packs, each
        with its rows in input order."""
        qpsk = transmissions("QPSK", 2, 3, seed=44)
        bpsk = transmissions("BPSK", 4, 3, seed=45)
        mixed = [qpsk[0], bpsk[0], bpsk[1], qpsk[1], qpsk[2], bpsk[2]]
        reduced = MLToIsingReducer().reduce_pack(mixed)
        assert_rows_equal_oracle(mixed, reduced)
        assert len({problem.pack.keys for problem in reduced}) == 1
        assert len({id(problem.pack.keys) for problem in reduced}) == 1
        assert [problem.row for problem in reduced] == [0, 0, 1, 1, 2, 2]

    def test_mixed_shapes_and_sizes_keep_their_own_packs(self):
        uses = (transmissions("QPSK", 3, 2, seed=53)
                + transmissions("QPSK", 3, 2, seed=54, num_rx=12)
                + transmissions("BPSK", 5, 2, seed=55))
        uses = [uses[index] for index in (4, 0, 2, 5, 1, 3)]
        reduced = MLToIsingReducer().reduce_pack(uses)
        assert_rows_equal_oracle(uses, reduced)
        assert [problem.row for problem in reduced] == [0, 0, 0, 1, 1, 1]
        assert len({id(problem.pack) for problem in reduced}) == 3

    @pytest.mark.parametrize("constellation,num_users", [
        ("BPSK", 4), ("QPSK", 3), ("16-QAM", 2),
    ])
    def test_a_forced_exact_zero_coupling_stays_a_key(self, constellation,
                                                      num_users):
        """Users 0 and 1 of job 5 reach disjoint antennas, so their
        couplings are an exact 0.0: a value, not a missing key.  The stack
        stays one pack over the all-pairs keys, its rows in input order."""
        uses = transmissions(constellation, num_users, 16, seed=56)
        channel = uses[5].channel.copy()
        channel[:2, 0] = 0.0
        channel[2:, 1] = 0.0
        uses[5] = ChannelUse(channel=channel, received=uses[5].received,
                             constellation=uses[5].constellation)
        reduced = MLToIsingReducer().reduce_pack(uses)
        packs = assert_rows_equal_oracle(uses, reduced)
        (_, _, keys), = packs
        pack = reduced[5].pack
        assert keys == pack.keys == MLIsingStructure(constellation,
                                                     num_users).keys
        assert not pack.values[5, pack.keys.index((0, pack.num_variables
                                                   // num_users))]
        assert [problem.row for problem in reduced] == list(range(16))

    def test_intra_user_real_imaginary_couplers_are_exact_zeros(self):
        """The Gram diagonal is real by the formula, so every coupler
        between a user's real and imaginary spin weight is exactly 0.0 —
        QPSK's I/Q pair and four of 16-QAM's six intra-user pairs — whatever
        the BLAS kernel rounds ``Im G_uu`` to."""
        for constellation, num_users, zeros in (("QPSK", 3, 3),
                                                ("16-QAM", 2, 2 * 4)):
            uses = transmissions(constellation, num_users, 16, seed=57)
            pack = MLToIsingReducer().reduce_pack(uses)[0].pack
            structure = MLIsingStructure(constellation, num_users)
            real = structure.conj_weights.imag == 0.0
            intra = [index for index, (i, j) in enumerate(pack.keys)
                     if structure.user_of[i] == structure.user_of[j]
                     and real[i] != real[j]]
            assert len(intra) == zeros
            assert not pack.values[:, intra].any()
