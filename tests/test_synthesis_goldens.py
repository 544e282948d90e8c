"""Byte identity of the offered load: what ``PoissonTrafficGenerator.generate``
and ``MimoUplink.transmit`` emit.

Two checks of every field: a golden digest (``tests/goldens/synthesis_*``,
recorded before the synthesis path was rewritten to validate each input
once and map bits by one table lookup) and, bit for bit, a test-local
oracle of the path as it was — per-user symbol lookups, the constellation
energy recomputed per channel use, the trace's range-checked
``channel_use`` and the validating ``ChannelUse`` constructor.  Each public
entry point keeps one bad-input case, so its boundary check stays covered.
"""

import math

import numpy as np
import pytest

from repro.channel.noise import awgn, noise_variance_for_snr
from repro.channel.trace import ArgosLikeTraceGenerator, ChannelTrace
from repro.cran.traffic import PoissonTrafficGenerator
from repro.exceptions import ConfigurationError, SchedulingError
from repro.mimo.system import ChannelUse, MimoUplink
from repro.modulation.mapper import SymbolMapper
from repro.modulation.constellation import QPSK

FIELDS = ("channel", "received", "transmitted_bits", "transmitted_symbols",
          "noise_variance", "snr_db")


def use_payload(use):
    return {field: getattr(use, field) for field in FIELDS
            if getattr(use, field) is not None} | {
        "constellation": use.constellation.name}


def jobs_payload(jobs):
    return [{"job_id": job.job_id, "user_id": job.user_id,
             "frame": job.frame, "subcarrier": job.subcarrier,
             "arrival_time_us": job.arrival_time_us,
             "deadline_us": job.deadline_us, "seed": job.seed,
             "channel_use": use_payload(job.channel_use)} for job in jobs]


def assert_same_use(got, expected):
    """Field by field: dtype, shape and bytes (scalars by value)."""
    assert got.constellation is expected.constellation
    for field in FIELDS:
        a, b = getattr(got, field), getattr(expected, field)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (
                b.dtype, b.shape, b.tobytes()), field
        else:
            assert type(a) is type(b) and a == b, field


def oracle_transmit(link, rng, bits=None, channel=None, snr_db=None):
    """``MimoUplink.transmit`` as it was: validating every array on the
    way, one symbol lookup per user, the energy recomputed."""
    if bits is None:
        bits = rng.integers(0, 2, size=link.bits_per_channel_use).astype(
            np.uint8)
    bits = np.asarray(bits).astype(np.uint8)
    constellation = link.constellation
    symbols = np.array([constellation.bits_to_symbol(row)
                        for row in bits.reshape(link.num_users, -1)],
                       dtype=np.complex128)
    if channel is None:
        channel = link.channel_model.sample(link.num_rx_antennas,
                                            link.num_users, rng)
    channel = np.asarray(channel, dtype=np.complex128)
    clean = channel @ symbols
    if snr_db is None:
        received, noise_variance = clean, 0.0
    else:
        energy = float(np.mean(np.abs(constellation.points) ** 2))
        noise_variance = noise_variance_for_snr(channel, energy, snr_db)
        received = clean + awgn(clean.shape, noise_variance, rng)
    return ChannelUse(channel=channel, received=received,
                      constellation=constellation, transmitted_bits=bits,
                      transmitted_symbols=symbols,
                      noise_variance=noise_variance, snr_db=snr_db)


def oracle_generate(generator, num_bursts, rng, start_time_us):
    """``PoissonTrafficGenerator.generate``'s draws, in its order, each
    channel through ``trace.channel_use`` and :func:`oracle_transmit`;
    ``(arrival, user, frame, subcarrier, seed, channel use)`` per job."""
    trace, names = generator.trace, generator._modulation_names
    jobs, now = [], float(start_time_us)
    for _ in range(num_bursts):
        now += float(rng.exponential(generator.mean_interarrival_us))
        user = int(rng.integers(trace.num_users))
        name = names[int(rng.choice(len(names),
                                    p=generator._modulation_probs))]
        frame = int(rng.integers(trace.num_frames))
        subcarriers = np.sort(rng.choice(trace.num_subcarriers,
                                         size=generator.burst_subcarriers,
                                         replace=False))
        for subcarrier in subcarriers:
            subset = rng.choice(trace.num_bs_antennas,
                                size=generator.num_rx_antennas, replace=False)
            use = oracle_transmit(
                generator._links[name], rng,
                channel=trace.channel_use(frame, int(subcarrier), subset),
                snr_db=float(generator.user_snrs_db[user]))
            jobs.append((now, user, frame, int(subcarrier),
                         int(rng.integers(0, 2**63 - 1)), use))
    return jobs


@pytest.fixture(scope="module")
def trace():
    return ArgosLikeTraceGenerator(num_bs_antennas=12, num_users=3,
                                   num_subcarriers=8).generate(
        num_frames=3, random_state=5)


def mixed_generator(trace):
    """BPSK, QPSK and 16-QAM, per-user SNRs, four of twelve antennas."""
    return PoissonTrafficGenerator(
        trace, modulations={"BPSK": 1.0, "QPSK": 2.0, "16-QAM": 1.0},
        mean_interarrival_us=700.0, burst_subcarriers=3,
        user_snrs_db=(12.0, 18.5, 27.0), deadline_us=40_000.0,
        num_rx_antennas=4)


def chained_calls(generator):
    """Two chained calls: an int seed, then a generator from the end of
    the first call's arrivals."""
    first = generator.generate(9, random_state=11)
    second = generator.generate(6, random_state=np.random.default_rng(12),
                                start_time_us=first[-1].arrival_time_us)
    return first, second


#: ``transmit`` keyword sets: drawn bits and channel, caller-given bits
#: (an int array), a caller-given channel, and both (bits as a list).
def transmit_cases():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=16)
    channel = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    return {"drawn": {}, "bits": {"bits": bits},
            "channel": {"channel": channel},
            "both": {"bits": list(bits), "channel": channel}}


class TestTrafficGoldens:
    def test_chained_mixed_load_equals_its_digests(self, trace, golden):
        first, second = chained_calls(mixed_generator(trace))
        assert {job.channel_use.constellation.name
                for job in first + second} == {"BPSK", "QPSK", "16-QAM"}
        golden("synthesis_traffic_first", jobs_payload(first))
        golden("synthesis_traffic_chained", jobs_payload(second))

    def test_chained_mixed_load_equals_the_oracle(self, trace):
        generator = mixed_generator(trace)
        first, second = chained_calls(generator)
        oracle = mixed_generator(trace)
        expected = oracle_generate(oracle, 9, np.random.default_rng(11), 0.0)
        expected += oracle_generate(oracle, 6, np.random.default_rng(12),
                                    first[-1].arrival_time_us)
        jobs = first + second
        assert [job.job_id for job in jobs] == list(range(len(expected)))
        for job, (arrival, user, frame, subcarrier, seed, use) in zip(
                jobs, expected, strict=True):
            assert (job.arrival_time_us, job.user_id, job.frame,
                    job.subcarrier, job.seed) == (arrival, user, frame,
                                                  subcarrier, seed)
            assert job.deadline_us == arrival + 40_000.0
            assert_same_use(job.channel_use, use)

    def test_a_non_finite_trace_entry_is_refused_when_drawn(self, trace):
        channels = trace.channels.copy()
        channels[:, :, :, 0] = np.nan
        generator = PoissonTrafficGenerator(ChannelTrace(channels),
                                            modulations="QPSK")
        with pytest.raises(ConfigurationError, match="channel must be "
                                                     "finite"):
            generator.generate(1, random_state=0)

    def test_bad_generate_arguments_are_refused(self, trace):
        generator = mixed_generator(trace)
        with pytest.raises(ConfigurationError):
            generator.generate(0, random_state=0)
        with pytest.raises(SchedulingError):
            generator.generate(1, random_state=0, start_time_us=math.nan)


class TestTransmitGoldens:
    @staticmethod
    def link():
        return MimoUplink(num_users=4, constellation="16-QAM",
                          num_rx_antennas=6)

    def test_every_keyword_set_equals_its_digest(self, golden):
        link = self.link()
        payload = {f"{case}_{snr_db}": use_payload(link.transmit(
                       random_state=21, snr_db=snr_db, **keywords))
                   for case, keywords in transmit_cases().items()
                   for snr_db in (None, 17.0)}
        golden("synthesis_transmit", payload)

    @pytest.mark.parametrize("snr_db", [None, 17.0])
    @pytest.mark.parametrize("case", sorted(transmit_cases()))
    def test_every_keyword_set_equals_the_oracle(self, case, snr_db):
        link, keywords = self.link(), transmit_cases()[case]
        rng, oracle_rng = (np.random.default_rng(21) for _ in range(2))
        got = link.transmit(random_state=rng, snr_db=snr_db, **keywords)
        assert_same_use(got, oracle_transmit(link, oracle_rng,
                                             snr_db=snr_db, **keywords))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_caller_arrays_are_not_aliased_differently(self):
        """Given bits are copied (the caller may reuse its buffer); a
        given ``complex128`` channel is kept, as before."""
        link = self.link()
        bits = np.zeros(16, dtype=np.uint8)
        channel = np.eye(6, 4, dtype=np.complex128)
        use = link.transmit(bits=bits, channel=channel, random_state=0)
        assert use.transmitted_bits is not bits
        assert use.channel is channel

    @pytest.mark.parametrize("keywords, match", [
        ({"bits": [0, 1, 2] + [0] * 13}, "0 or 1"),
        ({"bits": [0, 1]}, "length 16"),
        ({"channel": np.eye(4, dtype=complex)}, "shape"),
        ({"channel": np.full((6, 4), np.nan, dtype=complex)},
         "channel must be finite"),
    ])
    def test_bad_inputs_are_refused(self, keywords, match):
        with pytest.raises(ConfigurationError, match=match):
            self.link().transmit(random_state=0, snr_db=10.0, **keywords)

    def test_map_bits_checks_and_equals_the_per_user_lookup(self):
        mapper = SymbolMapper(constellation=QPSK, num_users=3)
        bits = [1, 0, 0, 1, 1, 1]
        expected = np.array([QPSK.bits_to_symbol(bits[k:k + 2])
                             for k in range(0, 6, 2)])
        assert mapper.map_bits(bits).tobytes() == expected.tobytes()
        with pytest.raises(ConfigurationError):
            mapper.map_bits([1, 0, 2, 1, 1, 1])

    def test_trusted_construction_still_checks_finiteness(self):
        use = self.link().transmit(random_state=0, snr_db=10.0)
        received = use.received.copy()
        received[0] = np.inf
        with pytest.raises(ConfigurationError, match="received must be "
                                                     "finite"):
            ChannelUse.from_arrays(use.channel, received, use.constellation,
                                   use.transmitted_bits,
                                   use.transmitted_symbols,
                                   use.noise_variance, use.snr_db)

    def test_average_energy_is_computed_once(self):
        link = self.link()
        energy = link.constellation.average_energy
        assert energy == float(np.mean(np.abs(link.constellation.points)
                                       ** 2))
        assert link.constellation.__dict__["average_energy"] is energy
