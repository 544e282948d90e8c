"""Tests for the OFDM decoding pipeline."""

import numpy as np
import pytest

from repro.annealer.chimera import ChimeraGraph
from repro.annealer.ice import ICEModel
from repro.annealer.machine import AnnealerParameters, QuantumAnnealerSimulator
from repro.decoder.pipeline import OFDMDecodingPipeline, PipelineReport
from repro.decoder.quamax import QuAMaxDecoder
from repro.exceptions import DetectionError
from repro.mimo.system import ChannelUse, MimoUplink
from repro.modulation import QPSK
from repro.utils.random import child_rngs, ensure_rng


@pytest.fixture(scope="module")
def pipeline():
    machine = QuantumAnnealerSimulator(ChimeraGraph.ideal(4, 4),
                                       ice=ICEModel.disabled())
    decoder = QuAMaxDecoder(machine, AnnealerParameters(num_anneals=20),
                            random_state=0)
    return OFDMDecodingPipeline(decoder)


def make_channel_uses(count, num_users=3, constellation="QPSK", seed=0):
    link = MimoUplink(num_users=num_users, constellation=constellation)
    rng = np.random.default_rng(seed)
    return [link.transmit(random_state=rng) for _ in range(count)]


class TestDecodeSubcarriers:
    def test_all_subcarriers_decoded(self, pipeline):
        channel_uses = make_channel_uses(3)
        report = pipeline.decode_subcarriers(channel_uses, random_state=1)
        assert isinstance(report, PipelineReport)
        assert report.num_subcarriers == 3
        assert report.total_compute_time_us > 0

    def test_noiseless_pipeline_has_zero_ber(self, pipeline):
        channel_uses = make_channel_uses(3, seed=1)
        report = pipeline.decode_subcarriers(channel_uses, random_state=2)
        assert report.total_bit_errors == 0
        assert report.bit_error_rate() == 0.0

    def test_empty_input_rejected(self, pipeline):
        with pytest.raises(DetectionError):
            pipeline.decode_subcarriers([])

    def test_missing_ground_truth_gives_none_ber(self, pipeline):
        channel_use = make_channel_uses(1)[0]
        anonymous = ChannelUse(channel=channel_use.channel,
                               received=channel_use.received,
                               constellation=QPSK)
        report = pipeline.decode_subcarriers([anonymous], random_state=0)
        assert report.total_bit_errors is None
        assert report.bit_error_rate() is None

    def test_subcarrier_indices_recorded(self, pipeline):
        channel_uses = make_channel_uses(4, seed=2)
        report = pipeline.decode_subcarriers(channel_uses, random_state=3)
        assert [r.subcarrier for r in report.subcarrier_results] == [0, 1, 2, 3]

    def test_pack_is_the_one_job_decodes(self, pipeline):
        channel_uses = make_channel_uses(4, seed=7)
        report = pipeline.decode_subcarriers(channel_uses, random_state=5)
        alone = one_job_decodes(pipeline.decoder, channel_uses, 5)
        assert report.num_subcarriers == len(alone)
        for got, want in zip(report.subcarrier_results, alone):
            np.testing.assert_array_equal(got.result.detection.bits,
                                          want.detection.bits)


def one_job_decodes(decoder, channel_uses, seed):
    """Every subcarrier decoded alone, as a one-job decode on its own child
    stream of *seed*: what the packed paths must reproduce."""
    children = child_rngs(ensure_rng(seed), len(channel_uses))
    return [decoder.detect_with_run(use, random_state=child)
            for use, child in zip(channel_uses, children)]


class CountingDecoder:
    """Decoder stub that counts decode work while delegating to the real one."""

    def __init__(self, inner):
        self.inner = inner
        self.batch_calls = 0
        self.uses_decoded = 0

    def detect_batch(self, channel_uses, **kwargs):
        self.batch_calls += 1
        self.uses_decoded += len(channel_uses)
        return self.inner.detect_batch(channel_uses, **kwargs)


class TestFrameDecodeRunningEstimate:
    """decode_frame sizes every pack from the running decode estimate."""

    def test_lands_on_the_exit_in_one_submission(self, pipeline):
        # 3 users x 2 bits = 6 bits per use; a 3-byte frame needs exactly 4
        # uses, and the running estimate knows that before the first chunk.
        channel_uses = make_channel_uses(10, seed=9)
        counter = CountingDecoder(pipeline.decoder)
        counting = OFDMDecodingPipeline(counter)
        result = counting.decode_frame(channel_uses, frame_size_bytes=3,
                                       random_state=12)
        assert result.frame.is_complete
        assert counter.batch_calls == 1
        assert counter.uses_decoded == 4
        assert result.num_decoded == 4

    def test_frame_is_the_one_job_decodes(self, pipeline):
        channel_uses = make_channel_uses(10, seed=10)
        frame = pipeline.decode_frame(channel_uses, frame_size_bytes=3,
                                      random_state=13)
        alone = one_job_decodes(pipeline.decoder, channel_uses, 13)
        # Nothing past the exit point: 24 frame bits are four 6-bit uses.
        assert frame.num_decoded == len(frame.subcarrier_results) == 4
        assert frame.total_compute_time_us == sum(
            outcome.run.compute_time_us for outcome in alone[:4])
        for index, (got, want) in enumerate(
                zip(frame.subcarrier_results, alone)):
            assert got.subcarrier == index
            np.testing.assert_array_equal(got.result.detection.bits,
                                          want.detection.bits)
            np.testing.assert_array_equal(got.result.run.solutions.samples,
                                          want.run.solutions.samples)

    def test_estimate_walks_actual_payload_sizes(self, pipeline):
        # A frame larger than the remaining channel uses: the estimate caps
        # at the available uses and decodes them all in one submission.
        channel_uses = make_channel_uses(3, seed=12)
        counter = CountingDecoder(pipeline.decoder)
        counting = OFDMDecodingPipeline(counter)
        result = counting.decode_frame(channel_uses, frame_size_bytes=50,
                                       random_state=14)
        assert not result.frame.is_complete
        assert counter.batch_calls == 1
        assert result.num_decoded == 3

    def test_auto_chunk_size_helper(self):
        channel_uses = make_channel_uses(5, seed=13)  # 6 bits per use
        estimate = OFDMDecodingPipeline._auto_chunk_size
        assert estimate(channel_uses, 0, 24) == 4
        assert estimate(channel_uses, 0, 25) == 5
        assert estimate(channel_uses, 3, 6) == 1
        assert estimate(channel_uses, 0, 999) == 5  # capped at what is left
        assert estimate(channel_uses, 4, 1) == 1


class TestDecodeFrame:
    def test_frame_decodes_without_errors(self, pipeline):
        # 3 users x 2 bits = 6 bits per channel use; a 3-byte frame needs 4 uses.
        channel_uses = make_channel_uses(6, seed=3)
        frame = pipeline.decode_frame(channel_uses, frame_size_bytes=3,
                                      random_state=4).frame
        assert frame.is_complete
        assert not frame.is_errored()

    def test_frame_requires_ground_truth(self, pipeline):
        channel_use = make_channel_uses(1)[0]
        anonymous = ChannelUse(channel=channel_use.channel,
                               received=channel_use.received,
                               constellation=QPSK)
        with pytest.raises(DetectionError):
            pipeline.decode_frame([anonymous], frame_size_bytes=1)

    def test_no_channel_use_is_an_empty_frame(self, pipeline):
        result = pipeline.decode_frame([], frame_size_bytes=1, random_state=0)
        assert not result.frame.is_complete
        assert result.num_decoded == result.frame.bits_accumulated == 0
        assert result.subcarrier_results == []

    def test_frame_stops_once_complete(self, pipeline):
        channel_uses = make_channel_uses(10, seed=5)
        frame = pipeline.decode_frame(channel_uses, frame_size_bytes=1,
                                      random_state=6).frame
        # 8 frame bits need two 6-bit channel uses; accumulation stops there.
        assert frame.bits_accumulated <= 12

    def test_default_decoder_constructed_lazily(self):
        pipeline = OFDMDecodingPipeline()
        assert isinstance(pipeline.decoder, QuAMaxDecoder)
