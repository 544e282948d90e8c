"""OFDM multi-subcarrier decoding pipeline.

QuAMax assumes OFDM, so the ML-to-Ising reduction is performed once per
subcarrier (Section 3.2).  The pipeline decodes a batch of per-subcarrier
channel uses with one decoder and aggregates frame-level statistics.

Every decode goes through :meth:`QuAMaxDecoder.detect_batch`, the Section
5.5 parallelization: small problems leave room on the chip, so *different*
subcarriers' problems of one size share one QA run, one embedding,
temperature profile and sampler structure.  Every subcarrier draws from its
own child random stream of the caller's seed, so a subcarrier gets the
bits it gets decoded alone.  Frame decoding
(:meth:`OFDMDecodingPipeline.decode_frame`) adds the early exit: it packs
only the channel uses the running estimate says the frame still needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.decoder.quamax import QuAMaxDecoder, QuAMaxDetectionResult
from repro.exceptions import DetectionError
from repro.metrics.error_rates import bit_errors
from repro.mimo.frame import Frame
from repro.mimo.system import ChannelUse
from repro.utils.random import RandomState, child_rngs, ensure_rng


@dataclass(frozen=True)
class SubcarrierResult:
    """Outcome of decoding one subcarrier's channel use."""

    subcarrier: int
    result: QuAMaxDetectionResult
    bit_errors: Optional[int]


@dataclass
class PipelineReport:
    """Aggregate statistics of a pipeline pass over many subcarriers."""

    subcarrier_results: List[SubcarrierResult] = field(default_factory=list)

    @property
    def num_subcarriers(self) -> int:
        """Number of subcarriers decoded."""
        return len(self.subcarrier_results)

    @property
    def total_compute_time_us(self) -> float:
        """Total amortised compute time across subcarriers (µs)."""
        return float(sum(r.result.run.compute_time_us
                         for r in self.subcarrier_results))

    @property
    def total_bit_errors(self) -> Optional[int]:
        """Total bit errors, or ``None`` if any subcarrier lacked ground truth."""
        errors = [r.bit_errors for r in self.subcarrier_results]
        if any(e is None for e in errors):
            return None
        return int(sum(errors))

    def bit_error_rate(self) -> Optional[float]:
        """Aggregate BER across subcarriers (``None`` without ground truth)."""
        total_errors = self.total_bit_errors
        if total_errors is None:
            return None
        total_bits = sum(r.result.detection.bits.size
                         for r in self.subcarrier_results)
        if total_bits == 0:
            return 0.0
        return total_errors / total_bits


@dataclass(frozen=True)
class FrameResult:
    """Outcome of a frame decode: the frame plus its compute accounting.

    ``subcarrier_results`` holds exactly the channel uses whose bits were
    accumulated into the frame; ``num_decoded`` reports the decode work
    actually performed.  The frame's own accounting (completeness,
    accumulated bits, bit errors) is read from :attr:`frame`.
    """

    frame: Frame
    subcarrier_results: List[SubcarrierResult]
    num_decoded: int

    def bit_error_rate(self) -> float:
        """Bit error rate over the accumulated frame payload."""
        return self.frame.bit_error_rate()

    @property
    def total_compute_time_us(self) -> float:
        """Amortised QA compute time attributed to the frame (µs): the sum
        over the subcarriers whose bits entered the frame."""
        return float(sum(r.result.run.compute_time_us
                         for r in self.subcarrier_results))


class OFDMDecodingPipeline:
    """Decodes batches of per-subcarrier channel uses with one QuAMax decoder."""

    def __init__(self, decoder: Optional[QuAMaxDecoder] = None):
        self.decoder = decoder or QuAMaxDecoder()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _subcarrier_result(subcarrier: int, channel_use: ChannelUse,
                           outcome: QuAMaxDetectionResult) -> SubcarrierResult:
        if channel_use.transmitted_bits is not None:
            errors = bit_errors(channel_use.transmitted_bits,
                                outcome.detection.bits)
        else:
            errors = None
        return SubcarrierResult(subcarrier=subcarrier, result=outcome,
                                bit_errors=errors)

    def decode_subcarriers(self, channel_uses: Sequence[ChannelUse],
                           random_state: RandomState = None) -> PipelineReport:
        """Decode one channel use per subcarrier and aggregate the outcome.

        Subcarriers of one problem size and structure are annealed as one
        packed QA job (Section 5.5), each on its own child stream of
        *random_state*.
        """
        if not channel_uses:
            raise DetectionError("decode_subcarriers needs at least one channel use")
        outcomes = self.decoder.detect_batch(
            channel_uses, random_state=ensure_rng(random_state))
        report = PipelineReport()
        for subcarrier, (channel_use, outcome) in enumerate(
                zip(channel_uses, outcomes)):
            report.subcarrier_results.append(
                self._subcarrier_result(subcarrier, channel_use, outcome))
        return report

    @staticmethod
    def _auto_chunk_size(channel_uses: Sequence[ChannelUse], start: int,
                         remaining_bits: int) -> int:
        """Number of upcoming channel uses expected to complete the frame.

        Walks the undecoded channel uses, accumulating their payload sizes
        until *remaining_bits* are covered.  Because the estimate is recomputed
        from the frame's realised fill state before every submission, it
        adapts exactly like a running BER/goodput estimate: whenever the
        accounting credits fewer bits than a chunk carried (e.g. a frame
        variant that discards errored channel uses), the next chunk
        automatically grows to cover the shortfall.
        """
        covered = 0
        for count, channel_use in enumerate(channel_uses[start:], start=1):
            covered += channel_use.num_bits
            if covered >= remaining_bits:
                return count
        return len(channel_uses) - start

    def decode_frame(self, channel_uses: Sequence[ChannelUse],
                     frame_size_bytes: int,
                     random_state: RandomState = None) -> FrameResult:
        """Decode channel uses into a frame and return its error accounting.

        Channel uses are decoded in packed QA jobs whose size comes from the
        running decode estimate: before each submission the pipeline
        projects how many of the upcoming channel uses fill the frame's
        remaining bits, given the payload credited so far.  The first pack
        therefore ends exactly where the frame completes, and decoding stops
        there.

        Every subcarrier keeps its own child random stream derived once for
        the whole frame from *random_state*, so the frame and its accounting
        are the ones a decode of one channel use at a time produces.
        """
        channel_uses = list(channel_uses)
        for channel_use in channel_uses:
            if channel_use.transmitted_bits is None:
                raise DetectionError(
                    "frame decoding requires ground-truth bits on every "
                    "channel use"
                )
        rngs = list(child_rngs(ensure_rng(random_state), len(channel_uses)))
        frame = Frame(size_bytes=frame_size_bytes)
        accumulated: List[SubcarrierResult] = []
        start = 0
        while start < len(channel_uses) and not frame.is_complete:
            step = self._auto_chunk_size(
                channel_uses, start, frame.size_bits - frame.bits_accumulated)
            chunk = channel_uses[start:start + step]
            outcomes = self.decoder.detect_batch(
                chunk, random_states=rngs[start:start + step])
            for subcarrier, (channel_use, outcome) in enumerate(
                    zip(chunk, outcomes), start):
                frame.add(channel_use.transmitted_bits, outcome.detection.bits)
                accumulated.append(self._subcarrier_result(
                    subcarrier, channel_use, outcome))
            start += len(chunk)
        return FrameResult(frame=frame, subcarrier_results=accumulated,
                           num_decoded=start)
