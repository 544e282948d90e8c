"""Tests for the ingress gateway: merging, admission control, re-stamping."""

import threading

import pytest

from repro.channel.trace import ArgosLikeTraceGenerator
from repro.cran.gateway import IngressGateway
from repro.cran.service import CranService
from repro.cran.traffic import PoissonTrafficGenerator
from repro.exceptions import SchedulingError


@pytest.fixture(scope="module")
def traffic():
    trace = ArgosLikeTraceGenerator(num_bs_antennas=8, num_users=2,
                                    num_subcarriers=6).generate(
        num_frames=2, random_state=0)
    generator = PoissonTrafficGenerator(
        trace, modulations=("BPSK", "QPSK"), mean_interarrival_us=2_000.0,
        burst_subcarriers=2, deadline_us=100_000.0)
    return generator.generate(10, random_state=11)


def make_service(**kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_us", 5_000.0)
    return CranService(**kwargs)


class TestIngressGateway:
    def test_single_producer_matches_run(self, traffic):
        # An in-order single-producer feed is exactly the batch interface:
        # same scheduling decisions, detections and telemetry.
        batch_report = make_service().run(traffic)
        gateway = make_service().gateway()
        for job in traffic:
            assert gateway.submit(job)
        report = gateway.close()
        assert [r.job.job_id for r in report.results] == \
            [r.job.job_id for r in batch_report.results]
        for a, b in zip(report.results, batch_report.results):
            assert (a.result.detection.bits == b.result.detection.bits).all()
            assert a.flush_time_us == b.flush_time_us
            assert a.finish_time_us == b.finish_time_us
        ingress = report.telemetry.pop("ingress")
        assert report.telemetry == batch_report.telemetry
        assert ingress["offered"] == len(traffic)
        assert ingress["dispatched"] == len(traffic)
        assert ingress["gateway_shed"] == 0
        assert ingress["late_restamped"] == 0
        assert ingress["cells"] == len({job.user_id for job in traffic})

    def test_close_is_idempotent_and_submit_after_close_rejected(self,
                                                                 traffic):
        gateway = make_service().gateway()
        gateway.submit(traffic[0])
        report = gateway.close()
        assert gateway.close() is report
        assert gateway.closed
        with pytest.raises(SchedulingError, match="closed"):
            gateway.submit(traffic[1])

    def test_concurrent_producers_decode_every_admitted_job(self, traffic):
        # One producer thread per cell, racing: every job is admitted
        # (block policy) and decoded; re-stamping keeps the scheduler's
        # clock monotone whatever the interleaving.
        gateway = make_service().gateway(admission_limit=4,
                                         overload_policy="block")
        by_cell = {}
        for job in traffic:
            by_cell.setdefault(job.user_id, []).append(job)

        def feed(cell, jobs):
            for job in jobs:
                gateway.submit(job, cell=cell)

        threads = [threading.Thread(target=feed, args=item)
                   for item in by_cell.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = gateway.close()
        assert [r.job.job_id for r in report.results] == \
            [job.job_id for job in sorted(traffic, key=lambda j: j.job_id)]
        assert report.shed_jobs == []
        ingress = report.telemetry["ingress"]
        assert ingress["dispatched"] == len(traffic)
        assert ingress["cells"] == len(by_cell)

    def test_concurrent_results_bit_identical_to_serial(self, traffic):
        # Whatever the producer interleaving does to *timing*, the decoded
        # bits of every job are those of the in-order batch replay.
        serial = {r.job.job_id: r.result.detection.bits
                  for r in make_service().run(traffic).results}
        gateway = make_service().gateway(overload_policy="block")
        threads = [
            threading.Thread(target=lambda chunk=chunk: [
                gateway.submit(job, cell=index) for job in chunk])
            for index, chunk in enumerate(
                (traffic[0::2], traffic[1::2]))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = gateway.close()
        assert len(report.results) == len(traffic)
        for result in report.results:
            assert (result.result.detection.bits ==
                    serial[result.job.job_id]).all()

    def test_late_submission_restamped_not_rejected(self, traffic):
        gateway = make_service().gateway()
        # Push the scheduler clock forward, then offer a job whose nominal
        # arrival is far in the past.
        last = traffic[-1]
        assert gateway.submit(last, cell="fast")
        early = traffic[0]
        assert early.arrival_time_us < last.arrival_time_us
        # Wait until the dispatcher has actually advanced the clock, or the
        # early job might win the merge race and arrive on time.
        for _ in range(2_000):
            if gateway._session.clock_us >= last.arrival_time_us:
                break
            threading.Event().wait(0.001)
        assert gateway.submit(early, cell="slow")
        report = gateway.close()
        ingress = report.telemetry["ingress"]
        assert ingress["late_restamped"] == 1
        restamped = [r for r in report.results
                     if r.job.job_id == early.job_id]
        assert len(restamped) == 1
        # Re-stamped to the merge point, never decoded under a stale clock.
        assert restamped[0].job.arrival_time_us >= last.arrival_time_us
        assert restamped[0].job.deadline_us >= \
            restamped[0].job.arrival_time_us

    def test_admission_limit_sheds_into_report(self, traffic):
        # A gateway that cannot dispatch (scheduler wedged behind a slow
        # consumer) is simulated by flooding far past the admission bound
        # from one thread while the dispatcher competes for the same jobs;
        # with the shed policy the report must account every offered job.
        gateway = make_service().gateway(admission_limit=1,
                                         overload_policy="shed")
        admitted = [gateway.submit(job) for job in traffic]
        report = gateway.close()
        ingress = report.telemetry["ingress"]
        assert ingress["offered"] == len(traffic)
        assert ingress["gateway_shed"] == len(traffic) - sum(admitted)
        assert len(report.results) == sum(admitted)
        assert sum(admitted) >= 1
        shed_ids = {job.job_id for job in report.shed_jobs}
        decoded_ids = {r.job.job_id for r in report.results}
        assert shed_ids | decoded_ids == {job.job_id for job in traffic}
        assert not (shed_ids & decoded_ids)

    def test_per_cell_limit_isolates_cells(self, traffic):
        gateway = make_service().gateway(admission_limit=64,
                                         per_cell_limit=1,
                                         overload_policy="shed")
        # Stall the merge by never starting: feed from this thread only;
        # the dispatcher drains concurrently, so admissions interleave, but
        # a per-cell bound of 1 can never hold two jobs of one cell at once.
        results = [gateway.submit(job) for job in traffic]
        report = gateway.close()
        assert sum(results) == len(report.results)
        assert report.telemetry["ingress"]["backlog_max"] <= \
            len({job.user_id for job in traffic})

    def test_invalid_configuration_rejected(self):
        service = make_service()
        with pytest.raises(SchedulingError):
            IngressGateway(service, overload_policy="panic")
        with pytest.raises(Exception):
            IngressGateway(service, admission_limit=0)
        with pytest.raises(Exception):
            IngressGateway(service, per_cell_limit=0)
