"""Request types and admission queue: validation, backpressure, expiry."""

from __future__ import annotations

import pytest

from repro.data.tasks import make_dataset
from repro.errors import AdmissionError, ServingError
from repro.serving import AdmissionQueue, ServeRequest, ServeResult
from repro.serving.request import (
    STATUS_COMPLETED,
    STATUS_REJECTED,
    ServeHandle,
    expiry_ms,
)


@pytest.fixture(scope="module")
def sample():
    return make_dataset("coco-sim", 1, seed=0).samples[0]


class TestServeRequest:
    def test_valid_defaults(self, sample):
        req = ServeRequest(request_id="r1", sample=sample)
        assert req.max_new_tokens is None
        assert req.deadline_ms is None
        assert req.gamma is None

    @pytest.mark.parametrize("kwargs", [
        dict(request_id=""),
        dict(max_new_tokens=0),
        dict(max_new_tokens=-3),
        dict(deadline_ms=0.0),
        dict(gamma=0),
    ])
    def test_invalid_fields_rejected(self, sample, kwargs):
        fields = dict(request_id="r1", sample=sample)
        fields.update(kwargs)
        with pytest.raises(ServingError):
            ServeRequest(**fields)


class TestServeResult:
    def test_unknown_status_rejected(self):
        with pytest.raises(ServingError):
            ServeResult(request_id="r1", status="exploded")

    def test_latency_properties(self):
        result = ServeResult(
            request_id="r1", status=STATUS_COMPLETED,
            submitted_ms=10.0, started_ms=40.0, finished_ms=100.0,
        )
        assert result.ok
        assert result.queue_ms == 30.0
        assert result.service_ms == 60.0

    def test_never_started_has_no_latencies(self):
        result = ServeResult(request_id="r1", status=STATUS_REJECTED, submitted_ms=5.0)
        assert not result.ok
        assert result.queue_ms is None
        assert result.service_ms is None


class TestServeHandle:
    def test_resolves_once(self, sample):
        handle = ServeHandle(ServeRequest(request_id="r1", sample=sample), submitted_ms=0.0)
        assert not handle.done
        result = ServeResult(request_id="r1", status=STATUS_COMPLETED)
        handle.resolve(result)
        assert handle.done
        assert handle.result() is result
        with pytest.raises(ServingError):
            handle.resolve(result)

    def test_result_times_out_when_pending(self, sample):
        handle = ServeHandle(ServeRequest(request_id="r1", sample=sample), submitted_ms=0.0)
        with pytest.raises(ServingError):
            handle.result(timeout=0.01)

    def test_expiry_is_submission_plus_deadline(self, sample):
        request = ServeRequest(request_id="r1", sample=sample, deadline_ms=50.0)
        assert expiry_ms(ServeHandle(request, submitted_ms=100.0)) == 150.0
        no_deadline = ServeRequest(request_id="r2", sample=sample)
        assert expiry_ms(ServeHandle(no_deadline, submitted_ms=100.0)) is None


class TestAdmissionQueue:
    def _req(self, sample, rid, **kw):
        return ServeRequest(request_id=rid, sample=sample, **kw)

    def test_fifo_and_depth(self, sample):
        queue = AdmissionQueue(max_depth=4)
        for i in range(3):
            queue.submit(self._req(sample, f"r{i}"), now_ms=0.0)
        assert queue.depth == 3
        assert queue.free == 1
        taken = queue.pop_ready(2)
        assert [h.request_id for h in taken] == ["r0", "r1"]
        assert queue.depth == 1

    def test_full_queue_raises_admission_error(self, sample):
        queue = AdmissionQueue(max_depth=2)
        queue.submit(self._req(sample, "r0"), now_ms=0.0)
        queue.submit(self._req(sample, "r1"), now_ms=0.0)
        with pytest.raises(AdmissionError):
            queue.submit(self._req(sample, "r2"), now_ms=0.0)

    def test_duplicate_id_refused(self, sample):
        queue = AdmissionQueue(max_depth=4)
        queue.submit(self._req(sample, "r0"), now_ms=0.0)
        with pytest.raises(AdmissionError):
            queue.submit(self._req(sample, "r0"), now_ms=0.0)
        # the id stays taken after leaving the queue, until released
        queue.pop_ready(1)
        with pytest.raises(AdmissionError):
            queue.submit(self._req(sample, "r0"), now_ms=0.0)
        queue.release("r0")
        queue.submit(self._req(sample, "r0"), now_ms=0.0)

    def test_expire_removes_overdue_only(self, sample):
        queue = AdmissionQueue(max_depth=8)
        queue.submit(self._req(sample, "tight", deadline_ms=10.0), now_ms=0.0)
        queue.submit(self._req(sample, "loose", deadline_ms=1000.0), now_ms=0.0)
        queue.submit(self._req(sample, "none"), now_ms=0.0)
        expired = queue.expire(now_ms=50.0)
        assert [h.request_id for h in expired] == ["tight"]
        assert queue.depth == 2

    def test_invalid_depth_rejected(self):
        with pytest.raises(ServingError):
            AdmissionQueue(max_depth=0)
