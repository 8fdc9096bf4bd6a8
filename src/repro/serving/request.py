"""Request/response types of the serving layer.

A :class:`ServeRequest` is one user generation job; submitting it to the
scheduler yields a :class:`ServeHandle`, which resolves to a
:class:`ServeResult` once the request leaves the system.  All timestamps
are *server simulated-clock* milliseconds (see :mod:`repro.serving.scheduler`),
so queueing and service latency compose with the cost-model decode times.

A request ends in exactly one of four states:

========== =============================================================
status     meaning
========== =============================================================
completed  decoded to eos / token budget; ``record`` holds the output
timeout    deadline passed (queued or mid-batch); partial ``record``
rejected   refused at admission (queue full or invalid request)
failed     an exception escaped decode; other requests were unaffected
========== =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..data.tasks import MultimodalSample
from ..decoding.metrics import DecodeRecord
from ..errors import ServingError

__all__ = [
    "ServeRequest",
    "ServeResult",
    "ServeHandle",
    "STATUS_COMPLETED",
    "STATUS_TIMEOUT",
    "STATUS_REJECTED",
    "STATUS_FAILED",
]

STATUS_COMPLETED = "completed"
STATUS_TIMEOUT = "timeout"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"

#: All terminal request states, for validation.
_STATUSES = (STATUS_COMPLETED, STATUS_TIMEOUT, STATUS_REJECTED, STATUS_FAILED)


@dataclass(frozen=True)
class ServeRequest:
    """One generation job as submitted by a client.

    ``gamma`` pins the speculation depth for this request; ``None`` means
    "use the engine's configured depth".  ``deadline_ms`` is a
    relative budget: the request times out once the server clock advances
    that far past its submission.
    """

    request_id: str                          #: caller-chosen unique id
    sample: MultimodalSample                 #: image + prompt to decode
    max_new_tokens: Optional[int] = None     #: per-request budget override
    deadline_ms: Optional[float] = None      #: relative deadline (server sim ms)
    gamma: Optional[int] = None              #: per-request speculation depth

    def __post_init__(self) -> None:
        """Validate the per-request overrides."""
        if not self.request_id:
            raise ServingError("request_id must be non-empty")
        if self.max_new_tokens is not None and self.max_new_tokens <= 0:
            raise ServingError(
                f"max_new_tokens must be positive, got {self.max_new_tokens}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.gamma is not None and self.gamma <= 0:
            raise ServingError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class ServeResult:
    """Terminal outcome of one request.

    ``record`` is the request's own solo-priced
    :class:`~repro.decoding.metrics.DecodeRecord` — present whenever the
    request was admitted (for ``timeout`` and ``failed`` it holds the
    tokens committed before the deadline/fault), ``None`` for requests
    that never started.
    """

    request_id: str
    status: str                              #: one of the ``STATUS_*`` constants
    record: Optional[DecodeRecord] = None    #: per-request decode metrics
    error: Optional[str] = None              #: failure / rejection reason
    submitted_ms: float = 0.0                #: server clock at submission
    started_ms: Optional[float] = None       #: server clock at admission (prefill)
    finished_ms: Optional[float] = None      #: server clock at retirement

    def __post_init__(self) -> None:
        """Reject unknown status strings early."""
        if self.status not in _STATUSES:
            raise ServingError(f"unknown status {self.status!r}; expected {_STATUSES}")

    @property
    def ok(self) -> bool:
        """True when the request produced a complete generation."""
        return self.status == STATUS_COMPLETED

    @property
    def queue_ms(self) -> Optional[float]:
        """Server ms spent waiting for admission (None if never admitted)."""
        if self.started_ms is None:
            return None
        return self.started_ms - self.submitted_ms

    @property
    def service_ms(self) -> Optional[float]:
        """Server ms spent in the batch, prefill included (None if never admitted)."""
        if self.started_ms is None or self.finished_ms is None:
            return None
        return self.finished_ms - self.started_ms


class ServeHandle:
    """Future-like view of a submitted request.

    The scheduler resolves the handle exactly once, on the one thread that
    drives it (see :mod:`repro.serving.scheduler`), so nothing can resolve
    a handle while a caller waits on it: :meth:`result` returns at once or
    raises.
    """

    def __init__(self, request: ServeRequest, submitted_ms: float) -> None:
        self.request = request
        self.submitted_ms = submitted_ms
        self._result: Optional[ServeResult] = None

    @property
    def request_id(self) -> str:
        """The wrapped request's id."""
        return self.request.request_id

    @property
    def done(self) -> bool:
        """True once a terminal :class:`ServeResult` is available."""
        return self._result is not None

    def resolve(self, result: ServeResult) -> None:
        """Set the terminal result (scheduler-internal; one-shot)."""
        if self._result is not None:
            raise ServingError(f"request {self.request_id!r} already resolved")
        self._result = result

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """The :class:`ServeResult`; raises :class:`ServingError` while unresolved.

        ``timeout`` is accepted for future-like call sites and ignored: with
        one thread driving the scheduler, waiting could never end.
        """
        if self._result is None:
            raise ServingError(f"request {self.request_id!r} is not resolved")
        return self._result

    def __repr__(self) -> str:
        status = self._result.status if self._result else "pending"
        return f"ServeHandle({self.request_id!r}, {status})"


def expiry_ms(handle: ServeHandle) -> Optional[float]:
    """Absolute server-clock deadline of a handle (None = no deadline)."""
    deadline = handle.request.deadline_ms
    if deadline is None:
        return None
    return handle.submitted_ms + deadline
