"""Continuous-batching serving layer over :class:`~repro.core.engine.AASDEngine`.

The subsystem has four parts (see ``docs/serving.md``):

* :mod:`~repro.serving.request` — the request/response types
  (:class:`ServeRequest`, :class:`ServeResult`, :class:`ServeHandle`);
* :mod:`~repro.serving.queue` — bounded FIFO admission control
  (:class:`AdmissionQueue`, raising
  :class:`~repro.errors.AdmissionError` on overload);
* :mod:`~repro.serving.scheduler` — the continuous-batching round loop
  (:class:`ContinuousBatchingScheduler`) and the synchronous
  :func:`serve_requests` facade for offline throughput runs;
* :mod:`~repro.serving.resilience` — the retry / circuit-breaker /
  shedding policies and their threshold constants, switched on per
  scheduler by ``ServingConfig(retry=..., breaker=..., max_queue_ms=...)``.
"""

from .queue import AdmissionQueue
from .request import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ServeHandle,
    ServeRequest,
    ServeResult,
)
from .resilience import CircuitBreaker
from .scheduler import (
    ContinuousBatchingScheduler,
    ServingConfig,
    ServingReport,
    serve_requests,
)

__all__ = [
    "ServeRequest",
    "ServeResult",
    "ServeHandle",
    "STATUS_COMPLETED",
    "STATUS_TIMEOUT",
    "STATUS_REJECTED",
    "STATUS_FAILED",
    "AdmissionQueue",
    "ServingConfig",
    "ServingReport",
    "ContinuousBatchingScheduler",
    "serve_requests",
    "CircuitBreaker",
]
