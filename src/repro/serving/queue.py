"""Bounded FIFO admission queue with deadline expiry.

Admission control is the serving layer's backpressure mechanism: the queue
holds at most ``max_depth`` waiting requests and :meth:`AdmissionQueue.submit`
raises :class:`~repro.errors.AdmissionError` when full, so overload turns
into an explicit, immediate signal instead of unbounded latency.  The
scheduler additionally expires queued requests whose deadline passes before
they are ever admitted (:meth:`AdmissionQueue.expire`).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..errors import AdmissionError, ServingError
from .request import ServeHandle, ServeRequest, expiry_ms

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Bounded FIFO of :class:`~repro.serving.request.ServeHandle` objects.

    Driven by one thread, like the scheduler that owns it (no locks);
    :attr:`depth` reads the current backlog.
    """

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth <= 0:
            raise ServingError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        self._items: deque = deque()
        #: ids submitted and not yet released: queued, in the batch or backing off
        self._ids: set = set()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of requests currently waiting."""
        return len(self._items)

    @property
    def free(self) -> int:
        """Remaining admission capacity."""
        return self.max_depth - len(self._items)

    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest, now_ms: float) -> ServeHandle:
        """Enqueue ``request``; raises :class:`AdmissionError` when full.

        ``now_ms`` (server clock) is stamped as the submission time, from
        which any relative deadline is anchored.  Duplicate request ids are
        refused — per-request attribution relies on their uniqueness.  An
        id stays taken from here until :meth:`release`, so it is refused
        while the request is queued, in the batch, or waiting out a retry
        backoff.
        """
        if len(self._items) >= self.max_depth:
            raise AdmissionError(
                f"queue full ({self.max_depth} waiting); "
                f"request {request.request_id!r} refused"
            )
        if request.request_id in self._ids:
            raise AdmissionError(f"duplicate request_id {request.request_id!r}")
        handle = ServeHandle(request, submitted_ms=now_ms)
        self._items.append(handle)
        self._ids.add(request.request_id)
        return handle

    def pop_ready(self, k: int) -> List[ServeHandle]:
        """Dequeue up to ``k`` handles, oldest first."""
        if k <= 0:
            return []
        return [self._items.popleft() for _ in range(min(k, len(self._items)))]

    def requeue(self, handle: ServeHandle) -> None:
        """Front-insert a handle (retry re-admission).

        Capacity-exempt: a retried request already passed admission once
        and holds an unresolved handle a client is waiting on, so
        backpressure must not orphan it.  It joins the *front* of the
        queue — by submission time it is the oldest waiter.
        """
        self._items.appendleft(handle)

    def release(self, request_id: str) -> None:
        """Free a resolved request's id for a later :meth:`submit`."""
        self._ids.discard(request_id)

    def oldest_wait_ms(self, now_ms: float) -> Optional[float]:
        """Queue time of the oldest waiter (None when empty).

        The scheduler's load-shedding pressure signal: sustained growth
        here means admission is outpacing service.
        """
        if not self._items:
            return None
        return now_ms - self._items[0].submitted_ms

    def shed_newest(self, target_depth: int) -> List[ServeHandle]:
        """Drop handles from the *tail* until at most ``target_depth`` wait.

        The scheduler's shed policy (reject-newest): the oldest requests
        (closest to service, longest already invested) keep their place.
        Returns the shed handles for the scheduler to reject.
        """
        if target_depth < 0:
            raise ServingError(f"target_depth must be non-negative, got {target_depth}")
        shed: List[ServeHandle] = []
        while len(self._items) > target_depth:
            shed.append(self._items.pop())
        return shed

    def expire(self, now_ms: float) -> List[ServeHandle]:
        """Remove and return queued handles whose deadline has passed."""
        expired: List[ServeHandle] = []
        kept: deque = deque()
        for handle in self._items:
            limit = expiry_ms(handle)
            if limit is not None and now_ms >= limit:
                expired.append(handle)
            else:
                kept.append(handle)
        self._items = kept
        return expired

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:
        return f"AdmissionQueue(depth={self.depth}, max_depth={self.max_depth})"
