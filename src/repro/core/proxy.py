"""Proxy layer: request dispatch and status synchronization (Figure 5).

The production system fronts the instance pool with a proxy/load-balancer
that synchronizes request metadata through a shared in-memory store
(Redis).  Here the :class:`StatusRegistry` plays that role — a single
source of truth for request state that instances and the server update —
and :class:`ProxyLayer` admits arriving requests.  :class:`Pump` is the
one request pump: it feeds any arrival-ordered source (a
:class:`~repro.workload.trace.Trace` or a
:class:`~repro.workload.stream.RequestStream`) into a submit callable,
for a single system's proxy and for the fleet runner alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..engine.request import Phase, Request
from ..sim import ContTask, Environment, Event

__all__ = ["StatusRegistry", "ProxyLayer", "Pump"]


@dataclass
class StatusRegistry:
    """Shared request-status store (the paper's Redis role)."""

    statuses: dict[int, str] = field(default_factory=dict)
    submitted: int = 0
    finished: int = 0
    failed: int = 0
    rejected: int = 0

    def update(self, request: Request) -> None:
        """Record a request's current phase."""
        if request.request_id not in self.statuses:
            self.submitted += 1
        previous = self.statuses.get(request.request_id)
        self.statuses[request.request_id] = request.phase.value
        if request.phase is Phase.FINISHED and previous != Phase.FINISHED.value:
            self.finished += 1
        elif request.phase is Phase.FAILED and previous != Phase.FAILED.value:
            self.failed += 1
        elif request.phase is Phase.REJECTED and previous != Phase.REJECTED.value:
            self.rejected += 1

    def forget(self, request_id: int) -> None:
        """Purge a terminal request's status entry; counters keep its tally."""
        self.statuses.pop(request_id, None)

    @property
    def in_flight(self) -> int:
        return self.submitted - self.finished - self.failed - self.rejected


class ProxyLayer:
    """Replays a workload, dispatching each arrival to the serving system.

    In the default *retaining* mode every submitted :class:`Request` is
    kept in ``requests`` for end-of-run analysis.  Fleet-scale streaming
    runs set ``retain=False``: only in-flight requests are tracked (in
    ``live``), and the serving system drops each request as soon as it
    reaches a terminal disposition — peak memory then scales with
    concurrency, not trace length.
    """

    def __init__(
        self,
        env: Environment,
        dispatch: Callable[[Request], None],
        registry: Optional[StatusRegistry] = None,
        retain: bool = True,
    ):
        self.env = env
        self.dispatch = dispatch
        self.registry = registry if registry is not None else StatusRegistry()
        self.retain = retain
        self.requests: list[Request] = []
        #: In-flight requests when ``retain`` is off (id -> request).
        self.live: dict[int, Request] = {}
        #: Total requests ever admitted (== len(requests) when retaining).
        self.submitted = 0
        self.all_submitted: Event = env.event()

    def admit(self, trace_request, spec) -> Request:
        """Build one arriving request, record it, and dispatch it."""
        request = Request(trace=trace_request, spec=spec)
        if self.retain:
            self.requests.append(request)
        else:
            self.live[request.request_id] = request
        self.submitted += 1
        self.registry.update(request)
        self.dispatch(request)
        return request

    def drop(self, request: Request) -> None:
        """Forget a terminally disposed request (non-retaining mode)."""
        self.live.pop(request.request_id, None)

    def tracked_requests(self):
        """Every request the proxy still knows about (analysis/invariants)."""
        return self.requests if self.retain else self.live.values()

    def replay(self, source) -> "Pump":
        """Start a :class:`Pump` admitting every request of ``source``.

        ``all_submitted`` succeeds once the source is exhausted.
        """
        return Pump(self.env, source, self.admit, self.all_submitted.succeed)


class Pump(ContTask):
    """The request pump: submits each request at its arrival time.

    Pulls ``source`` lazily, one request at a time (so lookahead stays
    bounded by the source's own contract), sleeps until each request's
    arrival and calls ``submit(trace_request, spec)``.  The next request
    is pulled in the same instant the previous one was submitted.
    ``exhausted`` (if given) runs once the source runs dry, just before
    the task terminates.
    """

    __slots__ = ("_source", "_spec_of", "_submit", "_exhausted", "_pending")

    def __init__(
        self,
        env: Environment,
        source,
        submit: Callable[..., object],
        exhausted: Optional[Callable[[], object]] = None,
    ) -> None:
        self._source = source
        self._spec_of = source.spec_of
        self._submit = submit
        self._exhausted = exhausted
        self._pending = None
        ContTask.__init__(self, env)

    def _start(self, value: object) -> Event:
        self._source = iter(self._source)
        self._send = self._arrived
        return self._next()

    def _arrived(self, value: object) -> Event:
        trace_request = self._pending
        self._submit(trace_request, self._spec_of(trace_request.model))
        return self._next()

    def _next(self) -> Event:
        env = self.env
        submit = self._submit
        spec_of = self._spec_of
        for trace_request in self._source:
            delay = trace_request.arrival - env.now
            if delay > 0:
                self._pending = trace_request
                return env.timeout(delay)
            submit(trace_request, spec_of(trace_request.model))
        if self._exhausted is not None:
            self._exhausted()
        raise StopIteration
