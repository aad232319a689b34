"""Workload synthesis: arrivals, datasets, market skew, traces, streams.

Two request APIs coexist:

* **Streaming** (:class:`RequestStream`, :func:`stream_trace`,
  :func:`market_stream`, :func:`deployment_stream`) — arrival-ordered
  iterables with bounded lookahead, the fleet-scale path.
* **Materialized** (:class:`Trace`, :func:`materialize_trace`) — the
  classic full-list format, still used by figure-scale benchmarks.
  ``RequestStream.materialize()`` bridges streaming → materialized; a
  ``Trace`` is itself iterable, so serving systems accept either.
"""

from .agentic import (
    AgenticConfig,
    AgenticRequest,
    SessionPlan,
    StagePlan,
    agent_variant_groups,
    agentic_stream,
    draw_session_plan,
)
from .arrivals import BurstConfig, bursty_arrivals, poisson_arrivals, rate_series
from .market import (
    MarketShape,
    PRODUCTION_SHAPE,
    deployment_rates,
    deployment_stream,
    market_rates,
    market_stream,
    request_share_cdf,
)
from .sharegpt import (
    Dataset,
    LengthSample,
    SHAREGPT,
    sharegpt,
    sharegpt_ix2,
    sharegpt_ox2,
)
from .stream import RequestStream, merge_streams, stream_trace
from .trace import Trace, TraceRequest, materialize_trace

__all__ = [
    "AgenticConfig",
    "AgenticRequest",
    "BurstConfig",
    "Dataset",
    "LengthSample",
    "MarketShape",
    "PRODUCTION_SHAPE",
    "RequestStream",
    "SHAREGPT",
    "SessionPlan",
    "StagePlan",
    "Trace",
    "TraceRequest",
    "agent_variant_groups",
    "agentic_stream",
    "bursty_arrivals",
    "deployment_rates",
    "deployment_stream",
    "draw_session_plan",
    "market_rates",
    "market_stream",
    "materialize_trace",
    "merge_streams",
    "poisson_arrivals",
    "rate_series",
    "request_share_cdf",
    "sharegpt",
    "sharegpt_ix2",
    "sharegpt_ox2",
    "stream_trace",
]
