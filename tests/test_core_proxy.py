"""Tests for the proxy layer, status registry, and request lifecycle."""

import pytest

from repro.core import ProxyLayer, StatusRegistry
from repro.engine import Phase, Request
from repro.models import get_model, market_mix
from repro.sim import Environment
from repro.workload import sharegpt, materialize_trace
from repro.workload.trace import TraceRequest


class TestProxyReplay:
    def test_dispatches_at_arrival_times(self):
        env = Environment()
        seen = []
        proxy = ProxyLayer(env, lambda request: seen.append((env.now, request)))
        models = market_mix(2)
        trace = materialize_trace(models, [0.5, 0.5], sharegpt(), horizon=30.0, seed=3)
        proxy.replay(trace)
        env.run()
        assert len(seen) == len(trace)
        for (time, request), trace_request in zip(seen, trace.requests):
            assert time == pytest.approx(trace_request.arrival)
            assert request.request_id == trace_request.request_id

    def test_all_submitted_event(self):
        env = Environment()
        proxy = ProxyLayer(env, lambda request: None)
        models = market_mix(1)
        trace = materialize_trace(models, [0.2], sharegpt(), horizon=20.0, seed=4)
        proxy.replay(trace)
        env.run()
        assert proxy.all_submitted.triggered
        assert len(proxy.requests) == len(trace)


class TestStatusRegistry:
    def make_request(self, request_id=0):
        trace = TraceRequest(
            request_id=request_id,
            model="Qwen-7B",
            arrival=0.0,
            input_tokens=10,
            output_tokens=2,
        )
        return Request(trace=trace, spec=get_model("Qwen-7B"))

    def test_counts(self):
        registry = StatusRegistry()
        request = self.make_request()
        registry.update(request)
        assert registry.submitted == 1
        assert registry.in_flight == 1
        request.record_tokens([1.0, 1.1])
        request.complete(1.1)
        registry.update(request)
        assert registry.finished == 1
        assert registry.in_flight == 0

    def test_duplicate_finish_not_double_counted(self):
        registry = StatusRegistry()
        request = self.make_request()
        registry.update(request)
        request.record_tokens([1.0, 1.1])
        request.complete(1.1)
        registry.update(request)
        registry.update(request)
        assert registry.finished == 1


class TestRequestLifecycle:
    def make_request(self, out=3):
        trace = TraceRequest(
            request_id=1, model="Qwen-7B", arrival=2.0, input_tokens=8, output_tokens=out
        )
        return Request(trace=trace, spec=get_model("Qwen-7B"))

    def test_progress_properties(self):
        request = self.make_request(out=3)
        assert request.remaining_tokens == 3
        assert request.context_tokens == 8
        request.record_tokens([3.0])
        assert request.generated_tokens == 1
        assert request.context_tokens == 9
        assert request.first_token_time == 3.0

    def test_overgeneration_rejected(self):
        request = self.make_request(out=2)
        with pytest.raises(ValueError):
            request.record_tokens([1.0, 1.1, 1.2])

    def test_complete_requires_all_tokens(self):
        request = self.make_request(out=2)
        request.record_tokens([1.0])
        with pytest.raises(ValueError):
            request.complete(1.0)
        request.record_tokens([1.1])
        request.complete(1.1)
        assert request.phase is Phase.FINISHED
        assert request.finish_time == 1.1

    def test_invalid_trace_request_rejected(self):
        with pytest.raises(ValueError):
            TraceRequest(
                request_id=0, model="m", arrival=0.0, input_tokens=0, output_tokens=5
            )
        with pytest.raises(ValueError):
            TraceRequest(
                request_id=0, model="m", arrival=-1.0, input_tokens=5, output_tokens=5
            )
