"""Differential oracles for the one request pump and one drain watchdog.

A single system and a fleet both run requests through
``repro.core.proxy.Pump`` and end on ``repro.core.serving.Watchdog``, so
paths that should agree are checked against each other:

* a materialized trace and the stream it came from serve identically,
  down to the kernel's step and event counts;
* a one-shard ``FleetRunner`` reproduces one system serving the same
  stream with the same streaming sink (``ShardStats`` and end time);
* MuxServe, whose placement reads the source's rates, serves a stream
  and runs as a fleet shard while conserving requests.
"""

from dataclasses import fields

import pytest

from repro.core import AegaeonConfig, SystemSpec
from repro.fleet import ControllerConfig, FleetConfig, ShardStats, build_fleet
from repro.fleet.rollup import LatencyHistogram
from repro.sim import Environment
from repro.workload import market_stream

SPEC = SystemSpec(
    config=AegaeonConfig(
        prefill_instances=1, decode_instances=3, cluster="h800-quad"
    )
)


def _stream():
    return market_stream(16, 120.0, seed=3, total_rate=2.0)


def _serve(source):
    env = Environment()
    result = SPEC.build(env).serve(source)
    requests = [
        (r.request_id, r.phase, tuple(r.token_times), r.finish_time)
        for r in result.requests
    ]
    return requests, env.now, env.steps_executed, env.events_scheduled


def _stats_key(stats: ShardStats) -> list:
    """Every ShardStats field, histograms by value."""
    key = []
    for item in fields(stats):
        value = getattr(stats, item.name)
        if isinstance(value, LatencyHistogram):
            value = (
                tuple(value.counts), value.count, value.total, value.min, value.max
            )
        key.append((item.name, value))
    return key


class TestStreamedVsMaterialized:
    def test_identical_requests_clock_and_counters(self):
        stream = _stream()
        materialized = _serve(stream.materialize())
        streamed = _serve(stream)
        assert streamed == materialized
        requests, end, steps, _ = streamed
        assert len(requests) > 100
        assert end < stream.horizon + 300.0  # drained, not cut at the deadline
        assert steps > 0


class TestOneShardFleetVsSystem:
    @pytest.mark.parametrize(
        "controller", [None, ControllerConfig(policy="static")],
        ids=["no-controller", "static"],
    )
    def test_same_stats_and_end_time(self, controller):
        env = Environment()
        system = SPEC.build(env)
        stats = ShardStats(shard=0, slo=system.slo)
        system.configure_streaming(retain_requests=False, request_sink=stats.fold)
        system.serve(_stream())

        fleet = build_fleet(
            FleetConfig(shards=1, spec=SPEC, controller=controller)
        )
        result = fleet.run(_stream())

        assert _stats_key(result.shard_stats[0]) == _stats_key(stats)
        assert result.end_time == env.now
        assert result.submitted == system.proxy.submitted == stats.requests


class TestMuxServeSources:
    def test_serves_a_stream(self):
        system = SystemSpec(system="muxserve").build()
        system.serve(market_stream(8, 30.0, seed=1, total_rate=0.5))
        registry = system.registry
        assert registry.submitted > 0
        assert (
            registry.finished + registry.failed + registry.rejected
            == system.proxy.submitted
        )

    def test_runs_as_a_fleet_shard(self):
        fleet = build_fleet(
            FleetConfig(shards=2, spec=SystemSpec(system="muxserve"))
        )
        result = fleet.run(market_stream(8, 30.0, seed=1, total_rate=0.5))
        total = result.rollup.total
        assert result.submitted > 0
        assert total.finished + total.failed + total.rejected == result.submitted
