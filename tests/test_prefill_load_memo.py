"""The memoized prefill-load estimate (``GroupedPrefillScheduler.estimate_load``).

Two contracts:

* **Invalidation** — every input the estimate reads moves the instance's
  ``load_stamp()``: each queue mutation (join, open, pop, fail) and each
  engine change (scale-up, prefetch start, prefetch landing, link
  throttle) forces exactly one recompute on the next reads, and
  unchanged state costs no group estimate at all.
* **Equivalence** — over a controller-driven fleet under chaos, after
  every ``admission_pressure()`` call the memoized load of every live
  prefill instance equals, bit for bit, the plain summation loop the
  scheduler ran before it memoized anything.
"""

import pytest

from repro.chaos import FaultPlan, FetchFailure, InstanceFailure, LinkThrottle
from repro.core import AegaeonConfig, SystemSpec
from repro.core.instance import PrefillInstance
from repro.core.prefill_sched import GroupedPrefillScheduler, PrefillGroup
from repro.core.server import AegaeonServer
from repro.fleet import ControllerConfig, FleetConfig, build_fleet
from repro.models import get_model
from repro.sim import Environment
from repro.workload import market_stream

from .test_core_instances import make_engine, make_request

GiB = 1024**3


def reference_load(instance) -> float:
    """The unmemoized estimate: execution + switches, summed in queue order."""
    load = 0.0
    previous = instance.current_model()
    for group in instance.groups:
        load += instance.estimate_group_time(group, previous)
        previous = group.spec
    return load


@pytest.fixture
def counts(monkeypatch):
    """Counts full recomputes (one ``current_model()`` read each) and
    group estimates, across every prefill instance."""
    tally = {"recomputes": 0, "group_times": 0}
    current_model = PrefillInstance.current_model
    group_time = PrefillInstance.estimate_group_time

    def counted_current_model(self):
        tally["recomputes"] += 1
        return current_model(self)

    def counted_group_time(self, group, previous):
        tally["group_times"] += 1
        return group_time(self, group, previous)

    monkeypatch.setattr(PrefillInstance, "current_model", counted_current_model)
    monkeypatch.setattr(PrefillInstance, "estimate_group_time", counted_group_time)
    return tally


class Rig:
    """One prefill instance and its scheduler, with the loop parked idle."""

    def __init__(self, counts):
        self.counts = counts
        self.env = Environment()
        self.engine = make_engine(self.env)
        self.instance = PrefillInstance(self.env, self.engine, lambda request: None)
        self.scheduler = GroupedPrefillScheduler([self.instance])
        self.env.run(until=0.1)  # the loop parks waiting for work
        self.next_id = 0

    def request(self, model):
        self.next_id += 1
        return make_request(self.next_id, model)

    def queue_behind_loop(self, model, count):
        """Queue a group without kicking: the parked loop leaves it be."""
        group = PrefillGroup(spec=get_model(model))
        for _ in range(count):
            group.add(self.request(model))
        self.instance.groups.append(group)

    def scale_to(self, model):
        self.env.process(self.engine.scale_to(get_model(model)))
        self.env.run(until=self.env.now + 10.0)
        assert self.engine.current_model.name == model

    def load(self):
        return self.scheduler.estimate_load(self.instance)

    def recomputes_over_two_reads(self):
        """Recomputes the next two reads make; both must equal the
        unmemoized estimate."""
        before = self.counts["recomputes"]
        first, second = self.load(), self.load()
        made = self.counts["recomputes"] - before
        assert first == second == reference_load(self.instance)
        return made


def test_unchanged_state_costs_no_group_estimates(counts):
    env = Environment()
    system = SystemSpec(
        config=AegaeonConfig(prefill_instances=2, decode_instances=1, cluster="h800-quad")
    ).build(env)
    for request_id, model in enumerate(["Qwen-7B", "Yi-6B", "Qwen-7B", "InternLM2.5-7B"]):
        system.dispatch(make_request(request_id, model))
    first = system.admission_pressure()
    estimated = counts["group_times"]
    assert estimated > 0
    assert system.admission_pressure() == first
    assert counts["group_times"] == estimated


def test_join_recomputes_once(counts):
    rig = Rig(counts)
    rig.scheduler.dispatch(rig.request("Qwen-7B"))
    rig.load()
    rig.scheduler.dispatch(rig.request("Qwen-7B"))
    assert rig.instance.groups[0].accumulated == 2  # joined
    assert rig.recomputes_over_two_reads() == 1


def test_open_recomputes_once(counts):
    rig = Rig(counts)
    rig.scheduler.dispatch(rig.request("Qwen-7B"))
    rig.load()
    rig.scheduler.dispatch(rig.request("Yi-6B"))
    assert len(rig.instance.groups) == 2  # opened
    assert rig.recomputes_over_two_reads() == 1


def test_pop_and_head_group_removal_each_recompute_once(counts):
    rig = Rig(counts)
    rig.scale_to("Qwen-7B")
    rig.queue_behind_loop("Qwen-7B", 1)
    rig.instance.kick()
    rig.load()
    # The loop wakes at this instant and pops the only request...
    rig.env.run(until=rig.env.now + 1e-6)
    group = rig.instance.groups[0]
    assert group.exhausted
    assert rig.recomputes_over_two_reads() == 1
    # ...then, with the job done, drops the exhausted head group.
    rig.env.run(until=rig.env.now + 10.0)
    assert rig.instance.groups == []
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() == 0.0


def test_fail_recomputes_once(counts):
    rig = Rig(counts)
    rig.scheduler.dispatch(rig.request("Qwen-7B"))
    assert rig.load() > 0.0
    rig.instance.fail()
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() == 0.0


def test_scale_to_recomputes_once(counts):
    rig = Rig(counts)
    rig.queue_behind_loop("Yi-6B", 2)
    cold = rig.load()
    rig.scale_to("Yi-6B")
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() < cold  # the switch is no longer ahead of the group


def test_prefetch_start_and_completion_each_recompute_once(counts):
    rig = Rig(counts)
    rig.scale_to("Qwen-7B")
    rig.queue_behind_loop("Yi-6B", 1)
    cold = rig.load()
    assert rig.engine.prefetch(get_model("Yi-6B"))
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() == cold  # in flight: still the full switch estimate
    rig.env.run(until=rig.env.now + 5.0)  # the prefetch lands
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() < cold


def test_link_throttle_recomputes_once(counts):
    rig = Rig(counts)
    rig.queue_behind_loop("Yi-6B", 1)
    nominal = rig.load()
    rig.engine.link.h2d.throttle(4.0)
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() > nominal  # the cold load crawls over the slow link
    rig.engine.link.h2d.restore(4.0)
    assert rig.recomputes_over_two_reads() == 1
    assert rig.load() == nominal


def chaos_fleet():
    """Four controlled shards under a throttle, a kill and fetch failures.

    A small host model cache forces remote checkpoint fetches (so the
    armed fetch failures bite), and the whole catalog starts pinned to
    shard 0 so admission sheds and the controller spills and migrates.
    """
    plan = FaultPlan.of(
        FetchFailure(at=1.0, count=6, wasted=0.3),
        LinkThrottle(at=6.0, factor=4.0, duration=8.0),
        InstanceFailure(at=12.0, instance="prefill1"),
    )
    spec = SystemSpec(
        config=AegaeonConfig(
            prefill_instances=2,
            decode_instances=2,
            cluster="h800-quad",
            model_cache_bytes=80 * GiB,
        ),
        policies="aegaeon-slo-admission",
        faults=plan,
        invariants=True,
    )
    fleet = build_fleet(
        FleetConfig(shards=4, spec=spec, controller=ControllerConfig(policy="forecast"))
    )
    stream = market_stream(24, 30.0, seed=7, total_rate=20.0)
    for model in stream.models:
        fleet.partitioner.pin(model.name, 0)
    return fleet, stream


def test_memoized_pressure_matches_recompute_under_chaos(counts, monkeypatch):
    checked = {"calls": 0, "reference_reads": 0, "memo_reads": 0}
    pressure = AegaeonServer.admission_pressure

    def verified_pressure(self):
        value = pressure(self)
        scheduler = self.prefill_scheduler
        fresh = [reference_load(instance) for instance in scheduler.instances]
        memo = [scheduler.estimate_load(instance) for instance in scheduler.instances]
        assert memo == fresh
        assert value == (min(fresh) if fresh else float("inf"))
        checked["calls"] += 1
        checked["reference_reads"] += len(fresh)
        checked["memo_reads"] += 2 * len(memo)
        return value

    monkeypatch.setattr(AegaeonServer, "admission_pressure", verified_pressure)
    fleet, stream = chaos_fleet()
    result = fleet.run(stream)

    assert checked["calls"] > 0
    assert result.controller["spills"] > 0
    assert result.rollup.total.failed > 0  # fetch retries ran out somewhere
    for shard in fleet.shards:
        system = shard.system
        assert system.instance_failures == 1
        assert sum(e.quick_loader.fetch_failures for e in system.engines()) > 0
        assert system.invariant_checker.violations == []
    # The memo did the work: most reads were served without a recompute.
    memo_recomputes = counts["recomputes"] - checked["reference_reads"]
    assert memo_recomputes < checked["memo_reads"] / 2
