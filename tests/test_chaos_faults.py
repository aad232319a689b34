"""Chaos suite: seeded fault plans against full serving runs.

Every test here drives a real end-to-end serve with the runtime
:class:`~repro.chaos.InvariantChecker` attached — ``serve`` raises if
any mid-run check ever failed, so a green test certifies the system
*provably preserved* KV conservation, token monotonicity, dead-instance
exclusion, and SLO accounting under the injected faults, not merely
that it didn't crash.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.chaos import (
    FaultPlan,
    FetchFailure,
    InstanceFailure,
    InvariantChecker,
    LatencySpike,
    LinkThrottle,
    TransferStall,
)
from repro.core import AegaeonConfig, SystemSpec, build_system
from repro.hardware import pcie_pair
from repro.memory import SlabAllocator
from repro.models import get_model, kv_shape, market_mix
from repro.sim import Environment
from repro.transfer import KvTransferManager, RequestKv
from repro.workload import sharegpt, materialize_trace

from .strategies import fault_plans


def run_chaos(
    plan,
    *,
    seed=7,
    models=4,
    rate=0.15,
    horizon=40.0,
    prefill=1,
    decode=3,
):
    """One faulted Aegaeon serve with invariants on; returns the system
    and its :class:`~repro.analysis.metrics.ServingResult`."""
    env = Environment()
    system = build_system(
        SystemSpec(
            config=AegaeonConfig(
                prefill_instances=prefill,
                decode_instances=decode,
                cluster="h800-quad",
            ),
            faults=plan,
            invariants=True,
        ),
        env,
    )
    trace = materialize_trace(
        market_mix(models), [rate] * models, sharegpt(), horizon=horizon, seed=seed
    )
    # warm=False so checkpoint fetches actually hit the (disruptable)
    # remote registry path.
    result = system.serve(trace, warm=False)
    return system, result


def assert_accounted(system, result):
    """Every submitted request ends in exactly one terminal ledger."""
    registry = system.registry
    submitted = registry.submitted
    assert submitted == len(result.requests)
    assert registry.finished + registry.failed + registry.rejected == submitted
    assert (
        len(system.finished) + len(system.failed) + len(system.rejected)
        == submitted
    )


class TestAcceptanceScenario:
    """The issue's benchmark: GPU loss + 2 transfer stalls + 1 failed
    fetch over a 4-model market-mix trace."""

    PLAN = FaultPlan.of(
        FetchFailure(at=2.0, count=1, wasted=0.2),
        TransferStall(at=8.0, direction="in", duration=0.6),
        InstanceFailure(at=12.0, instance="decode1"),
        TransferStall(at=18.0, direction="out", duration=0.6),
    )

    def test_completes_with_zero_violations(self):
        system, result = run_chaos(self.PLAN)
        # serve() would have raised on any violation; double-check the
        # checker actually ran and the ledger closed.
        checker = system.invariant_checker
        assert checker.checks_run > 10
        assert checker.violations == []
        assert_accounted(system, result)

    def test_all_faults_delivered(self):
        system, _ = run_chaos(self.PLAN)
        injector = system.fault_injector
        assert len(injector.delivered) == len(self.PLAN)
        assert injector.skipped == []
        assert system.instance_failures == 1

    def test_fetch_failure_retried_not_fatal(self):
        system, _ = run_chaos(self.PLAN)
        failures = sum(e.quick_loader.fetch_failures for e in system.engines())
        retries = sum(e.quick_loader.fetch_retries for e in system.engines())
        assert failures >= 1
        assert retries >= 1  # the retry path absorbed it
        assert system.registry.failed == 0


class TestSeededPlans:
    """Property: ANY seeded fault plan leaves the invariants intact and
    the request ledger balanced."""

    @settings(max_examples=8, deadline=None)
    @given(plan=fault_plans(horizon=20.0, instances=("decode1", "decode2")))
    def test_invariants_and_accounting_hold(self, plan):
        system, result = run_chaos(plan, horizon=20.0)
        assert system.invariant_checker.violations == []
        assert_accounted(system, result)
        # Everything the injector attempted is accounted for too.
        injector = system.fault_injector
        assert len(injector.delivered) + len(injector.skipped) == len(plan)

    def test_seeded_plan_is_reproducible(self):
        a = FaultPlan.seeded(42, horizon=30.0, count=6, instances=("decode1",))
        b = FaultPlan.seeded(42, horizon=30.0, count=6, instances=("decode1",))
        assert a == b
        assert len(a) == 6
        assert all(f.at <= g.at for f, g in zip(a, list(a)[1:]))

    def test_different_seeds_draw_different_plans(self):
        plans = {
            FaultPlan.seeded(s, horizon=30.0, count=4).faults for s in range(8)
        }
        assert len(plans) == 8


class TestInstanceLoss:
    def test_prefill_kill_requeues_orphans(self):
        # Heavy arrivals back the prefill queue up, so the kill strands
        # real work; timeout-and-requeue must land it on the survivor.
        plan = FaultPlan.of(InstanceFailure(at=4.0, instance="prefill0"))
        system, result = run_chaos(
            plan, seed=11, rate=1.0, horizon=20.0, prefill=2, decode=2
        )
        assert system.instance_failures == 1
        assert system.orphans_requeued > 0
        assert system.registry.finished == system.registry.submitted
        assert_accounted(system, result)

    def test_losing_whole_prefill_pool_sheds_load(self):
        # With the only prefill instance gone, later arrivals cannot be
        # served — they must be rejected at admission, not dropped.
        plan = FaultPlan.of(InstanceFailure(at=5.0, instance="prefill0"))
        system, result = run_chaos(plan, rate=0.5, horizon=20.0, prefill=1)
        assert system.registry.rejected > 0
        assert_accounted(system, result)

    def test_unknown_instance_is_skipped_not_fatal(self):
        plan = FaultPlan.of(InstanceFailure(at=5.0, instance="decode99"))
        system, result = run_chaos(plan, horizon=10.0)
        injector = system.fault_injector
        assert injector.delivered == []
        assert len(injector.skipped) == 1
        assert_accounted(system, result)


class TestDegradation:
    def test_throttle_and_spike_slow_but_complete(self):
        plan = FaultPlan.of(
            LinkThrottle(at=3.0, factor=6.0, duration=2.0),
            LatencySpike(at=6.0, factor=2.5, duration=2.0),
        )
        system, result = run_chaos(plan, horizon=20.0)
        assert system.registry.finished == system.registry.submitted
        # Spikes must fully unwind: every engine back at nominal speed.
        assert all(e.perf_factor == 1.0 for e in system.engines())

    def test_fetch_exhaustion_fails_requests_cleanly(self):
        # More failures than the retry budget: some requests must fail,
        # but failure stays requested-scoped — ledger balanced, zero
        # invariant violations.
        plan = FaultPlan.of(FetchFailure(at=0.0, count=50, wasted=0.3))
        system, result = run_chaos(plan, rate=0.3, horizon=15.0)
        assert system.registry.failed > 0
        assert_accounted(system, result)


class TestPlanValidation:
    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError):
            FetchFailure(at=-1.0)
        with pytest.raises(ValueError):
            TransferStall(at=1.0, direction="sideways")
        with pytest.raises(ValueError):
            LinkThrottle(at=1.0, factor=0.5)
        with pytest.raises(ValueError):
            InstanceFailure(at=1.0, instance="")
        with pytest.raises(ValueError):
            LatencySpike(at=1.0, factor=1.0)

    def test_of_sorts_by_time(self):
        plan = FaultPlan.of(
            LatencySpike(at=9.0), FetchFailure(at=1.0), TransferStall(at=4.0)
        )
        assert [f.at for f in plan] == [1.0, 4.0, 9.0]

    def test_kind_counts(self):
        plan = FaultPlan.of(FetchFailure(at=1.0), FetchFailure(at=2.0), LatencySpike(at=3.0))
        assert plan.kind_counts() == {"FetchFailure": 2, "LatencySpike": 1}


class TestKvConservationCheck:
    """I1 reconciles holdings with each slab, not only in total."""

    def checked_pair(self):
        """Two requests' GPU KV on one engine: 7 blocks each at 8 per
        slab, so the first sits on slab A and the second spans A and B."""
        env = Environment()
        MiB, GiB = 1024**2, 1024**3
        manager = KvTransferManager(
            env,
            pcie_pair(env, bandwidth=32e9),
            SlabAllocator(8 * GiB, 64 * MiB),
            SlabAllocator(32 * GiB, 64 * MiB),
        )
        shape = kv_shape(get_model("Qwen-7B"))  # 8 MiB blocks at 16 tokens
        requests = []
        for request_id in range(2):
            kv = RequestKv(request_id=request_id, shape=shape, tokens=100)
            manager.alloc_gpu(kv)
            requests.append(SimpleNamespace(
                request_id=request_id, kv=kv, token_times=[],
                output_tokens=1, arrival=0.0,
            ))
        engine = SimpleNamespace(gpu_kv_cache=manager.gpu_cache, kv=manager)
        system = SimpleNamespace(
            env=env,
            engines=lambda: [engine],
            proxy=SimpleNamespace(tracked_requests=lambda: requests),
        )
        first, second = (request.kv.gpu_blocks for request in requests)
        assert first.runs == [second.runs[0], 7] and second.runs[1::2] == [1, 6]
        return InvariantChecker(system), manager.gpu_cache, first, second

    def test_consistent_holdings_pass(self):
        checker, _, _, _ = self.checked_pair()
        assert checker.check_now() == []

    def test_free_applied_to_wrong_slab_flagged(self):
        checker, cache, first, second = self.checked_pair()
        slab_a, slab_b = second.runs[0], second.runs[2]
        # One block released from B that the holders still place on A:
        # the totals balance, the two slabs do not.
        cache._slabs[slab_a].used_count -= 1
        cache._slabs[slab_b].used_count += 1
        violations = checker.check_now()
        assert [v.invariant for v in violations] == ["kv-conservation"] * 2
        assert all(cache.name in v.detail for v in violations)

    def test_holding_run_on_wrong_slab_flagged(self):
        checker, _, first, second = self.checked_pair()
        first.runs[0] = second.runs[2]  # claims slab B, holds slab A
        violations = checker.check_now()
        assert [v.invariant for v in violations] == ["kv-conservation"] * 2
