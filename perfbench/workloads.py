"""The benchmark's workloads: request streams and the systems they drive.

Each workload builds its inputs from a seed only, hands the program a
request stream plus a fleet or system built through the public
``SystemSpec`` / ``build_fleet`` surface, and reads the modelled outcome
back through public result objects.  Arrivals are open-loop Poisson
schedules in simulated time; the pump submits each request at its
scheduled arrival, which :class:`PacedStream` verifies.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import AegaeonConfig, SystemSpec
from repro.engine.request import Phase
from repro.fleet import ControllerConfig, FleetConfig, ShardStats, build_fleet
from repro.fleet.rollup import LatencyHistogram
from repro.models import market_mix
from repro.obs import ObsConfig
from repro.policy.placement import MARKET_HOURLY_USD
from repro.sim import Environment
from repro.workload import RequestStream, market_stream, sharegpt, stream_trace

__all__ = [
    "WORKLOADS",
    "Outcome",
    "PacedStream",
    "Workload",
    "hist_quantile",
    "pooled_metrics",
]

# LatencyHistogram's bucket grid, as its docstring states it: 32
# geometric buckets per decade from 1e-4 s, so one bucket spans a factor
# of 10**(1/32) (7.5%).
_BUCKETS_PER_DECADE = 32
_FLOOR_S = 1e-4


def hist_quantile(hist: LatencyHistogram, q: float) -> float:
    """Quantile ``q`` of ``hist``, interpolated inside its bucket.

    ``LatencyHistogram.quantile`` returns the bucket's geometric
    midpoint, so nearby runs read the same value to every digit.  This
    reads the same bucket counts and places the rank log-linearly
    within the bucket, so the error bound is the same one bucket (7.5%)
    but the reading moves with the data.  Clamped to the observed
    min/max like the histogram's own readout.
    """
    if not hist.count:
        raise ValueError("empty histogram")
    rank = q * (hist.count - 1)
    below = 0
    for index, count in enumerate(hist.counts):
        if below + count > rank:
            frac = min((rank - below + 0.5) / count, 1.0)
            value = _FLOOR_S * 10.0 ** ((index + frac) / _BUCKETS_PER_DECADE)
            return min(max(value, hist.min), hist.max)
        below += count
    return hist.max


class PacedStream(RequestStream):
    """A request stream that checks the pump's schedule as it is pulled.

    The pump pulls the next request in the same simulated instant it
    submitted the previous one, so ``env.now`` at each pull is that
    submission's time.  The pump sleeps ``arrival - now`` and the clock
    adds it back, so the submission lands on the scheduled arrival up to
    the rounding of those two float operations: anything further than
    two ulps of the arrival time counts as late.  ``draw`` replaces
    ``next`` on the inner iterator so a traced run can time generation.
    The host clock is stamped on the first pull: everything before it is
    set-up.
    """

    def __init__(self, inner: RequestStream, env: Environment,
                 draw: Callable = next):
        super().__init__(inner.models, inner.horizon, self._iterate,
                         rates=inner.rates, name=inner.name)
        self._inner = inner
        self._env = env
        self._draw = draw
        self.generated = 0
        self.late = 0
        self.max_lateness = 0.0
        self.started_wall: Optional[float] = None
        self.started_cpu: Optional[float] = None

    def _iterate(self):
        self.started_wall = time.perf_counter()
        self.started_cpu = time.process_time()
        env = self._env
        draw = self._draw
        source = iter(self._inner)
        while True:
            try:
                request = draw(source)
            except StopIteration:
                return
            self.generated += 1
            yield request
            lateness = abs(env.now - request.arrival)
            if lateness > self.max_lateness:
                self.max_lateness = lateness
            if lateness > 2 * math.ulp(request.arrival):
                self.late += 1


@dataclass
class Outcome:
    """What one replay produced: its mergeable tallies plus its checks.

    ``stats`` holds every disposition, token and latency tally, so the
    outcomes of several replays merge into one modelled result
    (:func:`pooled_metrics`) exactly as fleet shards merge into a
    rollup.
    """

    stats: ShardStats
    pumped: int
    lost: int
    cost_usd: float
    counts: dict
    #: Failed conservation checks, as human-readable strings.
    violations: list

    def modelled(self) -> dict:
        return _modelled(self.stats, self.lost, self.pumped, self.cost_usd)

    def digest(self) -> str:
        payload = json.dumps([self.modelled(), self.counts], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "stats": _stats_to_json(self.stats),
            "pumped": self.pumped,
            "lost": self.lost,
            "cost_usd": self.cost_usd,
            "counts": self.counts,
            "violations": self.violations,
            "modelled": self.modelled(),
            "digest": self.digest(),
        }


_HIST_FIELDS = ("counts", "count", "total", "min", "max")
_STAT_FIELDS = ("requests", "finished", "failed", "rejected", "spilled",
                "no_first_token", "tokens_generated", "tokens_expected",
                "tokens_met", "input_tokens")


def _stats_to_json(stats: ShardStats) -> dict:
    out = {name: getattr(stats, name) for name in _STAT_FIELDS}
    for name in ("ttft", "tbt"):
        out[name] = {f: getattr(getattr(stats, name), f) for f in _HIST_FIELDS}
    return out


def _stats_from_json(data: dict) -> ShardStats:
    stats = ShardStats(**{name: data[name] for name in _STAT_FIELDS})
    for name in ("ttft", "tbt"):
        hist = getattr(stats, name)
        for field in _HIST_FIELDS:
            setattr(hist, field, data[name][field])
    return stats


def pooled_metrics(outcomes: list) -> dict:
    """The modelled metrics of several replays taken as one: their
    histograms and token tallies merged, losses and costs summed."""
    total = ShardStats()
    pumped = lost = 0
    cost_usd = 0.0
    for outcome in outcomes:
        total.merge(_stats_from_json(outcome["stats"]))
        pumped += outcome["pumped"]
        lost += outcome["lost"]
        cost_usd += outcome["cost_usd"]
    return _modelled(total, lost, pumped, cost_usd)


def _modelled(total: ShardStats, lost: int, pumped: int,
              cost_usd: float) -> dict:
    return {
        "slo_attainment": total.slo_attainment,
        "ttft_p50_s": hist_quantile(total.ttft, 0.50),
        "ttft_p99_s": hist_quantile(total.ttft, 0.99),
        "tbt_p50_s": hist_quantile(total.tbt, 0.50),
        "tbt_p99_s": hist_quantile(total.tbt, 0.99),
        "request_served_frac": 1.0 - lost / pumped,
        "request_loss_frac": lost / pumped,
        "usd_per_mtok": 1e6 * cost_usd / total.tokens_generated,
    }


class FleetReplay:
    """Four sharded ``h800-quad`` pools (1 prefill + 3 decode instances
    each) on one clock, fed one 256-model market stream at 12 req/s whose
    zipf head is spread across shards before the replay.

    ``controlled`` adds the ``aegaeon-slo-admission`` bundle and the
    forecast fleet controller: every arrival asks its shard's admission
    pressure, and every rejection may spill to a less pressed shard.
    """

    def __init__(self, seed: int, scale: float, *, controlled: bool,
                 draw: Callable = next):
        horizon = 840.0 * scale
        spec = SystemSpec(
            config=AegaeonConfig(prefill_instances=1, decode_instances=3,
                                 cluster="h800-quad"),
            policies="aegaeon-slo-admission" if controlled else None,
        )
        controller = ControllerConfig(policy="forecast") if controlled else None
        self.fleet = build_fleet(FleetConfig(
            shards=4, spec=spec, controller=controller, obs=ObsConfig.off(),
        ))
        market = market_stream(256, horizon, seed=seed, total_rate=12.0)
        self.fleet.partitioner.rebalance(
            {m.name: r for m, r in zip(market.models, market.rates)}
        )
        self.stream = PacedStream(market, self.fleet.env, draw)
        self.result = None

    @property
    def env(self) -> Environment:
        return self.fleet.env

    def run(self) -> None:
        self.result = self.fleet.run(self.stream)

    def outcome(self) -> Outcome:
        fleet, result = self.fleet, self.result
        total = result.rollup.total
        violations = []
        in_flight = 0
        shard_submitted = 0
        for shard in fleet.shards:
            stats, system = shard.stats, shard.system
            folded = stats.finished + stats.failed + stats.rejected + stats.spilled
            if folded != stats.requests:
                violations.append(f"{shard.name}: dispositions {folded} != folds "
                                  f"{stats.requests}")
            shard_in_flight = system.registry.in_flight
            if stats.requests + shard_in_flight != system.proxy.submitted:
                violations.append(
                    f"{shard.name}: folds {stats.requests} + in flight "
                    f"{shard_in_flight} != submitted {system.proxy.submitted}")
            in_flight += shard_in_flight
            shard_submitted += system.proxy.submitted
        if shard_submitted != result.submitted + total.spilled:
            violations.append(f"fleet: shard submissions {shard_submitted} != "
                              f"pumped {result.submitted} + spills {total.spilled}")
        if self.stream.generated != result.submitted:
            violations.append(f"fleet: generated {self.stream.generated} != "
                              f"pumped {result.submitted}")
        if self.stream.late:
            violations.append(f"{self.stream.late} submissions off schedule, "
                              f"up to {self.stream.max_lateness!r} s")
        lost = total.rejected + total.failed + in_flight
        controller = result.controller or {}
        counts = {
            "pumped": result.submitted,
            "finished": total.finished,
            "failed": total.failed,
            "rejected": total.rejected,
            "spilled": total.spilled,
            "unfinished": in_flight,
            "tokens_generated": total.tokens_generated,
            "migrations": controller.get("migrations", 0),
            "sim_end_s": result.end_time,
            "pump_lateness_max_s": self.stream.max_lateness,
        }
        return Outcome(total, result.submitted, lost, result.cost_usd, counts,
                       violations)


class PoolReplay:
    """One Aegaeon pool on the 16-GPU testbed, requests retained, obs full."""

    def __init__(self, seed: int, scale: float, *, draw: Callable = next):
        horizon = 900.0 * scale
        self.env = Environment()
        self.system = SystemSpec(
            config=AegaeonConfig(prefill_instances=6, decode_instances=10,
                                 cluster="testbed", obs=ObsConfig.full()),
        ).build(self.env)
        models = market_mix(60)
        trace = stream_trace(models, [0.1] * len(models), sharegpt(),
                             horizon=horizon, seed=seed, name="fig11a")
        self.stream = PacedStream(trace, self.env, draw)
        self.result = None

    def run(self) -> None:
        self.result = self.system.serve_stream(self.stream)

    def outcome(self) -> Outcome:
        system, result = self.system, self.result
        total = ShardStats(slo=system.slo)
        for request in result.requests:
            if request.finished or request.phase in (Phase.FAILED, Phase.REJECTED):
                total.fold(request)
        registry = system.registry
        in_flight = registry.in_flight
        pumped = system.proxy.submitted
        violations = []
        terminal = total.finished + total.failed + total.rejected
        if terminal + in_flight != pumped:
            violations.append(f"pool: finished+failed+rejected {terminal} + in "
                              f"flight {in_flight} != submitted {pumped}")
        if (registry.finished, registry.failed, registry.rejected) != (
                total.finished, total.failed, total.rejected):
            violations.append("pool: registry tallies disagree with the ledger")
        if self.stream.generated != pumped:
            violations.append(f"pool: generated {self.stream.generated} != "
                              f"submitted {pumped}")
        if self.stream.late:
            violations.append(f"{self.stream.late} submissions off schedule, "
                              f"up to {self.stream.max_lateness!r} s")
        if in_flight == 0 and not math.isclose(
                total.slo_attainment, result.slo_attainment(), rel_tol=1e-12):
            violations.append("pool: rollup and ServingResult attainment differ")
        hourly = sum(MARKET_HOURLY_USD[gpu.spec.name]
                     for gpu in system.cluster.gpus)
        cost_usd = hourly * self.env.now / 3600.0
        lost = total.rejected + total.failed + in_flight
        counts = {
            "pumped": pumped,
            "finished": total.finished,
            "failed": total.failed,
            "rejected": total.rejected,
            "unfinished": in_flight,
            "tokens_generated": total.tokens_generated,
            "scale_ups": len(system.scale_records()),
            "sim_end_s": self.env.now,
            "pump_lateness_max_s": self.stream.max_lateness,
        }
        return Outcome(total, pumped, lost, cost_usd, counts, violations)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., object]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet_market",
            "market pooling at fleet scale: 4 shards, 256-model zipf market "
            "pre-spread, admit-all, no controller, obs off; loads kernel, slab "
            "and KV-swap layers, bypasses admission and obs",
            lambda seed, scale, draw=next: FleetReplay(
                seed, scale, controlled=False, draw=draw),
        ),
        Workload(
            "fleet_overload",
            "same fleet and stream plus SLO admission, forecast controller and "
            "spillover: admission-pressure scans, spill cascades and shedding "
            "on the same slab/KV layers, obs off",
            lambda seed, scale, draw=next: FleetReplay(
                seed, scale, controlled=True, draw=draw),
        ),
        Workload(
            "pool_fig11_traced",
            "one 16-GPU pool at Figure 11a's 60-model, 0.1 req/s frontier, "
            "requests retained, full obs trace: token-level auto-scaling, and "
            "the only workload that drives the tracer",
            lambda seed, scale, draw=next: PoolReplay(seed, scale, draw=draw),
        ),
    )
}
