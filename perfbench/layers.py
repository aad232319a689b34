"""The traced run: wrappers around each layer's public calls.

A :class:`Profiler` replaces named public methods of ``repro`` classes
with wrappers that count calls, time them and record one span per call
in memory.  Wrappers go in before the system is built, so code that
binds a method at construction picks them up.  A layer's self time is
its calls' duration minus the part covered by wrapped calls they made;
``Environment.run`` is the root, so its self time holds the kernel plus
every continuation that enters no wrapped call (an upper bound on
kernel time).  Self times are reported as shares of all wrapped time,
with that total in seconds as ``trace.wrapped_s``.

Where the program keeps its own counters, :func:`layer_metrics` reads
them and :func:`counter_checks` compares them with the wrapper counts.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import Callable

from repro.baselines.serverless_llm import ServerlessLLM
from repro.core.decode_sched import BatchedDecodeScheduler
from repro.core.instance import PrefillInstance
from repro.core.prefill_sched import GroupedPrefillScheduler
from repro.core.server import AegaeonServer
from repro.core.serving import ServingSystemBase
from repro.engine.engine import AegaeonEngine
from repro.fleet import CatalogPartitioner, ShardStats
from repro.memory.model_cache import HostModelCache
from repro.memory.slab import SlabAllocator
from repro.models.latency import LatencyModel
from repro.obs.tracer import Tracer
from repro.policy import admission, dispatch, fleet_control, routing
from repro.sim import Environment
from repro.transfer.kv_transfer import KvTransferManager
from repro.transfer.loader import QuickLoader
from repro.transfer.streams import CudaStream

__all__ = [
    "LAYERS",
    "PER_LAYER",
    "PREDICTIONS",
    "Profiler",
    "counter_checks",
    "layer_metrics",
]

#: Layers, named after the ``repro`` package each wrapper sits in.
LAYERS = ("sim", "workload", "memory", "transfer", "models", "engine",
          "core", "policy", "fleet", "obs")

_LATENCY_METHODS = ("prefill_time", "prefill_time_single", "decode_step_time",
                    "prefill_time_batch", "decode_time_batch",
                    "estimate_service_time", "estimate_service_time_batch")

# (owner, method, key): timed wrappers.  Each owner is a class that
# defines the method itself, so no call is counted twice through
# inheritance unless one override calls another.
_TIMED = [
    (Environment, "run", "sim.run"),
    (SlabAllocator, "free", "memory.slab_free"),
    (HostModelCache, "lookup", "memory.model_cache_lookup"),
    (KvTransferManager, "swap_in", "transfer.swap"),
    (KvTransferManager, "swap_out", "transfer.swap"),
    (CudaStream, "copy", "transfer.copy"),
    *[(LatencyModel, name, "models.latency") for name in _LATENCY_METHODS],
    (AegaeonEngine, "estimate_switch_time", "engine.estimate_switch"),
    (ServingSystemBase, "submit", "core.submit"),
    (ServingSystemBase, "admission_pressure", "core.admission_pressure"),
    (AegaeonServer, "admission_pressure", "core.admission_pressure"),
    (ServerlessLLM, "admission_pressure", "core.admission_pressure"),
    (GroupedPrefillScheduler, "estimate_load", "core.estimate_load"),
    (PrefillInstance, "estimate_group_time", "core.estimate_group_time"),
    (GroupedPrefillScheduler, "dispatch", "core.dispatch"),
    (BatchedDecodeScheduler, "dispatch", "core.dispatch"),
    *[(owner, name, "policy.place")
      for owner in (dispatch.GroupedPrefillDispatch, dispatch.BatchedDecodeDispatch,
                    dispatch.AffinityBacklogDispatch,
                    dispatch.AffinityLeastLoadedDispatch,
                    routing.SessionAffinityDispatch)
      for name in ("place_prefill", "place_decode") if name in owner.__dict__],
    *[(owner, name, "policy.fleet_decision")
      for owner in (fleet_control.StaticFleetControl,
                    fleet_control.ForecastFleetControl)
      for name in ("plan_migrations", "spill_target")],
    (CatalogPartitioner, "shard_of", "fleet.shard_of"),
    (ShardStats, "fold", "fleet.fold"),
]

_ADMISSION = (admission.AlwaysAdmit, admission.PlacedModelsAdmission,
              admission.SloAwareAdmission, routing.CostConstrainedRouter)

# Methods that return generators: counted, not timed, because the work
# runs later as the kernel resumes the generator.
_COUNTED = [
    (AegaeonEngine, "scale_to", "engine.scale_to"),
    (QuickLoader, "load", "transfer.load"),
]

_TRACER_METHODS = ("span", "complete", "instant", "counter")


class _Stat:
    __slots__ = ("calls", "self_s", "items", "failed")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.items = 0
        self.failed = 0


class Profiler:
    """Installs the layer wrappers and holds what they record."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.latency_models: list[LatencyModel] = []
        self._patches: list[tuple[type, str, object]] = []
        # Child-time accumulators, one per open wrapped call (plus a base).
        self._child = [0.0]
        # Spans: one entry per timed call, parent = enclosing span or -1.
        self._open = [-1]
        self.key_names: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- wrappers ------------------------------------------------------------
    def stat(self, key: str) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
            self._key_ids[key] = len(self.key_names)
            self.key_names.append(key)
        return stat

    def timed(self, key: str, fn: Callable, *, classify: Callable = None,
              on_result: Callable = None, errors: tuple = ()) -> Callable:
        """Wrap ``fn``: count, time and record a span for every call.

        ``classify(args)`` may pick another key per call (enabled vs
        disabled tracer); ``on_result(stat, result)`` tallies items;
        exceptions in ``errors`` count as failed calls.
        """
        default = self.stat(key)
        default_id = self._key_ids[key]
        child = self._child
        open_spans = self._open
        keys, parents = self.span_key, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        stats, key_ids = self.stats, self._key_ids

        def wrapper(*args, **kwargs):
            if classify is None:
                stat, key_id = default, default_id
            else:
                chosen = classify(args)
                stat, key_id = stats[chosen], key_ids[chosen]
            index = len(starts)
            keys.append(key_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(index)
            child.append(0.0)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except errors:
                stat.failed += 1
                raise
            finally:
                end = clock()
                ends[index] = end
                open_spans.pop()
                duration = end - start
                stat.self_s += duration - child.pop()
                stat.calls += 1
                child[-1] += duration
            if on_result is not None:
                on_result(stat, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable, *, on_call: Callable = None) -> Callable:
        stat = self.stat(key)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if on_call is not None:
                on_call(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: type, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every named public call.  Call before building anything."""
        for owner, name, key in _TIMED:
            self.patch(owner, name, self.timed(key, owner.__dict__[name]))

        def blocks(stat, result):
            stat.items += len(result)

        self.patch(SlabAllocator, "alloc", self.timed(
            "memory.slab_alloc", SlabAllocator.__dict__["alloc"],
            on_result=blocks, errors=(MemoryError,)))

        def rejects(stat, result):
            if result is not None:
                stat.items += 1

        for owner in _ADMISSION:
            self.patch(owner, "decide", self.timed(
                "policy.admission", owner.__dict__["decide"], on_result=rejects))
        for owner, name, key in _COUNTED:
            self.patch(owner, name, self.counted(key, owner.__dict__[name]))
        self.patch(LatencyModel, "__post_init__", self.counted(
            "models.instances", LatencyModel.__dict__["__post_init__"],
            on_call=lambda args: self.latency_models.append(args[0])))
        self.stat("obs.record")
        self.stat("obs.disabled")

        def tracer_state(args):
            return "obs.record" if args[0].enabled else "obs.disabled"

        for name in _TRACER_METHODS:
            self.patch(Tracer, name, self.timed(
                "obs.record", Tracer.__dict__[name], classify=tracer_state))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def span_count(self) -> int:
        return len(self.span_start)

    def save_spans(self, path: str) -> None:
        """Write the recorded spans (key, parent, start, end) as .npz."""
        import numpy as np

        np.savez_compressed(
            path,
            keys=np.array(self.key_names),
            key=np.frombuffer(self.span_key, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# -- per-layer metrics ---------------------------------------------------------
#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "sim.steps": "count",
    "sim.events_scheduled": "count",
    "sim.events_recycled": "count",
    "sim.steps_per_s": "1/s",
    "sim.end_s": "s",
    "workload.requests_generated": "count",
    "memory.slab_alloc_calls": "count",
    "memory.slab_alloc_blocks": "count",
    "memory.slab_alloc_self_share": "ratio",
    "memory.slab_alloc_failed": "count",
    "memory.slab_free_calls": "count",
    "memory.slab_free_self_share": "ratio",
    "memory.model_cache_hit_ratio": "ratio",
    "transfer.swap_calls": "count",
    "transfer.swap_self_share": "ratio",
    "transfer.copy_calls": "count",
    "transfer.copy_self_share": "ratio",
    "transfer.load_calls": "count",
    "transfer.bytes_in": "B",
    "transfer.bytes_out": "B",
    "transfer.data_wait_s": "s",
    "models.latency_calls": "count",
    "models.latency_self_share": "ratio",
    "models.latency_memo_hit_ratio": "ratio",
    "engine.estimate_switch_calls": "count",
    "engine.estimate_switch_self_share": "ratio",
    "engine.scale_to_calls": "count",
    "engine.scale_ups": "count",
    "engine.switch_p50_s": "s",
    "engine.switch_p99_s": "s",
    "engine.prefetch_hit_ratio": "ratio",
    "core.submit_calls": "count",
    "core.submit_self_share": "ratio",
    "core.admission_pressure_calls": "count",
    "core.admission_pressure_self_share": "ratio",
    "core.estimate_load_calls": "count",
    "core.estimate_group_time_calls": "count",
    "core.estimate_self_share": "ratio",
    "core.dispatch_calls": "count",
    "core.dispatch_self_share": "ratio",
    "policy.admission_calls": "count",
    "policy.admission_self_share": "ratio",
    "policy.admission_rejects": "count",
    "policy.place_calls": "count",
    "policy.place_self_share": "ratio",
    "policy.fleet_decision_calls": "count",
    "policy.fleet_decision_self_share": "ratio",
    "fleet.shard_of_calls": "count",
    "fleet.fold_calls": "count",
    "fleet.fold_self_share": "ratio",
    "fleet.controller_ticks": "count",
    "fleet.spills": "count",
    "fleet.spill_bound_hits": "count",
    "fleet.migrations": "count",
    "obs.record_calls": "count",
    "obs.record_self_share": "ratio",
    "obs.spans_recorded": "count",
    "obs.disabled_calls": "count",
    "obs.disabled_self_share": "ratio",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.wrapped_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

_F = "fleet_market"
_O = "fleet_overload"
_P = "pool_fig11_traced"
_ALL = (_F, _O, _P)

#: The interaction map: for each per-layer metric, which end-to-end
#: metrics it should move on which workloads, and where it must read 0.
PREDICTIONS = {
    **{m: {"moves": {"wall_s": _ALL, "cpu_s": _ALL}} for m in (
        "sim.steps", "sim.events_scheduled", "sim.events_recycled",
        "sim.steps_per_s", "sim.end_s", "workload.requests_generated",
        "sim.self_share", "workload.self_share")},
    **{m: {"moves": {"wall_s": (_F, _P)}} for m in (
        "memory.slab_alloc_calls", "memory.slab_alloc_blocks",
        "memory.slab_alloc_self_share", "memory.slab_free_calls",
        "memory.slab_free_self_share", "memory.self_share")},
    "memory.slab_alloc_failed": {"moves": {"wall_s": (_F, _P)}, "zero_on": _ALL},
    "memory.model_cache_hit_ratio": {"moves": {"ttft_p99_s": (_P,)}},
    **{m: {"moves": {"wall_s": (_F, _P)}} for m in (
        "transfer.swap_calls", "transfer.swap_self_share", "transfer.copy_calls",
        "transfer.copy_self_share", "transfer.load_calls", "transfer.bytes_in",
        "transfer.bytes_out", "transfer.self_share")},
    "transfer.data_wait_s": {"moves": {"tbt_p99_s": _ALL}},
    **{m: {"moves": {"wall_s": (_O, _P)}} for m in (
        "models.latency_calls", "models.latency_self_share",
        "models.latency_memo_hit_ratio", "models.self_share")},
    **{m: {"moves": {"wall_s": (_O,)}} for m in (
        "engine.estimate_switch_calls", "engine.estimate_switch_self_share",
        "engine.self_share")},
    **{m: {"moves": {"ttft_p99_s": (_P,), "slo_attainment": (_P,)}} for m in (
        "engine.scale_to_calls", "engine.scale_ups", "engine.switch_p50_s",
        "engine.switch_p99_s", "engine.prefetch_hit_ratio")},
    **{m: {"moves": {"wall_s": (_O,)}} for m in (
        "core.estimate_load_calls", "core.estimate_group_time_calls",
        "core.estimate_self_share", "core.dispatch_calls", "core.dispatch_self_share",
        "core.self_share")},
    **{m: {"moves": {"wall_s": (_O,)}, "zero_on": (_P,)} for m in (
        "core.submit_calls", "core.submit_self_share")},
    **{m: {"moves": {"wall_s": (_O,)}, "zero_on": (_F, _P)} for m in (
        "core.admission_pressure_calls", "core.admission_pressure_self_share")},
    **{m: {"moves": {"wall_s": (_O,), "request_served_frac": (_O,)}} for m in (
        "policy.admission_calls", "policy.admission_self_share",
        "policy.place_calls", "policy.place_self_share", "policy.self_share")},
    "policy.admission_rejects": {
        "moves": {"request_served_frac": (_O,)}, "zero_on": (_F, _P)},
    **{m: {"moves": {"wall_s": (_O,), "request_served_frac": (_O,)},
           "zero_on": (_F, _P)} for m in (
        "policy.fleet_decision_calls", "policy.fleet_decision_self_share")},
    **{m: {"moves": {"wall_s": (_F, _O)}, "zero_on": (_P,)} for m in (
        "fleet.shard_of_calls", "fleet.fold_calls", "fleet.fold_self_share",
        "fleet.self_share")},
    **{m: {"moves": {"wall_s": (_O,), "slo_attainment": (_O,)},
           "zero_on": (_F, _P)} for m in (
        "fleet.controller_ticks", "fleet.spills", "fleet.spill_bound_hits",
        "fleet.migrations")},
    **{m: {"moves": {"wall_s": (_P,), "rss_peak_mb": (_P,)},
           "zero_on": (_F, _O)} for m in (
        "obs.record_calls", "obs.record_self_share", "obs.spans_recorded")},
    **{m: {"moves": {"wall_s": _ALL}} for m in (
        "obs.disabled_calls", "obs.disabled_self_share", "obs.self_share")},
    "trace.wrapped_s": {"moves": {}},
    "trace.overhead": {"moves": {}},
    "trace.spans": {"moves": {}},
}


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _systems(replay) -> list:
    fleet = getattr(replay, "fleet", None)
    if fleet is not None:
        return [shard.system for shard in fleet.shards]
    return [replay.system]


def _tracers(replay) -> list:
    tracers = [system.obs.tracer for system in _systems(replay)]
    fleet = getattr(replay, "fleet", None)
    if fleet is not None:
        tracers.append(fleet.obs.tracer)
    return tracers


def _unique(objects) -> list:
    return list({id(obj): obj for obj in objects}.values())


def _allocators(replay) -> list:
    return _unique(cache for system in _systems(replay)
                   for engine in system.engines()
                   for cache in (engine.kv.gpu_cache, engine.kv.cpu_cache))


def _model_caches(replay) -> list:
    return _unique(engine.quick_loader.model_cache
                   for system in _systems(replay) for engine in system.engines())


def layer_metrics(profiler: Profiler, replay) -> dict:
    """Per-layer metrics of one traced replay (read right after ``run``)."""
    s = profiler.stats
    env = replay.env
    systems = _systems(replay)
    transfer = [st for system in systems for st in system.transfer_stats()]
    records = [r for system in systems for r in system.scale_records()]
    switch = sorted(r.total for r in records)
    caches = _model_caches(replay)
    hits = sum(c.hits for c in caches)
    lookups = hits + sum(c.misses for c in caches)
    memo_hits = memo_calls = 0
    for model in profiler.latency_models:
        for info in model.cache_info().values():
            memo_hits += info.hits
            memo_calls += info.hits + info.misses
    tracers = _tracers(replay)
    controller = {}
    fleet = getattr(replay, "fleet", None)
    if fleet is not None and fleet.controller is not None:
        controller = fleet.controller.summary()
    # Self times are reported as shares of all wrapped time (the traced
    # replay from the first ``Environment.run`` on), so a layer the
    # workload never enters reads 0 as a ratio, not as a constant time.
    total = sum(stat.self_s for stat in s.values())

    def share(*keys: str) -> float:
        return _ratio(sum(s[key].self_s for key in keys), total)

    out = {
        "sim.steps": env.steps_executed,
        "sim.events_scheduled": env.events_scheduled,
        "sim.events_recycled": env.events_recycled,
        "sim.end_s": env.now,
        "workload.requests_generated": replay.stream.generated,
        "memory.slab_alloc_calls": s["memory.slab_alloc"].calls,
        "memory.slab_alloc_blocks": s["memory.slab_alloc"].items,
        "memory.slab_alloc_self_share": share("memory.slab_alloc"),
        "memory.slab_alloc_failed": s["memory.slab_alloc"].failed,
        "memory.slab_free_calls": s["memory.slab_free"].calls,
        "memory.slab_free_self_share": share("memory.slab_free"),
        "memory.model_cache_hit_ratio": _ratio(hits, lookups),
        "transfer.swap_calls": s["transfer.swap"].calls,
        "transfer.swap_self_share": share("transfer.swap"),
        "transfer.copy_calls": s["transfer.copy"].calls,
        "transfer.copy_self_share": share("transfer.copy"),
        "transfer.load_calls": s["transfer.load"].calls,
        "transfer.bytes_in": sum(st.bytes_in for st in transfer),
        "transfer.bytes_out": sum(st.bytes_out for st in transfer),
        "transfer.data_wait_s": sum(st.data_wait for st in transfer),
        "models.latency_calls": s["models.latency"].calls,
        "models.latency_self_share": share("models.latency"),
        "models.latency_memo_hit_ratio": _ratio(memo_hits, memo_calls),
        "engine.estimate_switch_calls": s["engine.estimate_switch"].calls,
        "engine.estimate_switch_self_share": share("engine.estimate_switch"),
        "engine.scale_to_calls": s["engine.scale_to"].calls,
        "engine.scale_ups": len(records),
        "engine.switch_p50_s": _quantile(switch, 0.50),
        "engine.switch_p99_s": _quantile(switch, 0.99),
        "engine.prefetch_hit_ratio": _ratio(
            sum(r.prefetch_hit for r in records), len(records)),
        "core.submit_calls": s["core.submit"].calls,
        "core.submit_self_share": share("core.submit"),
        "core.admission_pressure_calls": s["core.admission_pressure"].calls,
        "core.admission_pressure_self_share": share("core.admission_pressure"),
        "core.estimate_load_calls": s["core.estimate_load"].calls,
        "core.estimate_group_time_calls": s["core.estimate_group_time"].calls,
        "core.estimate_self_share": share("core.estimate_load",
                                          "core.estimate_group_time"),
        "core.dispatch_calls": s["core.dispatch"].calls,
        "core.dispatch_self_share": share("core.dispatch"),
        "policy.admission_calls": s["policy.admission"].calls,
        "policy.admission_self_share": share("policy.admission"),
        "policy.admission_rejects": s["policy.admission"].items,
        "policy.place_calls": s["policy.place"].calls,
        "policy.place_self_share": share("policy.place"),
        "policy.fleet_decision_calls": s["policy.fleet_decision"].calls,
        "policy.fleet_decision_self_share": share("policy.fleet_decision"),
        "fleet.shard_of_calls": s["fleet.shard_of"].calls,
        "fleet.fold_calls": s["fleet.fold"].calls,
        "fleet.fold_self_share": share("fleet.fold"),
        "fleet.controller_ticks": controller.get("ticks", 0),
        "fleet.spills": controller.get("spills", 0),
        "fleet.spill_bound_hits": controller.get("spill_bound_hits", 0),
        "fleet.migrations": controller.get("migrations", 0),
        "obs.record_calls": s["obs.record"].calls,
        "obs.record_self_share": share("obs.record"),
        "obs.spans_recorded": sum(len(t.spans) for t in tracers),
        "obs.disabled_calls": s["obs.disabled"].calls,
        "obs.disabled_self_share": share("obs.disabled"),
        "trace.wrapped_s": total,
        "trace.spans": profiler.span_count(),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = share(*(key for key in s
                                             if key.split(".", 1)[0] == layer))
    return out


def counter_checks(profiler: Profiler, replay, metrics: dict) -> list:
    """Wrapper counts that must equal the program's own counters."""
    s = profiler.stats
    systems = _systems(replay)
    transfer = [st for system in systems for st in system.transfer_stats()]
    tracers = _tracers(replay)
    allocators = _allocators(replay)
    caches = _model_caches(replay)
    checks = [
        ("transfer.swap_calls == TransferStats swap_in_count + swap_out_count",
         s["transfer.swap"].calls,
         sum(st.swap_in_count + st.swap_out_count for st in transfer)),
        ("memory.slab_alloc_blocks == SlabAllocator.blocks_allocated",
         s["memory.slab_alloc"].items,
         sum(a.blocks_allocated for a in allocators)),
        ("memory model-cache lookups == hits + misses",
         s["memory.model_cache_lookup"].calls,
         sum(c.hits + c.misses for c in caches)),
        ("workload draws == requests generated + end of stream",
         s["workload.gen"].calls, replay.stream.generated + 1),
        ("obs.record_calls == spans + instants + counters held",
         s["obs.record"].calls, sum(len(t) for t in tracers)),
        ("engine.scale_to_calls == scale records",
         s["engine.scale_to"].calls, metrics["engine.scale_ups"]),
    ]
    fleet = getattr(replay, "fleet", None)
    if fleet is not None:
        total = replay.result.rollup.total
        checks += [
            ("core.submit_calls == pumped + spills",
             s["core.submit"].calls, replay.result.submitted + total.spilled),
            ("fleet.fold_calls == folds - spills",
             s["fleet.fold"].calls, total.requests - total.spilled),
            ("policy.admission_rejects == rejected + spilled",
             s["policy.admission"].items, total.rejected + total.spilled),
            ("policy.admission_calls == shard submissions",
             s["policy.admission"].calls,
             sum(system.proxy.submitted for system in systems)),
        ]
    else:
        system = replay.system
        checks += [
            ("policy.admission_calls == submitted",
             s["policy.admission"].calls, system.proxy.submitted),
            ("policy.admission_rejects == rejected",
             s["policy.admission"].items, system.registry.rejected),
        ]
    return [f"{name}: wrapper {got} != program {want}"
            for name, got, want in checks if got != want]
