"""Runtime invariant checking for serving runs.

An :class:`InvariantChecker` attaches to any serving system speaking the
:class:`~repro.core.serving.ServingSystem` protocol and periodically
verifies, *while the run is in flight*, that the system still preserves
the paper's scheduling semantics:

**I1 — KV-block conservation.**  For every slab allocator, internal
accounting is exact (each assigned slab's used count within its
capacity, ``held_bytes`` matches assigned slabs, peak is monotone,
allocated−freed equals live blocks).  Every live block is owned by
exactly one party: a request's KV handle, a move list (rule ❸ deferred
frees), or an in-flight swap-out source.  Ownership reconciles per
allocator and per slab: the runs of those holdings on a slab sum to the
slab's used count.

**I2 — Token monotonicity.**  Per request: token timestamps are
non-decreasing, never exceed the requested output length, never precede
arrival, and never lie in the simulation's future.

**I3 — No work on dead instances.**  A failed instance holds no queued
groups or batches and is absent from every scheduler's dispatch list.

**I4 — SLO-accounting consistency.**  Registry counts reconcile with
the proxy's request list and the system's finished/failed/rejected
ledgers; a FINISHED phase implies a complete token stream and a
finish timestamp.

Violations are collected (not raised mid-run) so a test can complete a
faulted scenario and then :meth:`assert_clean` — the difference between
"did not crash" and "provably preserved the invariants under chaos".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

from ..engine.request import Phase

__all__ = ["InvariantChecker", "InvariantViolation", "Violation"]


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_clean` on any violation."""


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time:.3f}] {self.invariant}: {self.detail}"


class InvariantChecker:
    """Periodic, attachable runtime verifier for one serving system."""

    def __init__(self, system, interval: float = 0.5, max_violations: int = 100):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.system = system
        self.env = system.env
        self.interval = interval
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.checks_run = 0
        # Per-request token-stream cursor: timestamps before the cursor
        # were already verified, so each check is O(new tokens) rather
        # than O(all tokens) — cheap enough for every test.
        self._token_cursor: dict[int, int] = {}
        self._finished_checked = 0
        self._process = self.env.process(self._run())

    # -- driver -------------------------------------------------------------
    def _run(self) -> Generator:
        while len(self.violations) < self.max_violations:
            yield self.env.timeout(self.interval)
            self.check_now()

    def check_now(self) -> list[Violation]:
        """Run every invariant once; returns violations found this pass."""
        before = len(self.violations)
        self._check_kv_conservation()
        self._check_tokens()
        self._check_dead_instances()
        self._check_accounting()
        self.checks_run += 1
        return self.violations[before:]

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if any check ever failed."""
        if self.violations:
            summary = "\n".join(str(v) for v in self.violations[:20])
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s):\n{summary}"
            )

    def _flag(self, invariant: str, detail: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(self.env.now, invariant, detail))

    # -- I1: KV-block conservation -----------------------------------------
    def _check_kv_conservation(self) -> None:
        engines = self._engines()
        if not engines:
            return
        # allocator -> {slab index: blocks its holders' runs place there}
        owned: dict[object, dict[int, int]] = {}
        move_lists: dict[int, object] = {}
        holdings = []
        for engine in engines:
            owned.setdefault(engine.gpu_kv_cache, {})
            manager = engine.kv
            owned.setdefault(manager.cpu_cache, {})
            move_lists[id(manager.move_list)] = manager.move_list
            holdings.extend(manager.inflight_sources)
        for move_list in move_lists.values():
            holdings.extend(blocks for blocks, _ in move_list.entries)
        for request in self._requests():
            kv = request.kv
            if kv is not None:
                holdings.append(kv.gpu_blocks)
                holdings.append(kv.cpu_blocks)
        for holding in holdings:
            if not holding:
                continue
            per_slab = owned.get(holding.allocator)
            if per_slab is None:
                self._flag(
                    "kv-conservation",
                    f"{holding!r} held on {holding.allocator.name}, which "
                    "no engine owns",
                )
                continue
            runs = holding.runs
            for i in range(0, len(runs), 2):
                per_slab[runs[i]] = per_slab.get(runs[i], 0) + runs[i + 1]
        for allocator, per_slab in owned.items():
            self._check_allocator(allocator, per_slab)

    def _check_allocator(self, allocator, owned: dict[int, int]) -> None:
        """Verify one slab allocator's internal accounting, and that the
        runs of every holder (requests, move lists, in-flight swap-out
        sources; ``owned``, slab index -> blocks) match each slab's used
        count exactly, so a leak, a double owner or a free applied to
        the wrong slab is caught on the slab it happened to.

        Only assigned slabs are walked (a mostly-empty multi-thousand
        slab CPU cache would dominate the check otherwise); the free
        pool is verified by count against the region total.
        """
        used_total = 0
        assigned = 0
        slabs = allocator._slabs
        for indices in allocator._shape_slabs.values():
            for index in indices:
                slab = slabs[index]
                assigned += 1
                used = slab.used_count
                if not 0 < used <= slab.blocks_per_slab:
                    self._flag(
                        "kv-conservation",
                        f"{allocator.name}: assigned slab {index} has {used} "
                        f"used of {slab.blocks_per_slab} blocks",
                    )
                held = owned.pop(index, 0)
                if held != used:
                    self._flag(
                        "kv-conservation",
                        f"{allocator.name}: slab {index} has {used} blocks in "
                        f"use, {held} held by requests, move lists and "
                        "in-flight swap-out sources",
                    )
                used_total += used
        for index, held in owned.items():
            self._flag(
                "kv-conservation",
                f"{allocator.name}: {held} blocks held on unassigned slab "
                f"{index}",
            )
        if assigned + len(allocator._free_slabs) != allocator.slab_count:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: {assigned} assigned + "
                f"{len(allocator._free_slabs)} free slabs != "
                f"{allocator.slab_count} in the region",
            )
        if allocator.held_bytes != assigned * allocator.slab_bytes:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: held_bytes {allocator.held_bytes} != "
                f"{assigned} assigned slabs x {allocator.slab_bytes}",
            )
        if allocator.peak_held_bytes < allocator.held_bytes:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: peak {allocator.peak_held_bytes} below "
                f"current held {allocator.held_bytes}",
            )
        if allocator.blocks_allocated - allocator.blocks_freed != used_total:
            self._flag(
                "kv-conservation",
                f"{allocator.name}: allocated {allocator.blocks_allocated} - "
                f"freed {allocator.blocks_freed} != {used_total} live blocks",
            )

    # -- I2: token monotonicity --------------------------------------------
    def _check_tokens(self) -> None:
        now = self.env.now
        cursors = self._token_cursor
        for request in self._requests():
            times = request.token_times
            count = len(times)
            if count > request.output_tokens:
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} generated {count} "
                    f"tokens of {request.output_tokens}",
                )
            if not count:
                if request.request_id in cursors:
                    # Chaos reset the stream; restart the cursor.
                    cursors[request.request_id] = 0
                continue
            start = cursors.get(request.request_id, 0)
            if start > count:  # stream shrank: re-verify from scratch
                start = 0
            if start == 0:
                if times[0] < request.arrival:
                    self._flag(
                        "token-monotonicity",
                        f"request {request.request_id} token before arrival",
                    )
                start = 1
            prev = times[start - 1]
            for index in range(start, count):
                t = times[index]
                if t < prev:
                    self._flag(
                        "token-monotonicity",
                        f"request {request.request_id} timestamps decrease "
                        f"at index {index}",
                    )
                    break
                prev = t
            if times[-1] > now + 1e-9:
                self._flag(
                    "token-monotonicity",
                    f"request {request.request_id} token in the future "
                    f"({times[-1]:.3f} > {now:.3f})",
                )
            cursors[request.request_id] = count

    # -- I3: no work on dead instances --------------------------------------
    def _check_dead_instances(self) -> None:
        system = self.system
        pools = (
            getattr(system, "prefill_instances", ()),
            getattr(system, "decode_instances", ()),
        )
        schedulers = [
            sched
            for sched in (
                getattr(system, "prefill_scheduler", None),
                getattr(system, "decode_scheduler", None),
            )
            if sched is not None
        ]
        for pool in pools:
            for instance in pool:
                if not getattr(instance, "dead", False):
                    continue
                queued = sum(
                    len(group.requests)
                    for group in getattr(instance, "groups", ())
                ) + sum(
                    len(batch.requests)
                    for batch in getattr(instance, "work_list", ())
                )
                if queued:
                    self._flag(
                        "dead-instance",
                        f"{instance.name} is dead but holds {queued} "
                        "queued request(s)",
                    )
                for sched in schedulers:
                    if instance in sched.instances:
                        self._flag(
                            "dead-instance",
                            f"{instance.name} is dead but still in "
                            f"{type(sched).__name__}'s dispatch list",
                        )

    # -- I4: SLO-accounting consistency --------------------------------------
    def _check_accounting(self) -> None:
        system = self.system
        registry = getattr(system, "registry", None)
        proxy = getattr(system, "proxy", None)
        if registry is None or proxy is None:
            return
        if registry.submitted != proxy.submitted:
            self._flag(
                "slo-accounting",
                f"registry saw {registry.submitted} submissions, proxy "
                f"admitted {proxy.submitted} requests",
            )
        retaining = getattr(system, "retain_requests", True)
        finished = getattr(system, "finished", [])
        failed = getattr(system, "failed", [])
        rejected = getattr(system, "rejected", [])
        if retaining:
            if registry.finished != len(finished):
                self._flag(
                    "slo-accounting",
                    f"registry counts {registry.finished} finished, system "
                    f"ledger holds {len(finished)}",
                )
            accounted = len(finished) + len(failed) + len(rejected)
        else:
            accounted = getattr(system, "accounted", 0)
            # Ledgers stay empty; the live map must mirror the registry's
            # in-flight arithmetic exactly.
            if len(proxy.live) != registry.in_flight:
                self._flag(
                    "slo-accounting",
                    f"proxy tracks {len(proxy.live)} live requests, registry "
                    f"arithmetic says {registry.in_flight} in flight",
                )
        if accounted > registry.submitted:
            self._flag(
                "slo-accounting",
                f"{accounted} requests accounted for, only "
                f"{registry.submitted} submitted",
            )
        if registry.in_flight < 0:
            self._flag(
                "slo-accounting", f"negative in-flight: {registry.in_flight}"
            )
        if retaining:
            # Only entries appended since the last pass need vetting.
            for request in finished[self._finished_checked :]:
                if not request.finished or request.finish_time is None:
                    self._flag(
                        "slo-accounting",
                        f"request {request.request_id} in the finished ledger "
                        "with an incomplete token stream",
                    )
            self._finished_checked = len(finished)

    def vet_terminal(self, request) -> None:
        """Per-request vetting at disposal time (non-retained runs).

        Replaces the finished-ledger sweep: each request is checked once,
        right before the system drops it, and its token cursor is
        released so checker memory tracks concurrency too.
        """
        if request.phase is Phase.FINISHED and (
            not request.finished or request.finish_time is None
        ):
            self._flag(
                "slo-accounting",
                f"request {request.request_id} disposed as finished with an "
                "incomplete token stream",
            )
        self._token_cursor.pop(request.request_id, None)

    # -- access helpers -------------------------------------------------------
    def _engines(self) -> list:
        engines = getattr(self.system, "engines", None)
        return list(engines()) if callable(engines) else []

    def _requests(self) -> Iterable:
        proxy = getattr(self.system, "proxy", None)
        return proxy.tracked_requests() if proxy is not None else ()
