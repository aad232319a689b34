"""Tests for the slab-allocated unified KV cache (§5.2, Figure 16)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import KvBlocks, SlabAllocator
from repro.models import get_model, kv_shape

from .strategies import MiB, slab_operations


@pytest.fixture
def allocator():
    # 64 slabs of 16 MiB = 1 GiB region.
    return SlabAllocator(region_bytes=1024 * MiB, slab_bytes=16 * MiB)


def pairs(holding):
    """A holding's flat runs as ``(slab index, count)`` pairs."""
    return list(zip(holding.runs[::2], holding.runs[1::2]))


class TestSlabBasics:
    def test_alloc_returns_distinct_blocks(self, allocator):
        blocks = allocator.alloc("shape-a", block_bytes=1 * MiB, count=20)
        assert len(blocks) == 20
        assert blocks.shape == "shape-a"
        # 16 blocks fill the first slab; the rest start a second one.
        (first, filled), (second, rest) = pairs(blocks)
        assert (filled, rest) == (16, 4) and first != second
        assert [allocator._slabs[i].used_count for i in (first, second)] == [16, 4]

    def test_blocks_fill_slab_before_acquiring_new(self, allocator):
        blocks = allocator.alloc("a", block_bytes=1 * MiB, count=16)
        assert len(pairs(blocks)) == 1
        more = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        assert pairs(more)[0][0] != pairs(blocks)[0][0]

    def test_free_returns_slab_to_pool(self, allocator):
        initial_free = allocator.free_slab_count
        blocks = allocator.alloc("a", block_bytes=1 * MiB, count=16)
        assert allocator.free_slab_count == initial_free - 1
        allocator.free(blocks)
        assert allocator.free_slab_count == initial_free
        assert len(blocks) == 0

    def test_freed_slab_reusable_by_other_shape(self, allocator):
        blocks = allocator.alloc("a", block_bytes=16 * MiB, count=64)
        with pytest.raises(MemoryError):
            allocator.alloc("b", block_bytes=1 * MiB, count=1)
        allocator.free(blocks)
        allocator.alloc("b", block_bytes=1 * MiB, count=64 * 16)

    def test_double_free_detected(self, allocator):
        blocks = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        allocator.free(blocks)
        with pytest.raises(ValueError):
            allocator.free(blocks)

    def test_free_into_slab_of_other_shape_detected(self, allocator):
        stale = allocator.alloc("a", block_bytes=1 * MiB, count=2)
        (slab, _), = pairs(stale)
        # A copy of the holding outlives its free; the slab is rebound.
        copy = KvBlocks(stale.shape, 2, list(stale.runs), allocator)
        allocator.free(stale)
        other = allocator.alloc("b", block_bytes=2 * MiB, count=2)
        assert pairs(other) == [(slab, 2)]
        with pytest.raises(ValueError):
            allocator.free(copy)

    def test_over_free_of_a_slab_detected(self, allocator):
        held = allocator.alloc("a", block_bytes=1 * MiB, count=2)
        forged = KvBlocks("a", 3, [pairs(held)[0][0], 3], allocator)
        with pytest.raises(ValueError):
            allocator.free(forged)

    def test_free_into_other_allocator_detected(self, allocator):
        other = SlabAllocator(region_bytes=1024 * MiB, slab_bytes=16 * MiB)
        blocks = other.alloc("a", block_bytes=1 * MiB, count=1)
        allocator.alloc("a", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            allocator.free(blocks)

    def test_equal_shape_objects_share_slabs(self, allocator):
        # Shapes compare by value: an equal but distinct key finds the
        # slab the first one listed instead of stranding its free blocks.
        first = allocator.alloc("".join(["sh", "ape"]), 1 * MiB, 1)
        second = allocator.alloc("".join(["sh", "ape"]), 1 * MiB, 15)
        assert pairs(second) == [(pairs(first)[0][0], 15)]

    def test_conflicting_block_bytes_rejected(self, allocator):
        allocator.alloc("a", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            allocator.alloc("a", block_bytes=2 * MiB, count=1)

    def test_all_or_nothing_on_exhaustion(self, allocator):
        held = allocator.alloc("a", block_bytes=16 * MiB, count=63)
        allocated = allocator.blocks_allocated
        with pytest.raises(MemoryError):
            allocator.alloc("b", block_bytes=16 * MiB, count=2)
        # The failed alloc must not leak partial blocks.
        assert allocator.free_slab_count == 1
        assert allocator.blocks_allocated == allocated
        allocator.free(held)

    def test_region_truncated_to_slab_multiple(self):
        allocator = SlabAllocator(region_bytes=100 * MiB, slab_bytes=16 * MiB)
        assert allocator.slab_count == 6
        assert allocator.region_bytes == 96 * MiB


class TestExtend:
    def test_growth_joins_runs_on_one_slab(self, allocator):
        held = allocator.alloc("a", block_bytes=1 * MiB, count=3)
        for _ in range(15):
            held.extend(allocator.alloc("a", block_bytes=1 * MiB, count=1))
        assert len(held) == 18
        # 16 on the first slab, joined into one run; 2 on the next.
        assert [count for _, count in pairs(held)] == [16, 2]
        allocator.free(held)
        assert allocator.held_bytes == 0

    def test_extend_consumes_the_merged_holding(self, allocator):
        held = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        more = allocator.alloc("a", block_bytes=1 * MiB, count=2)
        held.extend(more)
        assert len(more) == 0 and len(held) == 3
        with pytest.raises(ValueError):
            allocator.free(more)
        allocator.free(held)
        assert allocator.blocks_allocated == allocator.blocks_freed == 3

    def test_extend_rejects_other_shape(self, allocator):
        held = allocator.alloc("a", block_bytes=1 * MiB, count=1)
        other = allocator.alloc("b", block_bytes=1 * MiB, count=1)
        with pytest.raises(ValueError):
            held.extend(other)


class TestRealKvShapes:
    """Exercise the allocator with the paper's actual KV shapes."""

    def test_mixed_models_coexist(self, allocator):
        shapes = {
            name: kv_shape(get_model(name))
            for name in ["Qwen-7B", "InternLM2.5-7B", "Llama-13B"]
        }
        held = {}
        for name, shape in shapes.items():
            held[name] = allocator.alloc(shape, shape.block_bytes(16), count=3)
        stats = {str(s.shape): s for s in allocator.shape_stats()}
        assert len(stats) == 3
        for name, blocks in held.items():
            allocator.free(blocks)
        assert allocator.held_bytes == 0

    def test_fragmentation_below_paper_bound(self, allocator):
        # Figure 16: overall fragmentation stays below ~20% in steady
        # state for realistic block sizes.
        shape = kv_shape(get_model("Qwen-7B"))
        block = shape.block_bytes(16)  # 8 MiB
        allocator.alloc(shape, block, count=100)
        assert allocator.overall_fragmentation() < 0.2


#: Per-step runs of :func:`placement_steps`, flat ``[slab, count, ...]``;
#: None marks an allocation refused with ``MemoryError``.  Recorded from
#: the per-block allocator this one replaced (its block lists grouped
#: into runs), so slab choice is pinned across the rewrite.
PLACEMENT_GOLDEN = [
    [9, 4, 8, 2], [9, 1], [9, 1], [8, 1], [8, 2, 7, 1], [8, 2, 7, 1],
    [7, 2, 6, 2, 5, 1], [5, 1, 4, 2, 3, 1], [8, 2], [9, 3, 8, 2], [9, 4],
    [7, 2, 6, 2, 5, 1, 3, 1], [8, 2, 2, 4], [8, 2, 1, 2],
    [9, 4, 1, 2, 0, 1], [0, 2], [0, 1], [8, 2, 2, 4], [9, 4, 1, 2, 0, 1],
    [0, 2], [0, 1], [8, 2, 1, 2], [1, 2, 8, 2, 0, 1],
    [5, 1, 4, 2, 3, 1, 0, 1, 9, 1], [1, 2, 8, 2, 0, 1],
    [7, 2, 6, 2, 5, 1, 3, 1, 9, 1, 0, 1],
    [7, 2, 6, 2, 5, 1, 3, 1, 9, 1, 0, 1], [5, 1, 3, 1], [5, 1, 3, 1],
    [6, 4, 7, 1], [9, 1, 0, 1, 5, 1, 3, 1, 8, 1], [7, 1],
    [6, 4, 7, 3, 1, 1], [9, 1, 0, 1, 5, 1, 3, 1, 8, 1], [6, 4, 7, 3, 1, 4],
    [9, 1, 0, 1, 5, 1, 3, 1, 8, 2], [2, 2], None, [6, 4, 7, 3, 1, 4],
    [2, 1], [7, 1, 2, 1], [7, 1, 2, 1], [2, 2],
    [5, 1, 4, 2, 3, 1, 0, 1, 9, 1], [2, 1], [9, 1, 0, 1, 5, 1, 3, 1, 8, 2],
    [8, 4, 3, 1], [8, 4, 3, 1], [3, 2], [3, 2], [3, 1], [3, 1],
    [3, 2, 8, 1], [3, 2, 8, 2, 5, 1], [3, 2, 8, 2, 5, 1],
    [5, 2, 8, 2, 3, 1], [5, 2, 8, 2, 3, 2, 0, 1], [9, 4, 2, 1], [2, 3],
    [4, 4], [5, 2, 8, 2, 3, 2, 0, 1], [0, 2, 3, 1], [9, 4, 2, 1], [2, 3],
]


def placement_steps(allocator):
    """A fixed alloc/free/grow sequence; yields each step's runs.

    Alloc and grow steps yield the holding's runs afterwards, free steps
    the runs of the holding freed.  The scripted prefix relists a full
    slab while its stale availability entry is still queued: slab 9 is
    filled on acquisition (its entry stays, stale), one of its blocks is
    freed (relisted: appended behind slab 8), and the next block comes
    from slab 9 at the old position, not from slab 8.
    """
    block_bytes = {"a": 1 * MiB, "b": 2 * MiB}
    first = allocator.alloc("a", block_bytes["a"], 6)
    yield list(first.runs)
    # Split one block off the first run: whole-holding frees never
    # relist a slab filled on acquisition, so build the case by hand.
    slab = first.runs[0]
    part = KvBlocks("a", 1, [slab, 1], allocator)
    rest = KvBlocks("a", 5, [slab, first.runs[1] - 1] + first.runs[2:], allocator)
    yield list(part.runs)
    allocator.free(part)
    live = [rest]
    for _ in range(2):
        live.append(allocator.alloc("a", block_bytes["a"], 1))
        yield list(live[-1].runs)
    rng = random.Random(2025)
    for _ in range(60):
        roll = rng.random()
        if roll < 0.35 or not live:
            shape = rng.choice(("a", "b"))
            try:
                holding = allocator.alloc(
                    shape, block_bytes[shape], rng.randint(1, 6)
                )
            except MemoryError:
                yield None
                continue
            live.append(holding)
            yield list(holding.runs)
        elif roll < 0.6:
            holding = live[rng.randrange(len(live))]
            try:
                more = allocator.alloc(
                    holding.shape, block_bytes[holding.shape], rng.randint(1, 3)
                )
            except MemoryError:
                yield None
                continue
            holding.extend(more)
            yield list(holding.runs)
        else:
            holding = live.pop(rng.randrange(len(live)))
            yield list(holding.runs)
            allocator.free(holding)


class TestPlacementGolden:
    def test_runs_match_recorded_placement(self):
        allocator = SlabAllocator(region_bytes=40 * MiB, slab_bytes=4 * MiB)
        assert list(placement_steps(allocator)) == PLACEMENT_GOLDEN
        assert allocator._free_slabs == [6, 1, 7, 5, 8, 9, 2]
        assert [slab.used_count for slab in allocator._slabs] == [
            2, 0, 0, 1, 4, 0, 0, 0, 0, 0
        ]


class TestSlabProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations=slab_operations(shapes=4, max_blocks=12, max_size=60))
    def test_accounting_invariants(self, operations):
        allocator = SlabAllocator(region_bytes=64 * MiB, slab_bytes=4 * MiB)
        block_bytes = {0: 256 * 1024, 1: 512 * 1024, 2: 1 * MiB, 3: 4 * MiB}
        live: dict[int, list] = {0: [], 1: [], 2: [], 3: []}
        for action, shape_id, count in operations:
            holdings = live[shape_id]
            if action == "alloc" or (action == "grow" and holdings):
                try:
                    blocks = allocator.alloc(shape_id, block_bytes[shape_id], count)
                except MemoryError:
                    continue
                if action == "alloc":
                    holdings.append(blocks)
                else:
                    holdings[-1].extend(blocks)
            else:
                # Free whole holdings, oldest first, until ``count``
                # blocks went back or none are left.
                freed = 0
                while holdings and freed < count:
                    taken = holdings.pop(0)
                    freed += len(taken)
                    allocator.free(taken)
            # Invariants after every step: per slab, the live holdings'
            # runs sum to its used count, which never exceeds capacity
            # (no block is handed out twice).
            per_slab: dict[int, int] = {}
            for shape_id_, group in live.items():
                for holding in group:
                    assert sum(holding.runs[1::2]) == len(holding)
                    for slab_index, run in pairs(holding):
                        assert run > 0
                        assert allocator._slabs[slab_index].shape == shape_id_
                        per_slab[slab_index] = per_slab.get(slab_index, 0) + run
            for slab in allocator._slabs:
                assert per_slab.get(slab.index, 0) == slab.used_count
                assert slab.used_count <= slab.blocks_per_slab
            live_bytes = sum(
                len(holding) * block_bytes[shape_id_]
                for shape_id_, group in live.items()
                for holding in group
            )
            assert live_bytes <= allocator.held_bytes <= allocator.region_bytes
            for stats in allocator.shape_stats():
                assert stats.used_blocks == sum(map(len, live[stats.shape]))
                assert 0.0 <= stats.fragmentation <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(min_value=1, max_value=256))
    def test_alloc_free_roundtrip_restores_state(self, count):
        allocator = SlabAllocator(region_bytes=64 * MiB, slab_bytes=4 * MiB)
        try:
            blocks = allocator.alloc("x", 256 * 1024, count)
        except MemoryError:
            return
        allocator.free(blocks)
        assert allocator.free_slab_count == allocator.slab_count
        assert allocator.overall_fragmentation() == 0.0
