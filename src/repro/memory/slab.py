"""Slab-allocated unified KV cache (§5.2, Figure 9 bottom).

KV-cache block sizes vary 20x across models (Table 1), so a unified
cache serving many models cannot pre-carve fixed per-shape pools without
fragmenting.  Aegaeon divides each cache region (VRAM or DRAM) into
fixed-size *slabs*; a slab is dynamically assigned to one KV shape and
serves fixed-size blocks of that shape until every block is freed, at
which point the slab returns to the shared free pool.

No block address is ever read: placement decides which slabs a shape
holds, and Figure 16 needs only per-slab used counts.  So the allocator
counts blocks per slab instead of tracking each one.  ``alloc`` returns a
:class:`KvBlocks` holding -- a shape, a block count and the
``(slab index, count)`` runs it occupies -- and ``free`` applies the
accounting once per run.  A second free of a holding, a free into a slab
of another shape and a free into another allocator are rejected, and the
fragmentation statistics are measured from live state.

Placement and hot-path design (the allocator sits on the per-decode-round
path of every instance):

* **Availability lists** -- per shape, the slabs believed to have free
  blocks, in listing order.  ``alloc`` takes ``min(free, remaining)``
  blocks from each, front first, then acquires new slabs from the end of
  the free-slab pool (each is appended to the list as it is acquired).
* **Lazy staleness** -- a slab that fills or is released is not searched
  out of the list: its entry goes stale (``Slab._avail_shape`` no longer
  names the shape) and ``alloc`` drops it on sight.  A slab filled on
  acquisition keeps its (stale) entry; if a free relists a slab whose old
  entry is still queued, the slab is found at that old position first.
  Placement, and with it every digest, depends on this order.
* **Consolidated per-shape state** -- block size, free-block total,
  availability list and assigned-slab list live in one ``_ShapeRec``,
  fetched with a single dict lookup per ``alloc``; the free path reaches
  it through ``Slab._rec`` with no hashing.  ``capacity_for`` reads the
  incrementally maintained free total and never scans slabs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..obs import NULL_OBS, Observability

__all__ = ["KvBlocks", "Slab", "SlabAllocator", "ShapeStats"]


class KvBlocks:
    """KV-cache blocks of one shape held together, as slab runs.

    ``runs`` is a flat list ``[slab, count, slab, count, ...]`` in
    allocation order; ``len()`` is the block count.  A holding comes from
    ``allocator``'s :meth:`SlabAllocator.alloc` and goes back whole to
    its :meth:`SlabAllocator.free`, which empties it (``runs`` becomes
    None) so that a second free is caught.
    """

    __slots__ = ("shape", "count", "runs", "allocator")

    def __init__(
        self, shape: Hashable, count: int, runs: list[int], allocator: "SlabAllocator"
    ):
        self.shape = shape
        self.count = count
        self.runs = runs
        self.allocator = allocator

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"KvBlocks({self.shape!r}, count={self.count}, runs={self.runs})"

    def extend(self, other: KvBlocks) -> None:
        """Take over ``other``, a later allocation, which is left empty.

        Its first run joins this holding's last run when both sit on the
        same slab, so a holding grown one block at a time stays one run
        per slab visit.
        """
        runs = self.runs
        more = other.runs
        if runs is None or more is None:
            raise ValueError("cannot extend with or into a freed holding")
        if other.allocator is not self.allocator or (
            other.shape is not self.shape and other.shape != self.shape
        ):
            raise ValueError(f"cannot merge {other!r} into {self!r}")
        if runs[-2] == more[0]:
            runs[-1] += more[1]
            runs += more[2:]
        else:
            runs += more
        self.count += other.count
        other.count = 0
        other.runs = None


@dataclass
class Slab:
    """A fixed-size chunk of the cache region, bound to one shape at a time."""

    index: int
    nbytes: int
    shape: Optional[Hashable] = None
    block_bytes: int = 0
    blocks_per_slab: int = 0
    used_count: int = 0
    # Shape this slab is listed under in the allocator's availability
    # lists, or None when not listed (full, free, or released).  Lets
    # stale availability entries be recognised without bookkeeping on
    # the release path.
    _avail_shape: Optional[Hashable] = field(default=None, repr=False)
    # The allocator's per-shape record this slab is assigned under
    # (set by _acquire_slab); gives the free path its shape bookkeeping
    # without any dict lookups.
    _rec: Optional["_ShapeRec"] = field(default=None, repr=False)

    def assign(self, shape: Hashable, block_bytes: int) -> None:
        """Bind this (previously free) slab to a shape."""
        if self.shape is not None:
            raise ValueError(f"slab {self.index} already assigned")
        if block_bytes <= 0 or block_bytes > self.nbytes:
            raise ValueError(
                f"block_bytes {block_bytes} does not fit slab of {self.nbytes}"
            )
        self.shape = shape
        self.block_bytes = block_bytes
        self.blocks_per_slab = self.nbytes // block_bytes
        self.used_count = 0

    def unassign(self) -> None:
        """Return the slab to the shared pool (must be empty)."""
        if self.used_count:
            raise ValueError(f"slab {self.index} still has used blocks")
        self.shape = None
        self.block_bytes = 0
        self.blocks_per_slab = 0
        self._avail_shape = None


@dataclass(frozen=True)
class ShapeStats:
    """Per-shape occupancy, the quantity plotted in Figure 16."""

    shape: Hashable
    block_bytes: int
    used_blocks: int
    slab_count: int
    slab_bytes: int

    @property
    def used_bytes(self) -> int:
        return self.used_blocks * self.block_bytes

    @property
    def held_bytes(self) -> int:
        return self.slab_count * self.slab_bytes

    @property
    def fragmentation(self) -> float:
        """Unused fraction of the memory held for this shape."""
        if self.held_bytes == 0:
            return 0.0
        return 1.0 - self.used_bytes / self.held_bytes


class _ShapeRec:
    """All per-shape allocator state, one dict lookup away.

    ``alloc`` fetches this record once per call; the free path reaches
    it through ``Slab._rec`` with no hashing at all.  Records are never
    deleted — a shape that loses its last slab keeps its registered
    ``block_bytes`` (conflicting re-registration stays an error) with
    ``free_count`` back at zero.
    """

    __slots__ = ("block_bytes", "per_slab", "free_count", "avail", "slabs")

    def __init__(self, block_bytes: int, per_slab: int):
        self.block_bytes = block_bytes
        self.per_slab = per_slab
        self.free_count = 0
        # Indices of assigned slabs believed to have free blocks, in
        # listing order; may contain stale entries, which alloc() drops
        # when their _avail_shape no longer matches.
        self.avail: list[int] = []
        # Indices of slabs currently assigned to this shape.
        self.slabs: list[int] = []


class SlabAllocator:
    """Unified KV cache over a region divided into fixed-size slabs."""

    def __init__(
        self,
        region_bytes: int,
        slab_bytes: int,
        name: str = "slab",
        obs: Observability = NULL_OBS,
    ):
        if slab_bytes <= 0 or region_bytes < slab_bytes:
            raise ValueError("region must hold at least one slab")
        self.slab_bytes = slab_bytes
        self.slab_count = region_bytes // slab_bytes
        self.region_bytes = self.slab_count * slab_bytes
        self._slabs = [Slab(index=i, nbytes=slab_bytes) for i in range(self.slab_count)]
        self._free_slabs: list[int] = list(range(self.slab_count))
        # shape -> consolidated per-shape state (block size, free-block
        # total, availability list, assigned slabs); one hash per alloc.
        self._shapes: dict[Hashable, _ShapeRec] = {}
        self._held_bytes = 0
        self.peak_held_bytes = 0
        # Plain-int lifetime totals, always live (unlike the obs
        # counters below, inert under NULL_OBS) — the invariant checker
        # reconciles allocated - freed against live blocks every tick.
        self.blocks_allocated = 0
        self.blocks_freed = 0
        self.name = name
        scope = obs.scoped(name)
        self._blocks_allocated = scope.counter("blocks_allocated")
        self._blocks_freed = scope.counter("blocks_freed")
        if obs.enabled:
            scope.gauge("held_bytes").set_fn(lambda: self.held_bytes)
            scope.gauge("fragmentation").set_fn(self.overall_fragmentation)

    # -- allocation ----------------------------------------------------------
    def alloc(self, shape: Hashable, block_bytes: int, count: int = 1) -> KvBlocks:
        """Allocate ``count`` blocks of ``shape``; all-or-nothing.

        Raises ``MemoryError`` when the region cannot satisfy the
        request even after acquiring new slabs.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        rec = self._shapes.get(shape)
        if rec is None:
            rec = _ShapeRec(block_bytes, self.slab_bytes // block_bytes)
            self._shapes[shape] = rec
        elif rec.block_bytes != block_bytes:
            raise ValueError(
                f"shape {shape!r} registered with block_bytes={rec.block_bytes}, "
                f"got {block_bytes}"
            )
        if (rec.free_count + len(self._free_slabs) * rec.per_slab) < count:
            raise MemoryError(
                f"unified cache cannot hold {count} blocks of {shape!r}"
            )
        slabs = self._slabs
        avail = rec.avail
        if count == 1:
            # Decode growth allocates one block per chunk per request --
            # the allocator's single hottest call shape.  Same slab
            # choice and list states as the general path (front of the
            # availability list, stale entries dropped on sight), minus
            # its loop scaffolding.
            while avail:
                slab_index = avail[0]
                slab = slabs[slab_index]
                listed = slab._avail_shape
                if listed is not shape and listed != shape:
                    del avail[0]  # stale: released or reassigned since listed
                    continue
                slab.used_count += 1
                if slab.used_count == slab.blocks_per_slab:
                    slab._avail_shape = None
                    del avail[0]
                rec.free_count -= 1
                self.blocks_allocated += 1
                self._blocks_allocated.inc(1)
                return KvBlocks(shape, 1, [slab_index, 1], self)
        runs: list[int] = []
        remaining = count
        if avail:
            read = write = 0
            n_avail = len(avail)
            while read < n_avail and remaining:
                slab_index = avail[read]
                read += 1
                slab = slabs[slab_index]
                listed = slab._avail_shape
                if listed is not shape and listed != shape:
                    continue  # stale: released or reassigned since listed
                taken = slab.blocks_per_slab - slab.used_count
                if taken > remaining:
                    taken = remaining
                    avail[write] = slab_index
                    write += 1
                else:
                    slab._avail_shape = None
                slab.used_count += taken
                runs += (slab_index, taken)
                remaining -= taken
            if write != read:
                del avail[write:read]
        while remaining:
            # A new slab stays listed; filled here, its entry goes stale.
            slab = self._acquire_slab(shape, block_bytes, rec)
            taken = slab.blocks_per_slab
            if taken > remaining:
                taken = remaining
            else:
                slab._avail_shape = None
            slab.used_count = taken
            runs += (slab.index, taken)
            remaining -= taken
        rec.free_count -= count
        self.blocks_allocated += count
        self._blocks_allocated.inc(count)
        return KvBlocks(shape, count, runs, self)

    def free(self, blocks: KvBlocks) -> None:
        """Release a holding; empty slabs return to the shared pool.

        The per-slab accounting (``used_count``, the shape's free total,
        the release/relist decision) is applied once per run, in run
        order.  The holding is left empty.
        """
        runs = blocks.runs
        if runs is None:
            raise ValueError(f"double free of {blocks!r}")
        if blocks.allocator is not self:
            raise ValueError(f"{blocks!r} belongs to another allocator")
        shape = blocks.shape
        slabs = self._slabs
        for i in range(0, len(runs), 2):
            slab = slabs[runs[i]]
            run = runs[i + 1]
            if slab.shape is not shape and slab.shape != shape:
                raise ValueError(
                    f"slab {slab.index} holds shape {slab.shape!r}, not the "
                    f"freed {shape!r} (double free?)"
                )
            used = slab.used_count - run
            if used < 0:
                raise ValueError(
                    f"freeing {run} blocks from slab {slab.index}, which has "
                    f"{slab.used_count} in use (double free?)"
                )
            slab.used_count = used
            rec = slab._rec
            rec.free_count += run
            if not used:
                self._release_slab(slab)
            elif slab._avail_shape is None:
                # Was full (or lazily delisted); list it again.
                slab._avail_shape = slab.shape
                rec.avail.append(slab.index)
        count = blocks.count
        blocks.count = 0
        blocks.runs = None
        self.blocks_freed += count
        self._blocks_freed.inc(count)

    # -- capacity ------------------------------------------------------------
    def capacity_for(self, shape: Hashable, block_bytes: int) -> int:
        """Blocks of ``shape`` allocatable right now (free + reclaimable)."""
        rec = self._shapes.get(shape)
        if rec is None:
            return len(self._free_slabs) * (self.slab_bytes // block_bytes)
        return rec.free_count + len(self._free_slabs) * rec.per_slab

    @property
    def free_slab_count(self) -> int:
        return len(self._free_slabs)

    # -- statistics (Figure 16) ------------------------------------------------
    @property
    def _shape_slabs(self) -> dict[Hashable, list[int]]:
        """shape -> assigned slab indices (view; cold-path introspection)."""
        return {
            shape: rec.slabs
            for shape, rec in self._shapes.items()
            if rec.slabs
        }

    def shape_stats(self) -> list[ShapeStats]:
        """Occupancy per shape, for shapes currently holding slabs."""
        stats = []
        for shape, rec in sorted(
            self._shapes.items(), key=lambda kv: str(kv[0])
        ):
            if not rec.slabs:
                continue
            used = sum(self._slabs[i].used_count for i in rec.slabs)
            stats.append(
                ShapeStats(
                    shape=shape,
                    block_bytes=rec.block_bytes,
                    used_blocks=used,
                    slab_count=len(rec.slabs),
                    slab_bytes=self.slab_bytes,
                )
            )
        return stats

    def overall_fragmentation(self) -> float:
        """Unused fraction of all held (assigned) slab memory."""
        held = used = 0
        for stats in self.shape_stats():
            held += stats.held_bytes
            used += stats.used_bytes
        return 0.0 if held == 0 else 1.0 - used / held

    @property
    def held_bytes(self) -> int:
        """Bytes in slabs currently assigned to some shape."""
        return self._held_bytes

    # -- internal ----------------------------------------------------------
    def _acquire_slab(
        self, shape: Hashable, block_bytes: int, rec: _ShapeRec
    ) -> Slab:
        if not self._free_slabs:
            raise MemoryError("no free slabs")
        slab = self._slabs[self._free_slabs.pop()]
        slab.assign(shape, block_bytes)
        slab._avail_shape = shape
        slab._rec = rec
        rec.slabs.append(slab.index)
        rec.avail.append(slab.index)
        rec.free_count += slab.blocks_per_slab
        self._held_bytes += self.slab_bytes
        if self._held_bytes > self.peak_held_bytes:
            self.peak_held_bytes = self._held_bytes
        return slab

    def _release_slab(self, slab: Slab) -> None:
        rec = slab._rec
        rec.slabs.remove(slab.index)
        rec.free_count -= slab.blocks_per_slab
        slab._rec = None
        slab.unassign()
        self._free_slabs.append(slab.index)
        self._held_bytes -= self.slab_bytes
