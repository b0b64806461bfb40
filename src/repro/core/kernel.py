"""The slot-table placement kernel: memoized per-version placement and
vectorised bulk locate.

The whole-cluster sweeps that dominate the paper's evaluation — resize
planning, Algorithm 2 re-integration scans, fsck, distribution
analysis, trace replay — all re-evaluate Algorithm 1 for every object.
But for a *fixed* membership version the placement of a key depends
only on its successor slot (the first vnode at or after ``hash(key)``):
every key landing in the same arc walks the identical server sequence.
There are only V vnode slots, so the placement of an entire version is
a table of V rows.  The table is filled in one go when it is created:
the reference walk (:mod:`repro.core.placement`) runs from all V slots
at once as array operations over the ring (:class:`_VectorWalk`).

Two access paths share the table:

* scalar ``lookup(slot)`` — one list access once the slot's
  :class:`PlacementResult` is built (on its first lookup); the
  :class:`~repro.core.elastic.ElasticConsistentHash` facade adds an
  oid→slot cache on top, so a repeated ``locate`` never touches the
  ring again;
* vectorised ``gather(slots)`` — one fancy-index produces a compact
  :class:`BulkPlacement` (server-index matrix plus degraded / offloaded
  bitmasks) for a whole key array.

Invalidation rules
------------------
* **Ring membership** (``add_server`` / ``remove_server`` /
  ``set_weight``, e.g. a dynamic-primary re-layout) renumbers the vnode
  slots: the ring's ``generation`` counter advances and the kernel
  drops *every* table on the next access.
* **Resizes** (``set_active`` and friends) never mutate the ring — the
  elastic design's point — so existing tables stay valid; the new
  version simply keys a new table.  Membership tables are immutable,
  which is what makes per-version memoization sound.
* Role changes without a weight change (possible under the *uniform*
  layout) are covered by an explicit :meth:`PlacementKernel.invalidate`
  hook called by the re-layout path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.core.placement import ChainMode, PlacementResult
from repro.hashring.hashing import hash64
from repro.hashring.ring import HashRing
from repro.obs.runtime import OBS

__all__ = ["BulkPlacement", "SlotPlacementTable", "PlacementKernel"]

Predicate = Callable[[Hashable], bool]

#: Cap on the facade-level oid→slot cache (see :class:`PlacementKernel`).
_SLOT_CACHE_MAX = 1 << 20

#: Rows per block of a table fill (see :class:`SlotPlacementTable`).
_FILL_ROWS = 4096

#: Sentinel for "no table cached yet" (``None`` is a legal version key).
_NO_KEY = object()


@dataclass(frozen=True)
class BulkPlacement:
    """Placements of N keys as compact arrays (no per-object objects).

    Attributes
    ----------
    servers:
        ``(N, r)`` integer array of server ids in replica order; rows
        of ``-1`` where the key was not placeable (see :attr:`ok`).
    degraded:
        ``(N,)`` bool — the §III-B special case fired for this key.
    skipped_inactive:
        ``(N,)`` bool — an inactive server was walked past (the write
        would be *offloaded* and dirty-tracked).
    ok:
        ``(N,)`` bool — False where the scalar path would have raised
        ``LookupError`` (fewer than r eligible servers).
    """

    servers: np.ndarray
    degraded: np.ndarray
    skipped_inactive: np.ndarray
    ok: np.ndarray

    def __len__(self) -> int:
        return int(self.servers.shape[0])

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())

    def rows(self) -> List[List[int]]:
        """Server rows as plain Python ints (cheap C-level conversion)."""
        return self.servers.tolist()

    def result(self, i: int) -> PlacementResult:
        """Row *i* re-materialised as a :class:`PlacementResult`."""
        if not self.ok[i]:
            raise LookupError(f"key at index {i} not placeable")
        return PlacementResult(
            tuple(self.servers[i].tolist()),
            degraded=bool(self.degraded[i]),
            skipped_inactive=bool(self.skipped_inactive[i]),
        )


#: Role rows of :class:`_VectorWalk`: any active server, an active
#: primary, an active secondary.
_ANY, _PRIMARY, _SECONDARY = 0, 1, 2


class _VectorWalk:
    """:meth:`~repro.core.placement._RingWalker.find` for many cursors
    at once.

    The ring is doubled (slot ``V + i`` is slot ``i`` again) so a walk
    of one full circle from any cursor in ``[0, V)`` is a forward scan.
    Per role (any active server, active primary, active secondary) two
    arrays answer a scan step in one fancy index: ``next`` — the first
    eligible slot at or after a slot — and ``skip`` — for an eligible
    slot, the next eligible slot owned by a *different* server, which
    steps past a whole run of an already-selected server's vnodes.
    """

    def __init__(self, owners: np.ndarray, active: np.ndarray,
                 primary: np.ndarray) -> None:
        v = owners.size
        span = 2 * v
        self.owners = np.tile(owners.astype(np.int32), 2)
        self.eligible = np.stack((active, active & primary,
                                  active & ~primary))
        self.count = self.eligible.sum(axis=1)
        inactive = ~active[self.owners]
        self.any_inactive = bool(inactive.any())
        self.inactive_before = np.zeros(span + 1, dtype=np.int32)
        np.cumsum(inactive, out=self.inactive_before[1:])
        self.span = span
        self.next = np.empty((3, span), dtype=np.int32)
        self.skip = np.empty((3, span), dtype=np.int32)
        idx = np.arange(span, dtype=np.int32)
        for role in range(3):
            mask = self.eligible[role][self.owners]
            _next_index(np.where(mask, idx, span), self.next[role])
            slots = idx[mask]
            own = self.owners[slots]
            # run_end[i]: last position of the same-owner run holding i.
            run_end = np.empty(slots.size, dtype=np.int32)
            last = np.ones(slots.size, dtype=bool)
            last[:-1] = own[1:] != own[:-1]
            _next_index(np.where(last, np.arange(slots.size,
                                                 dtype=np.int32),
                                 slots.size), run_end)
            after = np.append(slots, np.int32(span))
            self.skip[role, slots] = after[run_end + 1]

    def find(self, cursor: np.ndarray, role: np.ndarray,
             selected: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First slot in ``[cursor, cursor + V)`` whose server has
        *role* and is not in its row of *selected*.

        Returns the match (a doubled-ring slot, or ``-1`` where no
        server qualifies) and whether the scan walked past an inactive
        server — a failed scan walks the whole circle.
        """
        left = self.count[role]
        for col in selected.T:
            left = left - self.eligible[role, col]
        rows = np.flatnonzero(left > 0)
        base = role[rows] * self.span
        cur = cursor[rows]
        hit_at = self.next.ravel()[base + cur]
        sel = selected[rows]
        todo = np.arange(rows.size)
        while todo.size and sel.shape[1]:
            own = self.owners[hit_at[todo]]
            taken = own == sel[todo, 0]
            for col in sel[todo, 1:].T:
                taken |= own == col
            todo = todo[taken]
            hit_at[todo] = self.skip.ravel()[base[todo] + hit_at[todo]]
        match = np.full(cursor.size, -1, dtype=np.intp)
        match[rows] = hit_at
        skipped = np.full(cursor.size, self.any_inactive)
        skipped[rows] = (self.inactive_before[hit_at]
                         > self.inactive_before[cur])
        return match, skipped


def _next_index(candidates: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = min(candidates[i:])`` — a reversed running minimum."""
    np.minimum.accumulate(candidates[::-1], out=out[::-1])


class SlotPlacementTable:
    """Per-slot placements for one (membership version, chain, r).

    Creation fills every slot at once with array operations — a
    vectorised run of the reference walk (``place_*_from_slot``) from
    all V slots together, flags and failures included.  The scalar
    path builds each frozen :class:`PlacementResult` (or the exact
    ``LookupError`` text of a slot the walk cannot place) from those
    arrays the first time the slot is looked up; ``_results`` holds
    ``None`` for a slot not yet built.

    ``is_primary=None`` selects original consistent hashing
    (:func:`~repro.core.placement.place_original_from_slot`), otherwise
    Algorithm 1 (:func:`~repro.core.placement.place_primary_from_slot`)
    with the given *chain*.  ``is_active=None`` means every server is
    active.
    """

    def __init__(self, ring: HashRing, r: int,
                 is_active: Optional[Predicate],
                 is_primary: Optional[Predicate] = None,
                 chain: ChainMode = "walk") -> None:
        if r < 1:
            raise ValueError("replica count must be >= 1")
        ring._rebuild_if_dirty()
        self._r = r
        self._primary_mode = is_primary is not None
        self._ids = ring._server_list
        self._server_ids = np.asarray(self._ids)
        nslots = ring._positions.size
        self._results: List[Union[PlacementResult, str, None]] = \
            [None] * nslots
        # Compact dtypes (server indexes and -1, replica counts): a
        # table lives while its version is in the LRU, and often until
        # the cyclic GC frees the cluster that owns it.
        self._servers = np.full((nslots, r), -1, dtype=np.min_scalar_type(
            -len(self._ids) - 1))
        self._placed = np.full(nslots, r, dtype=np.min_scalar_type(r))
        self._degraded = np.zeros(nslots, dtype=bool)
        self._skipped = np.zeros(nslots, dtype=bool)
        if nslots == 0:
            return
        active = np.fromiter(
            (is_active is None or bool(is_active(s)) for s in self._ids),
            dtype=bool, count=len(self._ids))
        primary = rehash = None
        if is_primary is not None:
            primary = np.fromiter((bool(is_primary(s)) for s in self._ids),
                                  dtype=bool, count=len(self._ids))
            if chain == "rehash":
                rehash = ring._positions.searchsorted(np.fromiter(
                    (hash64(s if isinstance(s, (str, bytes, int))
                            else repr(s)) for s in self._ids),
                    dtype=np.uint64, count=len(self._ids))) % nslots
        walk = _VectorWalk(ring._owners, active,
                           active if primary is None else primary)
        # Rows go in blocks so the walk's per-row temporaries stay
        # small next to the table itself.
        for lo in range(0, nslots, _FILL_ROWS):
            hi = min(lo + _FILL_ROWS, nslots)
            if primary is None:
                self._fill_original(walk, lo, hi)
            else:
                self._fill_primary(walk, primary, rehash, lo, hi)

    def _fill_original(self, walk: _VectorWalk, lo: int, hi: int) -> None:
        """First r distinct active servers clockwise of slots
        ``lo..hi-1``."""
        nslots, r = self._servers.shape
        if walk.count[_ANY] < r:
            # The walk finds every active server and still falls short.
            self._placed[lo:hi] = walk.count[_ANY]
            return
        role = np.zeros(hi - lo, dtype=np.intp)
        cursor = np.arange(lo, hi)
        for j in range(r):
            match, skipped = walk.find(cursor, role,
                                       self._servers[lo:hi, :j])
            self._skipped[lo:hi] |= skipped
            self._servers[lo:hi, j] = walk.owners[match]
            cursor = (match + 1) % nslots

    def _fill_primary(self, walk: _VectorWalk, primary: np.ndarray,
                      rehash: Optional[np.ndarray], lo: int, hi: int) -> None:
        """Algorithm 1 from slots ``lo..hi-1``: one vectorised select
        per replica, each with the §III-B role fallback."""
        nslots, r = self._servers.shape
        alive = np.arange(lo, hi)          # rows still being placed
        cursor = alive.copy()
        has_primary = np.zeros(alive.size, dtype=bool)
        for j in range(r):
            if j == 0:
                role = np.full(alive.size, _PRIMARY if r == 1 else _ANY)
            else:
                role = np.where(has_primary,
                                _SECONDARY, _ANY if j < r - 1 else _PRIMARY)
            chosen = self._servers[alive, :j]
            match, skipped = walk.find(cursor, role, chosen)
            self._skipped[alive] |= skipped
            # §III-B: role unmet — restart the search ignoring roles.
            retry = np.flatnonzero((match < 0) & (role != _ANY))
            if retry.size:
                self._degraded[alive[retry]] = True
                again, skipped = walk.find(
                    cursor[retry], np.zeros(retry.size, dtype=np.intp),
                    chosen[retry])
                match[retry] = again
                self._skipped[alive[retry]] |= skipped
            failed = match < 0
            self._placed[alive[failed]] = j
            keep = ~failed
            alive, match = alive[keep], match[keep]
            sid = walk.owners[match]
            self._servers[alive, j] = sid
            has_primary = has_primary[keep] | primary[sid]
            cursor = (rehash[sid] if rehash is not None
                      else (match + 1) % nslots)
        unplaced = lo + np.flatnonzero(self._placed[lo:hi] < r)
        self._servers[unplaced] = -1
        self._degraded[unplaced] = False
        self._skipped[unplaced] = False

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self._results)

    def _build(self, slot: int) -> Union[PlacementResult, str]:
        k = int(self._placed[slot])
        res: Union[PlacementResult, str]
        if k < self._r:
            res = ("no active server" if k == 0 and self._primary_mode
                   else f"only {k} of {self._r} replicas placeable")
        else:
            ids = self._ids
            res = PlacementResult(
                tuple([ids[i] for i in self._servers[slot].tolist()]),
                degraded=bool(self._degraded[slot]),
                skipped_inactive=bool(self._skipped[slot]))
        self._results[slot] = res
        return res

    def lookup(self, slot: int) -> PlacementResult:
        """Placement of one slot (raising ``LookupError`` exactly where
        the reference walk would)."""
        res = self._results[slot]
        if res is None:
            res = self._build(slot)
        elif OBS.hot:
            OBS.metrics.inc("ring.table_hits")
        if type(res) is str:
            raise LookupError(res)
        return res

    def gather(self, slots: np.ndarray) -> BulkPlacement:
        """Vectorised placement of a slot array."""
        if OBS.hot and slots.size:
            OBS.metrics.inc("ring.table_hits", int(slots.size))
        idx = self._servers[slots]
        ids = self._server_ids[np.clip(idx, 0, None)]
        if ids.dtype.kind in "iu":
            ids = ids.copy()
            ids[idx < 0] = -1
        return BulkPlacement(
            servers=ids,
            degraded=self._degraded[slots],
            skipped_inactive=self._skipped[slots],
            ok=self._placed[slots] == self._r,
        )


class PlacementKernel:
    """Slot tables for every membership version of one ring, plus an
    oid→slot cache for the scalar hot path.

    Tables are keyed by the caller's version key (``None`` for an
    unversioned ring, e.g. the original-CH baseline) and kept in a
    small LRU — trace replays can touch hundreds of versions but only
    the recent few stay hot.  All state is dropped when the ring's
    membership generation advances.
    """

    def __init__(
        self,
        ring: HashRing,
        replicas: int,
        placement_mode: str = "primary",
        chain: ChainMode = "walk",
        is_primary: Optional[Predicate] = None,
        max_tables: int = 16,
    ) -> None:
        if placement_mode not in ("primary", "original"):
            raise ValueError(f"unknown placement_mode: {placement_mode!r}")
        if placement_mode == "primary" and is_primary is None:
            raise ValueError("primary placement needs an is_primary oracle")
        self._ring = ring
        self._replicas = replicas
        self._mode = placement_mode
        self._chain: ChainMode = chain
        self._is_primary = is_primary
        self._max_tables = max_tables
        self._tables: "OrderedDict[Hashable, SlotPlacementTable]" = \
            OrderedDict()
        self._slot_cache: Dict[Hashable, int] = {}
        self._generation = ring.generation
        # One-entry fast path over the LRU: repeated locates against a
        # settled version skip the OrderedDict bookkeeping entirely.
        self._last_key: Hashable = _NO_KEY
        self._last_tbl: Optional[SlotPlacementTable] = None

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every memoized table (role/layout change and
        crash/repair hook)."""
        self._tables.clear()
        self._slot_cache.clear()
        self._last_key = _NO_KEY
        self._last_tbl = None
        self._generation = self._ring.generation
        OBS.metrics.inc("kernel.invalidations")

    def _check_generation(self) -> None:
        if self._ring.generation != self._generation:
            self.invalidate()

    @property
    def cached_tables(self) -> Tuple[Hashable, ...]:
        """Version keys currently memoized (oldest first) — for tests
        and capacity introspection."""
        return tuple(self._tables)

    # ------------------------------------------------------------------
    def table(self, key: Hashable,
              is_active: Optional[Predicate]) -> SlotPlacementTable:
        """The slot table for one membership *key* (created and filled
        on first use).

        *is_active* must be the pure membership predicate belonging to
        *key*; it is captured at table creation, which is sound because
        membership tables are immutable.
        """
        if (key == self._last_key
                and self._ring.generation == self._generation):
            # Already the most-recent LRU entry: no move_to_end needed.
            return self._last_tbl  # type: ignore[return-value]
        self._check_generation()
        tbl = self._tables.get(key)
        if tbl is None:
            tbl = SlotPlacementTable(
                self._ring, self._replicas, is_active,
                self._is_primary if self._mode == "primary" else None,
                self._chain)
            self._tables[key] = tbl
            if len(self._tables) > self._max_tables:
                self._tables.popitem(last=False)
        else:
            self._tables.move_to_end(key)
        self._last_key, self._last_tbl = key, tbl
        return tbl

    # ------------------------------------------------------------------
    def slot_of(self, oid: Hashable) -> int:
        """Successor slot of *oid*, memoized per ring generation.

        The cache is what turns a repeated scalar ``locate`` into two
        dict hits: oid→slot here, slot→result in the table.
        """
        slot = self._slot_cache.get(oid)
        if slot is None:
            self._check_generation()
            slot = self._ring.successor_slot(self._ring.key_position(oid))
            if len(self._slot_cache) >= _SLOT_CACHE_MAX:
                self._slot_cache.clear()
            self._slot_cache[oid] = slot
        return slot
