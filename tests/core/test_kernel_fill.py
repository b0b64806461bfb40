"""Differential tests for the vectorised slot-table fill: every slot of
a new :class:`SlotPlacementTable` must equal the reference walk
(``place_*_from_slot``) — servers, flags and ``LookupError`` text —
over every active count, including all-degraded and unplaceable
memberships, in both chain modes."""

import random

import numpy as np
import pytest

from repro.core.kernel import SlotPlacementTable
from repro.core.layout import EqualWorkLayout
from repro.core.placement import (
    place_original_from_slot,
    place_primary_from_slot,
)
from repro.hashring.ring import HashRing

_rings = {}


def small_ring(n):
    """Equal-work ring with a small vnode budget (a few hundred slots),
    so the per-slot reference walk stays cheap."""
    if n not in _rings:
        layout = EqualWorkLayout.create(n, B=5 * n)
        ring = HashRing()
        for rank in layout.ranks:
            ring.add_server(rank, weight=layout.weight_of(rank))
        _rings[n] = (ring, layout)
    return _rings[n]


def active_sets(n, layout):
    """Only the primaries, only the secondaries, and for every active
    count k in 0..n the chain prefix {1..k} and a seeded random
    k-subset (which may switch primaries off)."""
    yield frozenset(layout.primary_ranks)
    yield frozenset(layout.secondary_ranks)
    rng = random.Random(n)
    for k in range(n + 1):
        yield frozenset(range(1, k + 1))
        yield frozenset(rng.sample(range(1, n + 1), k))


def outcome(fn):
    try:
        res = fn()
    except LookupError as exc:
        return "error", str(exc)
    return "ok", (res.servers, res.degraded, res.skipped_inactive)


def assert_table_matches(tbl, reference):
    bulk = tbl.gather(np.arange(tbl.num_slots))
    for slot in range(tbl.num_slots):
        want = outcome(lambda: reference(slot))
        assert outcome(lambda: tbl.lookup(slot)) == want, slot
        if want[0] == "ok":
            # A second lookup is served from the built result.
            assert tbl.lookup(slot) is tbl.lookup(slot)
            assert bulk.ok[slot]
            assert (tuple(bulk.servers[slot].tolist()),
                    bool(bulk.degraded[slot]),
                    bool(bulk.skipped_inactive[slot])) == want[1], slot
        else:
            assert not bulk.ok[slot]
            assert (bulk.servers[slot] == -1).all()
            assert not bulk.degraded[slot]
            assert not bulk.skipped_inactive[slot]


@pytest.mark.parametrize("n", [4, 10, 25])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("chain", ["walk", "rehash"])
def test_primary_fill_matches_reference(n, r, chain):
    ring, layout = small_ring(n)
    degraded = errors = 0
    for active in active_sets(n, layout):
        is_active = active.__contains__
        tbl = SlotPlacementTable(ring, r, is_active, layout.is_primary,
                                 chain)
        assert_table_matches(tbl, lambda slot: place_primary_from_slot(
            ring, slot, r, layout.is_primary, is_active, chain))
        bulk = tbl.gather(np.arange(tbl.num_slots))
        degraded += int(bulk.degraded.sum())
        errors += int((~bulk.ok).sum())
    # The sweep reaches the degraded fallback and unplaceable slots.
    assert degraded > 0 and errors > 0


@pytest.mark.parametrize("n", [4, 10, 25])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_original_fill_matches_reference(n, r):
    ring, layout = small_ring(n)
    for active in active_sets(n, layout):
        is_active = active.__contains__
        tbl = SlotPlacementTable(ring, r, is_active)
        assert_table_matches(tbl, lambda slot: place_original_from_slot(
            ring, slot, r, is_active))
    tbl = SlotPlacementTable(ring, r, None)
    assert_table_matches(tbl, lambda slot: place_original_from_slot(
        ring, slot, r))


def test_all_degraded_membership():
    """Only primaries active: with r=3 and p=2 every slot needs the
    §III-B fallback for its last replica, or cannot be placed."""
    ring, layout = small_ring(10)
    is_active = set(layout.primary_ranks).__contains__
    tbl = SlotPlacementTable(ring, 2, is_active, layout.is_primary)
    bulk = tbl.gather(np.arange(tbl.num_slots))
    assert bulk.all_ok and bulk.degraded.all()
    tbl = SlotPlacementTable(ring, 3, is_active, layout.is_primary)
    with pytest.raises(LookupError, match="only 2 of 3 replicas placeable"):
        tbl.lookup(0)


def test_rejects_zero_replicas():
    ring, layout = small_ring(4)
    with pytest.raises(ValueError):
        SlotPlacementTable(ring, 0, None, layout.is_primary)
