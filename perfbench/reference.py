"""Reference kernel: a fixed piece of Python that every pass times
between its harness calls.

The host is shared, and its speed drifts by tens of percent within
seconds and from one minute to the next.  That drift moves every
program on the host alike, so a pass's harness time divided by the
kernel's mean time, measured in the same interpreter just before each
harness call and just after the last, is the pass's cost in units of
the host's speed while it ran (``run_rel`` in ``run.py``).  The kernel
imitates the simulator's two kinds of hot loop: an event heap over
small objects and dicts (the request path), and small NumPy reductions
inside a Python loop (``repro.policy``).  One call takes about 0.15 s
and keeps under 2 MB live; it adds under 1 MB to a pass's peak RSS.

The kernel belongs to the benchmark, not to ``repro``: a change to the
simulator leaves it untouched, so ``run_rel`` moves exactly as the
harness time does.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

import numpy as np

#: What :func:`kernel` returns; anything else means it changed.
CHECKSUM = 63507


class _Req:
    __slots__ = ("due", "key", "size", "server")

    def __init__(self, due: float, key: int, size: int) -> None:
        self.due = due
        self.key = key
        self.size = size
        self.server = -1


def _event_loop(rng: random.Random, n: int) -> int:
    servers = [dict() for _ in range(61)]
    heap: list = []
    live: list = []
    now = 0.0
    done = 0
    for i in range(n):
        now += rng.expovariate(200.0)
        req = _Req(now, (i * 2654435761) & 0xFFFFFFFF, rng.randint(1, 64))
        heapq.heappush(heap, (now + rng.random(), i, req))
        live.append(req)
        while heap[0][0] < now:
            _, _, due = heapq.heappop(heap)
            due.server = due.key % 61
            table = servers[due.server]
            slot = due.key & 255
            table[slot] = table.get(slot, 0) + due.size
            done += 1
        if len(live) > 4_000:
            live = [r for r in live[2_000:] if r.server < 0 or r.key & 7]
    return done + sum(len(t) for t in servers)


def _small_reductions(rng: random.Random, n: int) -> int:
    total = 0
    shares = [1.0] * 10
    for _ in range(n):
        shares[rng.randrange(10)] += rng.random()
        arr = np.array(shares)
        total += int(arr.sum() > arr.max() * 3) + int(np.argmax(arr))
    return total


def kernel() -> int:
    rng = random.Random(20170529)
    return _event_loop(rng, 20_000) + _small_reductions(rng, 7_000)


def timed() -> float:
    """Seconds one :func:`kernel` call takes; raises if its answer is wrong.

    The garbage collector is paused for the call, and everything the
    kernel allocates is freed by reference counting, so the simulator's
    collections fall where they would without the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        got = kernel()
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != CHECKSUM:
        raise RuntimeError(f"reference kernel returned {got}, "
                           f"expected {CHECKSUM}")
    return elapsed
