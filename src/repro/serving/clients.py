"""Client populations driving the admission coordinator.

Two canonical load shapes from the queueing literature:

- **Closed-loop** — N clients, each with at most one outstanding
  request, re-issuing after a think time.  Offered load *adapts* to
  service speed, which is exactly the behaviour completion-delay
  backpressure exploits.
- **Open-loop** — arrivals at rate ``users * per_user_rate``
  requests/s regardless of how the cluster is doing.  This is how a
  population of millions of users (each issuing rarely) looks to the
  front door; it does not adapt, so bounding queues under it requires
  admission control, not just backpressure.

All "randomness" (think-time jitter, interarrival gaps, retry
backoff) derives from FNV-1a hashes of ``(seed, population, ordinal)``
— no PRNG state, so a same-seed run replays byte-identically no
matter how completions and arrivals interleave.  Each population folds
its shared key prefixes (``"{seed}:{name}:gap:"`` and the like) once
and hashes only the ordinal suffix per draw; the draws are the same
as hashing the whole key string.

Populations do not fabricate requests themselves; the harness passes
a ``factory(pop, rid, key) -> Request`` that owns placement (which
oid, read or write, which server, what disk cost).  Populations own
only pacing: when to issue, when to retry, when to think.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from repro.hashring.hashing import fnv1a_state, hash64_from
from repro.simulation.engine import Simulator

from repro.serving.coordinator import AdmissionCoordinator, Request

__all__ = ["ClosedLoopPopulation", "OpenLoopPopulation"]

#: ``factory(pop, rid, key)`` builds the request; *key* is the FNV-1a
#: fold state (:func:`~repro.hashring.hashing.fnv1a_state`) of this
#: issue's deterministic hash namespace, e.g. ``"7:open:12"``.
RequestFactory = Callable[[str, int, int], Request]


def unit_draw(state: int, suffix: bytes) -> float:
    """Deterministic uniform in (0, 1) from the hash of the key whose
    fold state is *state* followed by *suffix* — the +0.5 offset keeps
    it off both endpoints so it is safe inside ``log``."""
    return (hash64_from(state, suffix) + 0.5) / 2.0 ** 64


def _prefix_state(seed: int, name: str, part: str = "") -> int:
    return fnv1a_state(f"{seed}:{name}:{part}".encode())


class ClosedLoopPopulation:
    """N think-time clients, one outstanding request each.

    A rejected request is retried (as a fresh request — new ordinal,
    new key) after a deterministically jittered backoff; a completed
    request triggers the next issue one jittered think time after the
    completion the *client saw*, i.e. including any backpressure
    delay.
    """

    def __init__(self, sim: Simulator, coordinator: AdmissionCoordinator,
                 factory: RequestFactory, *, clients: int,
                 think_time: float, seed: int,
                 retry_delay: float = 0.5, name: str = "closed") -> None:
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if think_time <= 0:
            raise ValueError("think_time must be > 0")
        if retry_delay <= 0:
            raise ValueError("retry_delay must be > 0")
        self.sim = sim
        self.coordinator = coordinator
        self.factory = factory
        self.clients = clients
        self.think_time = think_time
        self.seed = seed
        self.retry_delay = retry_delay
        self.name = name
        self.retries = 0
        self._issues = [0] * clients
        self._rid = itertools.count()
        self._key_state = _prefix_state(seed, name)
        self._first_state = _prefix_state(seed, name, "first:")
        self._think_state = _prefix_state(seed, name, "think:")

    def start(self) -> None:
        """Stagger first issues over one think time so thousands of
        clients do not arrive as a single same-instant spike."""
        for c in range(self.clients):
            first = self.think_time * unit_draw(self._first_state,
                                                b"%d" % c)
            self.sim.schedule_at(self.sim.now + first, self._issue, c)

    # ------------------------------------------------------------------
    def _issue(self, c: int) -> None:
        n = self._issues[c]
        self._issues[c] += 1
        key = fnv1a_state(b"%d:%d" % (c, n), self._key_state)
        req = self.factory(self.name, next(self._rid), key)
        wrapped = req.on_complete

        def done(r: Request, t: float, _c: int = c,
                 _orig: Optional[Callable] = wrapped) -> None:
            if _orig is not None:
                _orig(r, t)
            self._think(_c)

        def rejected(r: Request, _c: int = c, _key: int = key) -> None:
            self.retries += 1
            backoff = self.retry_delay * (0.5 + unit_draw(_key, b":retry"))
            self.sim.schedule_at(self.sim.now + backoff, self._issue, _c)

        req.on_complete = done
        req.on_reject = rejected
        self.coordinator.enqueue(req)

    def _think(self, c: int) -> None:
        n = self._issues[c]
        think = self.think_time * (
            0.5 + unit_draw(self._think_state, b"%d:%d" % (c, n)))
        self.sim.schedule_at(self.sim.now + think, self._issue, c)


class OpenLoopPopulation:
    """Arrival-rate load: ``users * per_user_rate`` requests/s.

    Interarrival gaps are exponential (memoryless, the standard
    open-loop idealisation) with the uniform drawn from the hash
    stream.  Rejected arrivals are simply shed — an open-loop user
    does not retry in a tight loop, they show up again later as a new
    arrival.  The chain stops scheduling once ``until`` is reached.
    """

    def __init__(self, sim: Simulator, coordinator: AdmissionCoordinator,
                 factory: RequestFactory, *, users: int,
                 per_user_rate: float, seed: int,
                 until: Optional[float] = None,
                 name: str = "open") -> None:
        if users < 1:
            raise ValueError("users must be >= 1")
        if per_user_rate <= 0:
            raise ValueError("per_user_rate must be > 0")
        self.sim = sim
        self.coordinator = coordinator
        self.factory = factory
        self.users = users
        self.per_user_rate = per_user_rate
        self.rate = users * per_user_rate
        self.seed = seed
        self.until = until
        self.name = name
        self.arrivals = 0
        self._key_state = _prefix_state(seed, name)
        self._gap_state = _prefix_state(seed, name, "gap:")

    def start(self) -> None:
        self.sim.schedule_at(self.sim.now + self._gap(0), self._arrive, 0)

    def _gap(self, n: int) -> float:
        u = unit_draw(self._gap_state, b"%d" % n)
        return -math.log(u) / self.rate

    def _arrive(self, n: int) -> None:
        if self.until is not None and self.sim.now >= self.until:
            return
        self.arrivals += 1
        key = fnv1a_state(b"%d" % n, self._key_state)
        self.coordinator.enqueue(self.factory(self.name, n, key))
        self.sim.schedule_at(self.sim.now + self._gap(n + 1),
                             self._arrive, n + 1)
