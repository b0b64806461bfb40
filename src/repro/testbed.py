"""The §V-A testbed, wired once.

The paper runs every experiment on one testbed (10 servers, 2-way
replication, one IO path) and changes only the driver.  Here that is
:class:`Testbed` (simulator, cluster, fluid IO and the rules around
them) and :class:`ClientPhases` (the three-phase client), plus
:func:`checked_run` and the report sections every harness shares.
``run_three_phase``, ``run_chaos``, ``run_serve`` and ``run_kv_churn``
are configurations of these parts.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.cluster import ElasticCluster
from repro.obs.invariants import CheckerSink
from repro.obs.runtime import OBS
from repro.obs.spans import Span
from repro.simulation.bandwidth import apply_capacity_factors
from repro.simulation.engine import Simulator
from repro.simulation.flows import FluidFlow
from repro.simulation.iomodel import (
    IOModel,
    client_coefficients,
    replica_load_fractions_from_matrix,
)
from repro.workloads.three_phase import Phase

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

__all__ = ["Testbed", "ClientPhases", "CheckedRun", "checked_run",
           "invariants_section", "fault_timeline_section"]

#: First object id of the placement probe behind the load fractions —
#: far above any id a workload writes.
PROBE_BASE = 10_000_000


class Testbed:
    """One cluster on the fluid IO model.

    Each active rank gets *disk_bw* of disk bandwidth, scaled by the
    *injector*'s capacity factors when a fault plan is armed.  The
    capacity token that lets unchanged ticks reuse the last allocation
    is the membership's change counter — the placement version of an
    elastic cluster, ``ring.generation`` for original CH — paired with
    the injector's generation (it bumps on every fired action).
    """

    def __init__(self, cluster, disk_bw: float, dt: float,
                 injector: Optional["FaultInjector"] = None,
                 probe_objects: int = 2_000) -> None:
        self.sim = Simulator()
        self.cluster = cluster
        self.disk_bw = disk_bw
        self.dt = dt
        self.injector = injector
        self.probe_objects = probe_objects
        self._elastic = isinstance(cluster, ElasticCluster)
        self._fractions: Dict[Tuple[int, ...], Dict[int, float]] = {}
        self.io = IOModel(self.capacities, dt,
                          capacity_token=self.capacity_token)

    def active_ranks(self) -> List[int]:
        """Powered-on ranks, in ``cluster.servers`` order."""
        cluster = self.cluster
        if self._elastic:
            table = cluster.ech.membership
            return [r for r in cluster.servers if table.is_active(r)]
        return [r for r in cluster.servers if r in cluster.ring]

    def capacities(self) -> Dict[int, float]:
        caps = {r: self.disk_bw for r in self.active_ranks()}
        if self.injector is None:
            return caps
        return apply_capacity_factors(caps, self.injector.capacity_factors())

    def capacity_token(self) -> object:
        cluster = self.cluster
        version = (cluster.ech.current_version if self._elastic
                   else cluster.ring.generation)
        if self.injector is None:
            return version
        return version, self.injector.generation

    def fractions(self) -> Dict[int, float]:
        """Each server's share of replica traffic under the current
        membership, probed once per active set."""
        key = tuple(sorted(self.active_ranks()))
        fractions = self._fractions.get(key)
        if fractions is None:
            probe = range(PROBE_BASE, PROBE_BASE + self.probe_objects)
            if self._elastic:
                matrix = self.cluster.ech.locate_bulk(probe).servers
            else:
                matrix = self.cluster.placement_bulk(probe).servers
            fractions = replica_load_fractions_from_matrix(matrix)
            self._fractions[key] = fractions
        return fractions

    def migration_flow(self, nbytes: float,
                       per_dest: Optional[Dict[int, float]] = None,
                       name: str = "migration",
                       rate_cap: float = math.inf,
                       on_complete: Optional[Callable] = None,
                       parent: Optional[Span] = None) -> FluidFlow:
        """Start a background flow moving *nbytes*.  A moved byte is
        read once somewhere (spread evenly over the active servers) and
        written once at its destination (*per_dest* byte shares)."""
        active = self.active_ranks()
        coeffs: Dict[int, float] = {r: 1.0 / len(active) for r in active}
        total = sum(per_dest.values()) if per_dest else 0
        if total > 0:
            for rank, b in per_dest.items():
                coeffs[rank] = coeffs.get(rank, 0.0) + b / total
        return self.io.flows.add(FluidFlow(
            name=name, coefficients=coeffs, total_bytes=float(nbytes),
            rate_cap=rate_cap, on_complete=on_complete), parent=parent)

    def reintegrate_selective(self, rate_cap: float) -> None:
        """Run selective re-integration after a resize-up and move its
        volume as one rate-limited migration flow."""
        cluster = self.cluster
        # The resize may open a resize.cycle span; grab it before the
        # (logically instant) re-integration pass closes it so the
        # byte-moving flow is parented to its cycle.
        cycle = cluster.reintegration_cycle
        backlog = cluster.selective_backlog_bytes()
        report = cluster.run_selective_reintegration()
        volume = max(report.bytes_migrated, backlog)
        if volume > 0:
            self.migration_flow(volume, rate_cap=rate_cap, parent=cycle)


class ClientPhases:
    """The three-phase client on a :class:`Testbed`: one fluid flow per
    workload phase, its written bytes turned into whole placed objects
    each tick so migration volumes and dirty tracking reflect real
    state."""

    def __init__(self, bed: Testbed, phases: Sequence[Phase],
                 replicas: int, client_cap: float,
                 object_size: int) -> None:
        self.bed = bed
        self.phases = phases
        self.replicas = replicas
        self.client_cap = client_cap
        self.object_size = object_size
        self.idx = 0
        self.flow: Optional[FluidFlow] = None
        #: Written bytes not yet a whole object (reset at phase end).
        self.carry = 0.0
        #: Objects materialised so far; their ids are ``1..written``.
        self.written = 0
        #: Phase name -> completion time.
        self.ends: Dict[str, float] = {}

    @property
    def phase(self) -> Phase:
        return self.phases[self.idx]

    def _coefficients(self) -> Dict[int, float]:
        return client_coefficients(self.bed.fractions(), self.replicas,
                                   self.phase.write_ratio)

    def start(self, idx: int) -> None:
        self.idx = idx
        phase = self.phase
        self.flow = self.bed.io.flows.add(FluidFlow(
            name="client", coefficients=self._coefficients(),
            total_bytes=phase.total_bytes,
            rate_cap=min(self.client_cap, phase.rate_cap or self.client_cap)))

    def refresh(self) -> None:
        """Re-point the live client flow at the current membership."""
        if self.flow is not None and not self.flow.done:
            self.flow.coefficients = self._coefficients()

    def materialise_writes(self) -> None:
        if self.flow is None:
            return
        self.carry += (self.flow.last_rate * self.bed.dt
                       * self.phase.write_ratio)
        while self.carry >= self.object_size:
            self.written += 1
            self.bed.cluster.write(self.written, self.object_size)
            self.carry -= self.object_size

    def end_phase(self, now: float) -> Optional[int]:
        """If the live phase's flow is done: record its end, drop the
        flow and the carry, and return its index; else ``None``."""
        if self.flow is None or not self.flow.done:
            return None
        self.ends[self.phase.name] = now
        self.flow = None
        self.carry = 0.0
        return self.idx

    def start_next(self) -> bool:
        """Start the phase after the last one; False when none is left."""
        if self.idx + 1 >= len(self.phases):
            return False
        self.start(self.idx + 1)
        return True


class CheckedRun:
    """What :func:`checked_run` collected; filled in when it exits."""

    def __init__(self) -> None:
        self.span: Optional[Span] = None
        self.violations: List[str] = []
        self.checkers = 0
        self.events_seen = 0

    def begin(self, name: str, **fields: object) -> None:
        """Open the run span (``chaos.run``, ``serve.run``, ...)."""
        self.span = OBS.spans.begin(name, **fields)


@contextmanager
def checked_run(check: bool) -> Iterator[CheckedRun]:
    """Watch a harness run with the invariant suite.

    Enter it before building any component, so the suite sees the
    setup events too.  A :class:`CheckerSink` already on the bus (the
    CLI's ``--check``) is reused rather than doubled.  The run span
    opened with :meth:`CheckedRun.begin` ends ``completed`` or
    ``failed`` with the block.
    """
    sink: Optional[CheckerSink] = None
    owned = False
    if check:
        sink = next((s for s in OBS.bus.sinks
                     if isinstance(s, CheckerSink)), None)
        if sink is None:
            sink = OBS.bus.attach(CheckerSink())
            owned = True
    run = CheckedRun()
    try:
        yield run
        if run.span is not None:
            run.span.end(status="completed")
    except BaseException:
        if run.span is not None:
            run.span.end(status="failed")
        raise
    finally:
        if owned:
            OBS.bus.detach(sink)
    if sink is not None:
        run.violations = [v.describe() for v in sink.finish()]
        run.checkers = len(sink.suite.checkers)
        run.events_seen = sink.suite.events_seen


def invariants_section(result) -> List[str]:
    """The ``## invariants`` report lines for a result carrying
    ``violations``, ``checkers`` and ``events_seen``."""
    lines = ["", "## invariants", ""]
    if not result.checkers:
        lines.append("checkers not attached (check=False).")
    elif result.violations:
        lines.append(f"{len(result.violations)} violation(s) across "
                     f"{result.checkers} checkers:")
        lines += [f"- {v}" for v in result.violations]
    else:
        lines.append(f"all {result.checkers} checkers hold over "
                     f"{result.events_seen} events.")
    return lines


def fault_timeline_section(faults: List[Dict[str, object]]) -> List[str]:
    """The ``## fault timeline`` report lines for injected actions
    (``{t, kind, rank, peer[, factor]}`` dicts in firing order)."""
    lines = ["", "## fault timeline", ""]
    if not faults:
        return lines + ["no faults fired."]
    lines += ["| t(s) | action | detail |", "| --- | --- | --- |"]
    for f in faults:
        detail = [f"{key} {f[key]}" for key in ("rank", "peer", "factor")
                  if f.get(key) is not None]
        lines.append(f"| {float(f['t']):.1f} | {f['kind']} | "
                     f"{', '.join(detail)} |")
    return lines
