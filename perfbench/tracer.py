"""Span tracer for the traced benchmark pass.

The tracer measures each layer of ``repro`` from outside: it replaces
the layer entry points listed in :data:`TARGETS` with wrappers that
record one span per call (name, start, end, parent) and leaves
``src/`` untouched.  A function imported by name elsewhere (``hash64``
is bound in ``serving.clients``, ``serving.harness``,
``core.placement``, ``faults.retry`` and ``hashring.ring``;
``max_min_fair`` in ``simulation.flows``) is replaced at every module
that binds it, not only where it is defined.  Methods are replaced on
their class, so instances created later pick them up.

Spans are kept in flat arrays while the pass runs and written out at
the end.  A span's self time is its duration minus the durations of
its direct children; since one thread runs everything, children nest
inside their parent, so that is the part of the interval no child
covers.  A layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

#: (layer, span name, module, attributes).  ``"Class.*"`` means every
#: public method defined on that class itself (properties, generators
#: and already-wrapped methods are skipped).
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("hashring", "hashring.hash64", "repro.hashring.hashing",
     ("hash64",)),
    ("core.locate", "core.locate", "repro.core.elastic",
     ("ElasticConsistentHash.locate",)),
    # Bulk placement shares the layer (not the call count) of ``locate``.
    ("core.locate", "core.locate_bulk", "repro.core.elastic",
     ("ElasticConsistentHash.locate_bulk",
      "ElasticConsistentHash.locate_bulk_positions")),
    ("core.reintegration", "core.reintegration", "repro.core.reintegration",
     ("ReintegrationEngine.*",)),
    ("engine", "engine.step", "repro.simulation.engine",
     ("Simulator.step",)),
    ("engine", "engine.schedule", "repro.simulation.engine",
     ("Simulator.schedule", "Simulator.schedule_at")),
    ("engine", "engine.run_until", "repro.simulation.engine",
     ("Simulator.run_until",)),
    ("serving", "serving.enqueue", "repro.serving.coordinator",
     ("AdmissionCoordinator.enqueue",)),
    ("serving", "serving.coordinator", "repro.serving.coordinator",
     ("AdmissionCoordinator.*", "AdmissionCoordinator._complete")),
    # The populations' private methods are what the engine dispatches.
    ("serving", "serving.population", "repro.serving.clients",
     ("ClosedLoopPopulation.start", "ClosedLoopPopulation._issue",
      "ClosedLoopPopulation._think", "OpenLoopPopulation.start",
      "OpenLoopPopulation._arrive")),
    ("fluid", "fluid.step", "repro.simulation.iomodel", ("IOModel.step",)),
    ("fluid", "fluid.advance", "repro.simulation.flows",
     ("FlowSet.advance", "FlowSet.advance_cached")),
    ("fluid", "fluid.solve", "repro.simulation.bandwidth",
     ("max_min_fair",)),
    ("cluster", "cluster.write", "repro.cluster.cluster",
     ("ElasticCluster.write",)),
    ("cluster", "cluster", "repro.cluster.cluster",
     ("_ClusterBase.*", "ElasticCluster.*")),
    ("kvstore", "kvstore", "repro.kvstore.replicated",
     ("ReplicatedKVStore.*",)),
    ("kvstore", "kvstore", "repro.kvstore.sharded", ("ShardedKVStore.*",)),
    ("kvstore", "kvstore", "repro.kvstore.store", ("KVStore.*",)),
    ("faults", "faults", "repro.faults.injector", ("FaultInjector.*",)),
    ("faults", "faults", "repro.faults.transfers", ("TransferManager.*",)),
    ("faults", "faults", "repro.faults.retry", ("RetryPolicy.*",)),
    ("obs.emit", "obs.emit", "repro.obs.trace", ("TraceBus.emit",)),
    ("obs.sink", "obs.sink", "repro.obs.trace", ("JSONLSink.write",)),
    ("obs.checker", "obs.checker", "repro.obs.invariants",
     ("CheckerSink.write",)),
    ("policy", "policy.analyze", "repro.policy.analysis",
     ("analyze_trace",)),
    ("policy", "policy", "repro.policy.analysis", ("config_for_trace",)),
    ("policy", "policy", "repro.policy.resizer",
     ("simulate_policy", "_PolicyBase.simulate")),
    ("workloads", "workloads", "repro.workloads.cloudera",
     ("generate_trace", "generate_cc_a", "generate_cc_b")),
    ("workloads", "workloads", "repro.workloads.three_phase",
     ("three_phase_workload",)),
    ("workloads", "workloads", "repro.faults.plan",
     ("FaultPlan.three_phase_default",)),
)

ROOT = "harness"

#: Per-layer metrics and their units, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("hashring.hash64.calls", "count"),
    ("hashring.hash64.self_s", "s"),
    ("core.locate.calls", "count"),
    ("core.locate.self_s", "s"),
    ("core.slot_miss_ratio", "ratio"),
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    ("serving.requests", "count"),
    ("serving.self_s", "s"),
    ("fluid.steps", "count"),
    ("fluid.solves", "count"),
    ("fluid.self_s", "s"),
    ("cluster.writes", "count"),
    ("cluster.self_s", "s"),
    ("core.reintegration.self_s", "s"),
    ("kvstore.ops", "count"),
    ("kvstore.self_s", "s"),
    ("faults.self_s", "s"),
    ("obs.events", "count"),
    ("obs.trace_bytes", "B"),
    ("obs.emit.self_s", "s"),
    ("obs.sink.self_s", "s"),
    ("obs.checker.self_s", "s"),
    ("policy.ticks", "count"),
    ("policy.self_s", "s"),
    ("workloads.generate_s", "s"),
    ("harness.self_s", "s"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Count metrics that must repeat exactly from run to run.
EXACT_COUNTS = ("engine.events", "core.locate.calls", "hashring.hash64.calls",
                "fluid.solves", "obs.events", "obs.trace_bytes",
                "policy.ticks")


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self.span_layer: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.slot_lookups = 0
        self.slot_misses = 0
        self.policy_ticks = 0
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _span_id(self, layer: str, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.span_layer.append(layer)
        return self._ids[name]

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        nid = self._span_id(layer, name)
        ids, parents = self.name_id.append, self.parent.append
        starts, ends_append, ends = self.start.append, self.end.append, \
            self.end
        stack = self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            i = len(ends)
            ids(nid)
            parents(stack[-1])
            ends_append(0.0)
            stack.append(i)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_span__ = name
        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original: object, replacement: object) -> None:
        """Replace *original* in every loaded ``repro`` module."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _patch_method(self, cls: type, attr: str, layer: str,
                      name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, layer, name))
        else:
            wrapped = self._wrap(raw, layer, name)
        self._set(cls, attr, wrapped)

    def install(self) -> None:
        for layer, name, modname, attrs in TARGETS:
            module = importlib.import_module(modname)
            for spec in attrs:
                if "." not in spec:
                    original = getattr(module, spec)
                    self._rebind(original, self._wrap(original, layer, name))
                    continue
                clsname, attr = spec.split(".")
                cls = getattr(module, clsname)
                if attr != "*":
                    self._patch_method(cls, attr, layer, name)
                    continue
                for attr, raw in list(vars(cls).items()):
                    func = getattr(raw, "__func__", raw)
                    if (attr.startswith("_") or not inspect.isfunction(func)
                            or inspect.isgeneratorfunction(func)
                            or hasattr(func, "__perfbench_span__")):
                        continue
                    self._patch_method(cls, attr, layer, name)
        self._install_probes()

    def _install_probes(self) -> None:
        """Counters that need a look at arguments, not a span."""
        from repro.core.kernel import SlotPlacementTable
        from repro.policy import analysis

        lookup = SlotPlacementTable.lookup

        @functools.wraps(lookup)
        def counted_lookup(table, slot):
            self.slot_lookups += 1
            if table._results[slot] is None:    # not yet computed: a miss
                self.slot_misses += 1
            return lookup(table, slot)

        self._set(SlotPlacementTable, "lookup", counted_lookup)

        analyze = analysis.analyze_trace    # already the span wrapper

        @functools.wraps(analyze)
        def counted_analyze(trace, *args, **kwargs):
            self.policy_ticks += len(trace)
            return analyze(trace, *args, **kwargs)

        self._rebind(analyze, counted_analyze)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def root(self, fn: Callable) -> Callable:
        """*fn* wrapped in the root span (one per harness call)."""
        return self._wrap(fn, ROOT, ROOT)

    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def dump(self, path: str) -> None:
        """Write every span (and the name table) to *path* (``.npz``)."""
        np.savez(path, names=np.asarray(self.span_names),
                 layers=np.asarray(self.span_layer), **self.arrays())

    def metrics(self, trace_bytes: int) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` entry but ``trace.overhead_ratio``
        (which needs an untraced pass to compare with)."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        self_time = dur - child
        names = len(self.span_names)
        calls = np.bincount(nid, minlength=names)
        self_by_name = np.bincount(nid, weights=self_time, minlength=names)
        layer = np.asarray(self.span_layer, dtype=object)
        span_layer = layer[nid]
        parent_layer = np.where(nested,
                                layer[nid[np.where(nested, parent, 0)]], "")

        def count(name: str) -> int:
            i = self._ids.get(name)
            return 0 if i is None else int(calls[i])

        def layer_self(name: str) -> float:
            return float(sum(self_by_name[i] for i, lay
                             in enumerate(self.span_layer) if lay == name))

        in_kv = span_layer == "kvstore"
        root = self._ids.get(ROOT)
        root_dur = float(dur[nid == root].sum()) if root is not None else 0.0
        root_self = layer_self(ROOT)
        return {
            "hashring.hash64.calls": count("hashring.hash64"),
            "hashring.hash64.self_s": layer_self("hashring"),
            "core.locate.calls": count("core.locate"),
            "core.locate.self_s": layer_self("core.locate"),
            "core.slot_miss_ratio": (self.slot_misses / self.slot_lookups
                                     if self.slot_lookups else 0.0),
            "engine.events": count("engine.step"),
            "engine.self_s": layer_self("engine"),
            "serving.requests": count("serving.enqueue"),
            "serving.self_s": layer_self("serving"),
            "fluid.steps": count("fluid.step"),
            "fluid.solves": count("fluid.solve"),
            "fluid.self_s": layer_self("fluid"),
            "cluster.writes": count("cluster.write"),
            "cluster.self_s": layer_self("cluster"),
            "core.reintegration.self_s": layer_self("core.reintegration"),
            # Calls into the KV layer from outside it.
            "kvstore.ops": int(np.count_nonzero(
                in_kv & (parent_layer != "kvstore"))),
            "kvstore.self_s": layer_self("kvstore"),
            "faults.self_s": layer_self("faults"),
            "obs.events": count("obs.sink"),
            "obs.trace_bytes": trace_bytes,
            "obs.emit.self_s": layer_self("obs.emit"),
            "obs.sink.self_s": layer_self("obs.sink"),
            "obs.checker.self_s": layer_self("obs.checker"),
            "policy.ticks": self.policy_ticks,
            "policy.self_s": layer_self("policy"),
            "workloads.generate_s": layer_self("workloads"),
            "harness.self_s": root_self,
            "trace.attributed_ratio": ((root_dur - root_self) / root_dur
                                       if root_dur else 0.0),
        }
