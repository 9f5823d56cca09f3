"""Outside-in layer tracing for the benchmark's traced run.

The program's own spans do not yet split the layers this benchmark
needs (``sim.run`` hides stimulus, kernel and monitors in one span), so
the traced run wraps the public entry point of each layer from here,
without touching the program's files. A wrapper is installed where the
*caller* looks the function up: a module that did
``from repro.timing.sta import analyze_timing`` holds its own reference,
so that module's attribute is the one patched. Every original is put
back when :meth:`LayerTracer.installed` exits, also on error.

Two kinds of layer:

* span layers record one span per call (name, start, end, parent,
  job id), kept in memory and written out at the end;
* leaf layers are called once per simulated cycle (stimulus values,
  monitor observations). One span per call would cost more than the
  work, so each call only adds its duration and a count to the
  enclosing span.

A layer's self time is its spans' duration minus what child spans and
leaf calls inside them cover. The ``job`` root spans' self time is the
time no layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name of the root span around each benchmark job.
JOB = "job"


@dataclass(frozen=True)
class Layer:
    """One program layer and the ``module:attr`` / ``module:Class.attr`` it enters by."""

    name: str
    targets: Tuple[str, ...]
    #: Per-cycle calls: accumulate into the parent span, no span each.
    leaf: bool = False
    #: Call arguments whose values add up to the layer's work units
    #: (the simulator's ``cycles`` and ``warmup``).
    units: Tuple[str, ...] = ()


_PASSES = (
    ("isolation", "repro.opt.isolation:IsolationPass"),
    ("clock_gating", "repro.opt.gating:ClockGatingPass"),
    ("rewrite", "repro.opt.rewriting:RewritePass"),
)

LAYERS: Tuple[Layer, ...] = (
    Layer("opt.loop", ("repro.api:optimize",)),
    Layer("power.estimate", ("repro.opt.framework:_measure_power",)),
    Layer(
        "sim.kernel",
        (
            "repro.sim.compile:CompiledSimulator.run",
            "repro.sim.engine:Simulator.run",
        ),
        units=("cycles", "warmup"),
    ),
    Layer(
        "sim.stimulus",
        (
            "repro.sim.stimulus:CompositeStimulus.values",
            "repro.sim.stimulus:SequenceStimulus.values",
        ),
        leaf=True,
    ),
    Layer(
        "sim.monitors",
        (
            "repro.sim.monitor:ToggleMonitor.observe",
            "repro.sim.probes:ProbeSet.observe",
            "repro.rewrite.scoring:ValueTrace.observe",
        ),
        leaf=True,
    ),
    # ProgramCache.get calls the module-level compile_design on a miss.
    Layer("sim.compile", ("repro.sim.compile:compile_design",)),
    Layer("core.activation", ("repro.opt.isolation:derive_activation_functions",)),
    Layer(
        "timing.sta",
        ("repro.opt.framework:analyze_timing", "repro.opt.isolation:analyze_timing"),
    ),
    Layer("rewrite.replay", ("repro.opt.rewriting:score_rewrite",)),
    # RewritePass.apply imports it inside the function body, so the
    # lookup happens on the defining module at call time.
    Layer(
        "verify.equivalence",
        ("repro.verify.equivalence:assert_observable_equivalence",),
    ),
    Layer("netlist.copy", ("repro.netlist.design:Design.copy",)),
    Layer("serve.cache_key", ("repro.sweep.spec:job_cache_key",)),
    Layer(
        "sweep.store.read",
        ("repro.sweep.store:ExperimentStore.has", "repro.sweep.store:ExperimentStore.get"),
    ),
    Layer(
        "sweep.store.write",
        (
            "repro.sweep.store:ExperimentStore.put",
            "repro.sweep.store:ExperimentStore.record_spec",
        ),
    ),
) + tuple(
    Layer(f"opt.{method}.{pass_name}", (f"{cls}.{method}",))
    for pass_name, cls in _PASSES
    for method in ("enumerate", "score", "apply")
)


class SpanRecord:
    """One finished (or open) span; ``parent`` indexes the tracer's list, -1 for a root."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "job", "units", "leaf_ns", "leaf_calls")

    def __init__(self, name: str, start_ns: int, parent: int, job: str) -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.job = job
        self.units = 0
        self.leaf_ns: Dict[str, int] = {}
        self.leaf_calls: Dict[str, int] = {}


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    units: int = 0


def rollup(spans: Sequence[SpanRecord]) -> Tuple[Dict[str, LayerStats], int]:
    """Per-layer calls, self time and units, plus the summed root duration.

    Self time is a span's duration minus its child spans' durations and
    the leaf time recorded inside it. Leaf layers get their recorded
    time and calls as self time. The roots' summed duration is the
    traced wall time the shares are taken of.
    """
    covered = [0] * len(spans)
    wall_ns = 0
    for span in spans:
        duration = span.end_ns - span.start_ns
        if span.parent >= 0:
            covered[span.parent] += duration
        else:
            wall_ns += duration
    stats: Dict[str, LayerStats] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name, LayerStats())
        leaf_total = sum(span.leaf_ns.values())
        entry.calls += 1
        entry.self_ns += span.end_ns - span.start_ns - covered[index] - leaf_total
        entry.units += span.units
        for name, ns in span.leaf_ns.items():
            leaf = stats.setdefault(name, LayerStats())
            leaf.calls += span.leaf_calls[name]
            leaf.self_ns += ns
    return stats, wall_ns


def _resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *scope, attr = path.split(".")
    for name in scope:
        owner = getattr(owner, name)
    return owner, attr


@contextlib.contextmanager
def patched(owner: object, attr: str, make_wrapper: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make_wrapper(original)``; restore on exit.

    The attribute must be defined on ``owner`` itself (not inherited),
    so restoring it puts back exactly what was there.
    """
    if attr not in vars(owner):
        raise AttributeError(f"{owner!r} does not define {attr!r} itself")
    original = vars(owner)[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class LayerTracer:
    """Records spans for the layers in :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []
        self._job = ""

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(SpanRecord(name, time.perf_counter_ns(), parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Root span around one benchmark job; layers are recorded only inside one."""
        self._job = job_id
        index = self._open(JOB)
        try:
            yield
        finally:
            self._close(index)
            self._job = ""

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, layer: Layer, fn: Callable) -> Callable:
        signature = inspect.signature(fn) if layer.units else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(layer.name)
            try:
                return fn(*args, **kwargs)
            finally:
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[index].units = sum(
                        int(bound.arguments[name]) for name in layer.units
                    )
                self._close(index)

        return wrapper

    def _leaf_wrapper(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = self.spans[self._stack[-1]]
                parent.leaf_ns[name] = parent.leaf_ns.get(name, 0) + clock() - start
                parent.leaf_calls[name] = parent.leaf_calls.get(name, 0) + 1

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer's entry points for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for layer in LAYERS:
                make = self._leaf_wrapper if layer.leaf else self._span_wrapper
                for target in layer.targets:
                    owner, attr = _resolve(target)
                    stack.enter_context(
                        patched(owner, attr, functools.partial(make, layer))
                    )
            yield self

    # -- export ---------------------------------------------------------
    def obs_spans(self) -> list:
        """The recorded forest as :class:`repro.obs.Span` trees (for Perfetto)."""
        from repro.obs import Span

        nodes = []
        roots = []
        for record in self.spans:
            attrs: Dict[str, object] = {"job": record.job}
            if record.units:
                attrs["units"] = record.units
            for name, ns in record.leaf_ns.items():
                attrs[f"{name}.self_ns"] = ns
                attrs[f"{name}.calls"] = record.leaf_calls[name]
            node = Span(
                name=record.name,
                category="bench",
                start_ns=record.start_ns,
                end_ns=record.end_ns,
                attrs=attrs,
            )
            nodes.append(node)
            if record.parent >= 0:
                nodes[record.parent].children.append(node)
            else:
                roots.append(node)
        return roots

    def write_chrome_trace(self, path: str, metrics: Optional[dict] = None) -> None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(path, self.obs_spans(), metrics=metrics)
