"""Vectorized Monte-Carlo batch simulation (numpy backend).

The scalar engine (:mod:`repro.sim.engine`) simulates one stimulus
stream; every measured statistic (toggle rate, activation probability)
then carries sampling noise whose size is hard to bound for correlated
control streams. The batch engine simulates **N independent
replications simultaneously** — every net's value is a length-N numpy
vector, every cell evaluates element-wise — so the same wall-clock work
yields N i.i.d. measurements and honest *cross-replication* confidence
intervals (mean ± t·s/√N), with no independence assumption inside a
replication.

Widths up to 32 bits are supported (values are held in ``uint64``
lanes, products of 32-bit operands cannot overflow).

Typical use::

    batch = BatchSimulator(design, batch_size=32)
    stim = BatchRandomStimulus(design, batch_size=32, seed=7,
                               overrides={"EN": BatchControlStream(0.2, 0.05)})
    monitor = BatchToggleMonitor()
    batch.run(stim, cycles=500, monitors=[monitor])
    mean, half = monitor.toggle_rate_ci(design.net("X"))
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError, StimulusError
from repro.netlist.arith import (
    Adder,
    Comparator,
    Divider,
    MacUnit,
    Multiplier,
    Shifter,
    Subtractor,
)
from repro.netlist.banks import AndBank, LatchBank, OrBank
from repro.netlist.cells import Cell
from repro.netlist.design import Design
from repro.netlist.logic import (
    AndGate,
    BitSelect,
    Buffer,
    Mux,
    NandGate,
    NorGate,
    NotGate,
    OrGate,
    XnorGate,
    XorGate,
)
from repro.netlist.nets import Net
from repro.netlist.ports import Constant
from repro.netlist.seq import Register, TransparentLatch
from repro.netlist.traversal import combinational_order

_MAX_WIDTH = 32


def cross_lane_ci(samples: np.ndarray, z: float = 1.96) -> Tuple[float, float]:
    """(mean, half-width) of a cross-replication confidence interval.

    With fewer than two lanes a cross-lane spread does not exist, so the
    half-width is ``inf`` — an honest "no interval available" rather
    than the misleadingly confident zero width (or the NaN that
    ``std(ddof=1)`` produces on a single sample).
    """
    mean = float(samples.mean())
    if len(samples) < 2:
        return mean, math.inf
    half = z * float(samples.std(ddof=1)) / math.sqrt(len(samples))
    return mean, half


def popcount_u64(array: np.ndarray) -> np.ndarray:
    """Element-wise population count of a uint64 array (SWAR)."""
    x = array.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


class BatchMonitor:
    """Base class for batch monitors."""

    def begin(self, design: Design, batch_size: int) -> None:
        """Called before the first observed cycle."""

    def observe(self, cycle: int, values: Mapping[Net, np.ndarray]) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Called after the last observed cycle."""


class BatchToggleMonitor(BatchMonitor):
    """Per-net, per-replication bit-toggle counts with cross-lane CIs."""

    def __init__(self, nets: Optional[Iterable[Net]] = None) -> None:
        self._restrict = list(nets) if nets is not None else None
        self.cycles = 0

    def begin(self, design: Design, batch_size: int) -> None:
        self._watched = (
            self._restrict if self._restrict is not None else design.nets
        )
        self.batch_size = batch_size
        self.toggles: Dict[Net, np.ndarray] = {
            net: np.zeros(batch_size, dtype=np.uint64) for net in self._watched
        }
        self._previous: Dict[Net, np.ndarray] = {}
        self.cycles = 0

    def observe(self, cycle: int, values: Mapping[Net, np.ndarray]) -> None:
        for net in self._watched:
            value = values[net]
            prev = self._previous.get(net)
            if prev is not None:
                self.toggles[net] += popcount_u64(prev ^ value)
            self._previous[net] = value.copy()
        self.cycles += 1

    # ------------------------------------------------------------------
    def per_lane_rates(self, net: Net) -> np.ndarray:
        """Toggle rate of each replication."""
        if self.cycles <= 1:
            return np.zeros(self.batch_size)
        return self.toggles[net].astype(np.float64) / (self.cycles - 1)

    def toggle_rate(self, net: Net) -> float:
        """Mean toggle rate across replications."""
        return float(self.per_lane_rates(net).mean())

    def toggle_rate_ci(self, net: Net, z: float = 1.96) -> Tuple[float, float]:
        """(mean, half-width) of the cross-replication confidence interval.

        With ``batch_size == 1`` the half-width is ``inf`` (a single
        replication carries no cross-lane spread information).
        """
        return cross_lane_ci(self.per_lane_rates(net), z)


class BatchProbe(BatchMonitor):
    """Truth fraction of a Boolean expression, per replication."""

    def __init__(self, name: str, expr) -> None:
        self.name = name
        self.expr = expr

    def begin(self, design: Design, batch_size: int) -> None:
        from repro.netlist.bitref import resolve_variables

        self._resolved = resolve_variables(design, self.expr.support())
        self.batch_size = batch_size
        self.true_counts = np.zeros(batch_size, dtype=np.int64)
        self.cycles = 0

    def observe(self, cycle: int, values: Mapping[Net, np.ndarray]) -> None:
        env = {
            name: ((values[net] >> np.uint64(bit)) & np.uint64(1)).astype(bool)
            for name, (net, bit) in self._resolved.items()
        }
        result = _eval_expr_batch(self.expr, env, self.batch_size)
        self.true_counts += result.astype(np.int64)
        self.cycles += 1

    # ------------------------------------------------------------------
    def per_lane_probabilities(self) -> np.ndarray:
        if self.cycles == 0:
            return np.zeros(self.batch_size)
        return self.true_counts / self.cycles

    @property
    def probability(self) -> float:
        return float(self.per_lane_probabilities().mean())

    def probability_ci(self, z: float = 1.96) -> Tuple[float, float]:
        """Like :meth:`BatchToggleMonitor.toggle_rate_ci`: ``inf`` half-width
        when a single lane makes the cross-lane interval undefined."""
        return cross_lane_ci(self.per_lane_probabilities(), z)


def _eval_expr_batch(expr, env: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    from repro.boolean.expr import And, Const, Not, Or, Var

    if isinstance(expr, Const):
        return np.full(n, expr.value, dtype=bool)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Not):
        return ~_eval_expr_batch(expr.child, env, n)
    if isinstance(expr, And):
        result = np.ones(n, dtype=bool)
        for arg in expr.args:
            result &= _eval_expr_batch(arg, env, n)
        return result
    if isinstance(expr, Or):
        result = np.zeros(n, dtype=bool)
        for arg in expr.args:
            result |= _eval_expr_batch(arg, env, n)
        return result
    raise SimulationError(f"cannot batch-evaluate {type(expr).__name__}")


# ----------------------------------------------------------------------
# Batched stimulus
# ----------------------------------------------------------------------
class BatchControlStream:
    """Vectorized two-state Markov control stream (see ControlStream)."""

    def __init__(self, probability: float, toggle_rate: Optional[float] = None) -> None:
        # Reuse the scalar class's parameter validation/derivation.
        from repro.sim.stimulus import ControlStream

        scalar = ControlStream(probability, toggle_rate)
        self._a, self._b = scalar._a, scalar._b
        self._initial = scalar.value
        self.width = 1

    def begin(self, batch_size: int, rng: np.random.Generator) -> None:
        self.state = np.full(batch_size, self._initial, dtype=np.uint64)

    def next_values(self, rng: np.random.Generator) -> np.ndarray:
        draws = rng.random(self.state.shape[0])
        ones = self.state.astype(bool)
        fall = ones & (draws < self._a)
        rise = ~ones & (draws < self._b)
        self.state = np.where(fall, 0, np.where(rise, 1, self.state)).astype(np.uint64)
        return self.state


class BatchDataStream:
    """Vectorized data stream with per-bit toggle density."""

    def __init__(self, width: int, toggle_density: float = 0.5) -> None:
        if not 0.0 <= toggle_density <= 1.0:
            raise StimulusError(f"toggle_density must be in [0,1], got {toggle_density}")
        if width > _MAX_WIDTH:
            raise StimulusError(f"batch simulation supports widths <= {_MAX_WIDTH}")
        self.width = width
        self.density = toggle_density

    def begin(self, batch_size: int, rng: np.random.Generator) -> None:
        self.state = rng.integers(
            0, 1 << self.width, size=batch_size, dtype=np.uint64
        )

    def next_values(self, rng: np.random.Generator) -> np.ndarray:
        # One (width, n) draw consumes the generator stream in the same
        # order as the historical per-bit draws, so the values are
        # bit-identical to the loop form — just one rng call per cycle.
        n = self.state.shape[0]
        flip = rng.random((self.width, n)) < self.density
        weights = np.uint64(1) << np.arange(self.width, dtype=np.uint64)
        self.state ^= (flip.astype(np.uint64).T * weights).sum(
            axis=1, dtype=np.uint64
        )
        return self.state


class BatchRandomStimulus:
    """Per-input batched streams, independent across replications."""

    def __init__(
        self,
        design: Design,
        batch_size: int,
        seed: int = 0,
        control_probability: float = 0.5,
        control_toggle_rate: Optional[float] = None,
        data_toggle_density: float = 0.5,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)
        self._streams: Dict[str, object] = {}
        for pi in design.primary_inputs:
            width = pi.net("Y").width
            if width == 1:
                stream = BatchControlStream(control_probability, control_toggle_rate)
            else:
                stream = BatchDataStream(width, data_toggle_density)
            self._streams[pi.name] = stream
        for name, stream in (overrides or {}).items():
            if name not in self._streams:
                raise StimulusError(f"override for unknown input {name!r}")
            self._streams[name] = stream
        for name in sorted(self._streams):
            self._streams[name].begin(batch_size, self._rng)
        self._cycle = -1
        self._current: Dict[str, np.ndarray] = {}

    def values(self, cycle: int) -> Mapping[str, np.ndarray]:
        if cycle != self._cycle:
            self._cycle = cycle
            for name in sorted(self._streams):
                self._current[name] = self._streams[name].next_values(self._rng)
        return self._current


class BroadcastStimulus:
    """Adapts a scalar stimulus: every replication sees the same stream.

    Used to cross-validate the batch engine against the scalar engine.
    """

    def __init__(self, scalar_stimulus, batch_size: int) -> None:
        self.scalar = scalar_stimulus
        self.batch_size = batch_size

    def values(self, cycle: int) -> Mapping[str, np.ndarray]:
        scalar_values = self.scalar.values(cycle)
        return {
            name: np.full(self.batch_size, value, dtype=np.uint64)
            for name, value in scalar_values.items()
        }


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _mask(net: Net) -> np.uint64:
    return np.uint64(net.mask)


@dataclass
class BatchCheckpoint:
    """Snapshot of a :class:`BatchSimulator` run, taken between chunks.

    Holds copies of every net value and register/latch state plus deep
    copies of the monitors (with net/cell identity preserved, so the
    copies keep observing the original design). ``step_index`` counts
    completed steps of the enclosing :meth:`BatchSimulator.run` loop
    (warmup included), which is where a resume continues.
    """

    cycle: int
    step_index: int
    values: Dict[Net, np.ndarray]
    state: Dict[Cell, np.ndarray]
    monitors: List[BatchMonitor] = field(default_factory=list)


class BatchSimulator:
    """N-replication vectorized counterpart of :class:`~repro.sim.engine.Simulator`.

    With ``engine="compiled"`` the settle phase runs through a list of
    pre-bound per-cell closures (nets, masks and operand order resolved
    once at construction) instead of re-dispatching through the
    ``isinstance`` chain of :meth:`_evaluate` on every cell of every
    cycle. Both engines are bit-exact with each other.
    """

    def __init__(
        self, design: Design, batch_size: int = 32, engine: str = "python"
    ) -> None:
        # The lockstep "checked" mode exists only for the scalar engines;
        # reject it here rather than silently running unchecked.
        if engine not in ("python", "compiled"):
            raise SimulationError(
                f"batch engine supports 'python' or 'compiled', got {engine!r}"
            )
        for net in design.nets:
            if net.width > _MAX_WIDTH:
                raise SimulationError(
                    f"net {net.name!r} is {net.width} bits; the batch engine "
                    f"supports widths <= {_MAX_WIDTH}"
                )
        self.design = design
        self.batch_size = batch_size
        self.engine = engine
        self._order = combinational_order(design)
        self._registers = design.registers
        self._stateful_comb = [
            c for c in self._order if getattr(c, "has_state", False)
        ]
        self._kernels = (
            [k for k in map(self._bind_kernel, self._order) if k is not None]
            if engine == "compiled"
            else None
        )
        self.reset()

    def reset(self) -> None:
        n = self.batch_size
        self.cycle = 0
        self.values: Dict[Net, np.ndarray] = {
            net: np.zeros(n, dtype=np.uint64) for net in self.design.nets
        }
        self.state: Dict[Cell, np.ndarray] = {}
        for reg in self._registers:
            initial = np.full(n, reg.net("Q").clip(reg.reset_value), dtype=np.uint64)
            self.state[reg] = initial
            self.values[reg.net("Q")] = initial.copy()
        for cell in self._stateful_comb:
            out = cell.net(cell.output_ports[0])
            self.state[cell] = np.full(
                n, out.clip(getattr(cell, "reset_value", 0)), dtype=np.uint64
            )
        for const in self.design.constants:
            net = const.net("Y")
            self.values[net] = np.full(n, net.clip(const.value), dtype=np.uint64)

    # ------------------------------------------------------------------
    def step(self, pi_values: Mapping[str, np.ndarray]) -> Mapping[Net, np.ndarray]:
        for pi in self.design.primary_inputs:
            net = pi.net("Y")
            try:
                self.values[net] = pi_values[pi.name].astype(np.uint64) & _mask(net)
            except KeyError:
                raise SimulationError(
                    f"batch stimulus provides no value for input {pi.name!r}"
                ) from None
        if self._kernels is not None:
            values, state = self.values, self.state
            for kernel in self._kernels:
                kernel(values, state)
        else:
            for cell in self._order:
                self._evaluate(cell)
        return self.values

    def commit(self) -> None:
        updates: Dict[Cell, np.ndarray] = {}
        for reg in self._registers:
            d = self.values[reg.net("D")]
            next_state = d & _mask(reg.net("Q"))
            if reg.has_enable:
                enable = self.values[reg.net("EN")].astype(bool)
                next_state = np.where(enable, next_state, self.state[reg])
            updates[reg] = next_state.astype(np.uint64)
        for cell in self._stateful_comb:
            enable_port = "G" if isinstance(cell, TransparentLatch) else "EN"
            enable = self.values[cell.net(enable_port)].astype(bool)
            d = self.values[cell.net("D")] & _mask(
                cell.net(cell.output_ports[0])
            )
            updates[cell] = np.where(enable, d, self.state[cell]).astype(np.uint64)
        self.state.update(updates)
        for reg in self._registers:
            self.values[reg.net("Q")] = self.state[reg].copy()
        self.cycle += 1

    def run(
        self,
        stimulus,
        cycles: int,
        monitors: Optional[Sequence[BatchMonitor]] = None,
        warmup: int = 0,
        checkpoint_every: Optional[int] = None,
        resume_from: Optional[BatchCheckpoint] = None,
    ) -> List[BatchMonitor]:
        """Simulate ``warmup + cycles`` steps; returns the live monitors.

        With ``checkpoint_every=k`` a :class:`BatchCheckpoint` is stored
        in :attr:`last_checkpoint` every ``k`` committed steps, so a run
        killed mid-way (machine fault, budget exhaustion) loses at most
        ``k`` steps. Pass that checkpoint back as ``resume_from`` to
        continue: net values, sequential state and monitor accumulators
        are restored exactly, and the returned monitor list (the
        checkpointed copies — not the originals passed by the caller)
        carries the combined statistics. The stimulus itself is *not*
        checkpointed: a fresh stimulus replays the remaining cycles
        statistically, not bit-exactly.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SimulationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        with obs.span(
            "sim.batch",
            "sim",
            design=self.design.name,
            batch_size=self.batch_size,
            cycles=cycles,
            warmup=warmup,
            resumed=resume_from is not None,
        ):
            if resume_from is not None:
                self.restore(resume_from)
                monitors = self._copy_monitors(resume_from.monitors)
                start = resume_from.step_index
            else:
                monitors = list(monitors or [])
                for monitor in monitors:
                    monitor.begin(self.design, self.batch_size)
                start = 0
            for i in range(start, warmup + cycles):
                settled = self.step(stimulus.values(self.cycle))
                if i >= warmup:
                    for monitor in monitors:
                        monitor.observe(self.cycle, settled)
                self.commit()
                if checkpoint_every is not None and (i + 1) % checkpoint_every == 0:
                    self.last_checkpoint = self.checkpoint(i + 1, monitors)
            for monitor in monitors:
                monitor.finish()
            return monitors

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    last_checkpoint: Optional[BatchCheckpoint] = None

    def checkpoint(
        self, step_index: int = 0, monitors: Sequence[BatchMonitor] = ()
    ) -> BatchCheckpoint:
        """Snapshot the current values/state and deep-copy the monitors.

        Nets and cells are shared (identity-preserved) between the
        snapshot and the live design, so restored monitors keep
        observing the same objects; only the numpy accumulators are
        duplicated. Checkpoints are engine-portable: both engines hold
        the same per-lane value/state arrays, so a checkpoint taken under
        one engine resumes under the other.
        """
        return BatchCheckpoint(
            cycle=self.cycle,
            step_index=step_index,
            values={net: arr.copy() for net, arr in self.values.items()},
            state={cell: arr.copy() for cell, arr in self.state.items()},
            monitors=self._copy_monitors(monitors),
        )

    def _copy_monitors(
        self, monitors: Sequence[BatchMonitor]
    ) -> List[BatchMonitor]:
        # Deep-copy accumulators while sharing nets/cells by identity,
        # so copied monitors keep observing the live design.
        memo = {
            id(obj): obj for obj in (*self.design.nets, *self.design.cells)
        }
        return copy.deepcopy(list(monitors), memo)

    def restore(self, checkpoint: BatchCheckpoint) -> None:
        """Reset the simulator to a previously taken checkpoint."""
        self.cycle = checkpoint.cycle
        self.values = {net: arr.copy() for net, arr in checkpoint.values.items()}
        self.state = {cell: arr.copy() for cell, arr in checkpoint.state.items()}

    # ------------------------------------------------------------------
    def _evaluate(self, cell: Cell) -> None:
        values = self.values
        if isinstance(cell, Adder):
            out = cell.net("Y")
            values[out] = (values[cell.net("A")] + values[cell.net("B")]) & _mask(out)
        elif isinstance(cell, Subtractor):
            out = cell.net("Y")
            values[out] = (values[cell.net("A")] - values[cell.net("B")]) & _mask(out)
        elif isinstance(cell, (Multiplier,)):
            out = cell.net("Y")
            values[out] = (values[cell.net("A")] * values[cell.net("B")]) & _mask(out)
        elif isinstance(cell, MacUnit):
            out = cell.net("Y")
            values[out] = (
                values[cell.net("A")] * values[cell.net("B")] + values[cell.net("C")]
            ) & _mask(out)
        elif isinstance(cell, Divider):
            q_net, r_net = cell.net("Y"), cell.net("R")
            a, b = values[cell.net("A")], values[cell.net("B")]
            safe = np.where(b == 0, np.uint64(1), b)
            quotient = np.where(b == 0, np.uint64(q_net.mask), a // safe)
            remainder = np.where(b == 0, a, a % safe)
            values[q_net] = quotient & _mask(q_net)
            values[r_net] = remainder & _mask(r_net)
        elif isinstance(cell, Comparator):
            a, b = values[cell.net("A")], values[cell.net("B")]
            op = cell.op
            result = {
                "eq": a == b, "ne": a != b, "lt": a < b,
                "le": a <= b, "gt": a > b, "ge": a >= b,
            }[op]
            values[cell.net("Y")] = result.astype(np.uint64)
        elif isinstance(cell, Shifter):
            out = cell.net("Y")
            a = values[cell.net("A")]
            amount = np.minimum(values[cell.net("B")], np.uint64(63))
            if cell.direction == "left":
                values[out] = (a << amount) & _mask(out)
            else:
                values[out] = (a >> amount) & _mask(out)
        elif isinstance(cell, Mux):
            out = cell.net("Y")
            sel = values[cell.net("S")] % np.uint64(cell.n_inputs)
            result = values[cell.net("D0")].copy()
            for i in range(1, cell.n_inputs):
                result = np.where(sel == i, values[cell.net(f"D{i}")], result)
            values[out] = result & _mask(out)
        elif isinstance(cell, AndGate):
            out = cell.net("Y")
            values[out] = values[cell.net("A")] & values[cell.net("B")]
        elif isinstance(cell, OrGate):
            out = cell.net("Y")
            values[out] = values[cell.net("A")] | values[cell.net("B")]
        elif isinstance(cell, XorGate):
            out = cell.net("Y")
            values[out] = values[cell.net("A")] ^ values[cell.net("B")]
        elif isinstance(cell, NandGate):
            out = cell.net("Y")
            values[out] = ~(values[cell.net("A")] & values[cell.net("B")]) & _mask(out)
        elif isinstance(cell, NorGate):
            out = cell.net("Y")
            values[out] = ~(values[cell.net("A")] | values[cell.net("B")]) & _mask(out)
        elif isinstance(cell, XnorGate):
            out = cell.net("Y")
            values[out] = ~(values[cell.net("A")] ^ values[cell.net("B")]) & _mask(out)
        elif isinstance(cell, NotGate):
            out = cell.net("Y")
            values[out] = ~values[cell.net("A")] & _mask(out)
        elif isinstance(cell, Buffer):
            values[cell.net("Y")] = values[cell.net("A")]
        elif isinstance(cell, BitSelect):
            values[cell.net("Y")] = (
                values[cell.net("A")] >> np.uint64(cell.bit)
            ) & np.uint64(1)
        elif isinstance(cell, (AndBank, OrBank)):
            out = cell.net("Y")
            enable = values[cell.net("EN")].astype(bool)
            d = values[cell.net("D")]
            if isinstance(cell, AndBank):
                values[out] = np.where(enable, d, np.uint64(0)).astype(np.uint64)
            else:
                values[out] = np.where(enable, d, _mask(out)).astype(np.uint64)
        elif isinstance(cell, (TransparentLatch, LatchBank)):
            out_port = cell.output_ports[0]
            out = cell.net(out_port)
            enable_port = "G" if isinstance(cell, TransparentLatch) else "EN"
            enable = values[cell.net(enable_port)].astype(bool)
            d = values[cell.net("D")] & _mask(out)
            values[out] = np.where(enable, d, self.state[cell]).astype(np.uint64)
        elif isinstance(cell, Constant):
            pass  # set at reset
        else:
            raise SimulationError(
                f"batch engine has no implementation for cell kind {cell.kind!r}"
            )

    # ------------------------------------------------------------------
    def _bind_kernel(self, cell: Cell):
        """Pre-bound settle closure for one cell (``engine="compiled"``).

        Resolves nets, masks, operand order and the cell-kind dispatch
        once; the returned closure only indexes the live ``values`` /
        ``state`` dicts (which :meth:`reset` replaces, hence they are
        parameters rather than captures). Returns ``None`` for inert
        cells. Semantics mirror :meth:`_evaluate` exactly.
        """
        if isinstance(cell, Constant):
            return None
        if isinstance(cell, (Adder, Subtractor, Multiplier)):
            a, b, out = cell.net("A"), cell.net("B"), cell.net("Y")
            mask = _mask(out)
            op = {
                Adder: np.ndarray.__add__,
                Subtractor: np.ndarray.__sub__,
                Multiplier: np.ndarray.__mul__,
            }[type(cell)]
            return lambda v, s: v.__setitem__(out, op(v[a], v[b]) & mask)
        if isinstance(cell, MacUnit):
            a, b, c, out = cell.net("A"), cell.net("B"), cell.net("C"), cell.net("Y")
            mask = _mask(out)
            return lambda v, s: v.__setitem__(out, (v[a] * v[b] + v[c]) & mask)
        if isinstance(cell, Divider):
            a_net, b_net = cell.net("A"), cell.net("B")
            q_net, r_net = cell.net("Y"), cell.net("R")
            q_mask, r_mask = _mask(q_net), _mask(r_net)
            q_full = np.uint64(q_net.mask)

            def divide(v, s):
                a, b = v[a_net], v[b_net]
                safe = np.where(b == 0, np.uint64(1), b)
                v[q_net] = np.where(b == 0, q_full, a // safe) & q_mask
                v[r_net] = np.where(b == 0, a, a % safe) & r_mask

            return divide
        if isinstance(cell, Comparator):
            a, b, out = cell.net("A"), cell.net("B"), cell.net("Y")
            op = {
                "eq": np.ndarray.__eq__, "ne": np.ndarray.__ne__,
                "lt": np.ndarray.__lt__, "le": np.ndarray.__le__,
                "gt": np.ndarray.__gt__, "ge": np.ndarray.__ge__,
            }[cell.op]
            return lambda v, s: v.__setitem__(out, op(v[a], v[b]).astype(np.uint64))
        if isinstance(cell, Shifter):
            a, b, out = cell.net("A"), cell.net("B"), cell.net("Y")
            mask = _mask(out)
            cap = np.uint64(63)
            if cell.direction == "left":
                return lambda v, s: v.__setitem__(
                    out, (v[a] << np.minimum(v[b], cap)) & mask
                )
            return lambda v, s: v.__setitem__(
                out, (v[a] >> np.minimum(v[b], cap)) & mask
            )
        if isinstance(cell, Mux):
            out, sel_net = cell.net("Y"), cell.net("S")
            sources = [cell.net(f"D{i}") for i in range(cell.n_inputs)]
            mask = _mask(out)
            n = np.uint64(cell.n_inputs)

            def mux(v, s):
                sel = v[sel_net] % n
                result = v[sources[0]].copy()
                for i in range(1, len(sources)):
                    result = np.where(sel == i, v[sources[i]], result)
                v[out] = result & mask

            return mux
        if isinstance(cell, (AndGate, OrGate, XorGate)):
            a, b, out = cell.net("A"), cell.net("B"), cell.net("Y")
            op = {
                AndGate: np.ndarray.__and__,
                OrGate: np.ndarray.__or__,
                XorGate: np.ndarray.__xor__,
            }[type(cell)]
            return lambda v, s: v.__setitem__(out, op(v[a], v[b]))
        if isinstance(cell, (NandGate, NorGate, XnorGate)):
            a, b, out = cell.net("A"), cell.net("B"), cell.net("Y")
            mask = _mask(out)
            op = {
                NandGate: np.ndarray.__and__,
                NorGate: np.ndarray.__or__,
                XnorGate: np.ndarray.__xor__,
            }[type(cell)]
            return lambda v, s: v.__setitem__(out, ~op(v[a], v[b]) & mask)
        if isinstance(cell, NotGate):
            a, out = cell.net("A"), cell.net("Y")
            mask = _mask(out)
            return lambda v, s: v.__setitem__(out, ~v[a] & mask)
        if isinstance(cell, Buffer):
            a, out = cell.net("A"), cell.net("Y")
            return lambda v, s: v.__setitem__(out, v[a])
        if isinstance(cell, BitSelect):
            a, out = cell.net("A"), cell.net("Y")
            bit, one = np.uint64(cell.bit), np.uint64(1)
            return lambda v, s: v.__setitem__(out, (v[a] >> bit) & one)
        if isinstance(cell, (AndBank, OrBank)):
            d, en, out = cell.net("D"), cell.net("EN"), cell.net("Y")
            off = np.uint64(0) if isinstance(cell, AndBank) else _mask(out)
            return lambda v, s: v.__setitem__(
                out, np.where(v[en].astype(bool), v[d], off).astype(np.uint64)
            )
        if isinstance(cell, (TransparentLatch, LatchBank)):
            out = cell.net(cell.output_ports[0])
            enable = cell.net("G" if isinstance(cell, TransparentLatch) else "EN")
            d = cell.net("D")
            mask = _mask(out)
            return lambda v, s: v.__setitem__(
                out,
                np.where(v[enable].astype(bool), v[d] & mask, s[cell]).astype(
                    np.uint64
                ),
            )
        raise SimulationError(
            f"batch engine has no implementation for cell kind {cell.kind!r}"
        )
