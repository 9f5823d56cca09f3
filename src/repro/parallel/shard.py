"""Sharded Monte-Carlo batch simulation (the data-parallel axis).

The batch engine's replications are i.i.d. by construction, which makes
them embarrassingly parallel: split the ``batch_size`` lanes into
**shards**, simulate each shard in its own process with its own
deterministically derived stimulus seed, and merge the per-lane *count*
statistics afterwards. Because the merge concatenates integer counters
keyed by shard index (never averages floats), the merged statistics are
**bit-exact** regardless of worker count or completion order: running a
plan with ``workers=1``, ``workers=2`` or ``workers=8`` yields the same
arrays.

Two invariants make that guarantee hold:

* the shard plan depends only on ``(seed, batch_size, n_shards)`` —
  never on the worker count (workers only schedule shards);
* each shard's stimulus seed comes from :func:`derive_shard_seed`, a
  keyed hash of ``(seed, shard_index)``, so no two shards (or two base
  seeds) share a stimulus stream.

Typical use::

    run = run_batch_sharded(design, batch_size=32, cycles=500,
                            seed=7, workers=4,
                            probes={"en": var("EN")})
    mean, half = run.stats.toggle_rate_ci(design.net("X"))
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.netlist.design import Design
from repro.parallel.pool import ParallelReport, WorkerPool
from repro.sim.batch import (
    BatchProbe,
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    cross_lane_ci,
)

#: Default maximum lanes per shard: small enough that a 32-lane batch
#: spreads over 4+ workers, large enough to amortize per-shard setup.
DEFAULT_MAX_LANES_PER_SHARD = 8


def derive_shard_seed(seed: int, shard_index: int) -> int:
    """Deterministic 63-bit stimulus seed for one shard of one run.

    A keyed blake2b hash of the ``(seed, shard_index)`` pair: distinct
    pairs map to distinct streams (collisions need ~2^31 pairs), the
    mapping is stable across processes and platforms, and nearby seeds
    or shard indices share no stream structure. Injectivity over
    practical domains is property-tested in
    ``tests/test_parallel_properties.py``.
    """
    if shard_index < 0:
        raise SimulationError(f"shard_index must be >= 0, got {shard_index}")
    message = f"repro-shard:{int(seed)}:{int(shard_index)}".encode("ascii")
    digest = hashlib.blake2b(message, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1  # 63 bits: numpy-friendly


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a sharded batch run: its lanes and stimulus seed."""

    index: int
    lanes: int
    seed: int


def plan_shards(
    batch_size: int,
    seed: int = 0,
    n_shards: Optional[int] = None,
    max_lanes_per_shard: int = DEFAULT_MAX_LANES_PER_SHARD,
) -> Tuple[ShardSpec, ...]:
    """Split ``batch_size`` lanes into a worker-count-independent plan.

    ``n_shards`` defaults to ``ceil(batch_size / max_lanes_per_shard)``;
    lane counts across shards differ by at most one. The plan is a pure
    function of ``(seed, batch_size, n_shards)`` so the same request
    shards identically no matter how many workers later execute it.
    """
    if batch_size < 1:
        raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
    if max_lanes_per_shard < 1:
        raise SimulationError(
            f"max_lanes_per_shard must be >= 1, got {max_lanes_per_shard}"
        )
    if n_shards is None:
        n_shards = math.ceil(batch_size / max_lanes_per_shard)
    if not 1 <= n_shards <= batch_size:
        raise SimulationError(
            f"n_shards must be in [1, batch_size={batch_size}], got {n_shards}"
        )
    base, extra = divmod(batch_size, n_shards)
    specs = []
    for index in range(n_shards):
        lanes = base + (1 if index < extra else 0)
        specs.append(
            ShardSpec(index=index, lanes=lanes, seed=derive_shard_seed(seed, index))
        )
    return tuple(specs)


# ----------------------------------------------------------------------
# Per-shard statistics and their order-independent merge
# ----------------------------------------------------------------------
@dataclass
class ShardStats:
    """Raw per-lane counters of one executed shard.

    Everything is keyed by *name* (net / probe), holds integer counts
    (not rates), and is plain picklable data — the exchange format
    between worker processes and the merging parent.
    """

    shard_index: int
    lanes: int
    cycles: int
    toggle_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    probe_true: Dict[str, np.ndarray] = field(default_factory=dict)
    probe_cycles: int = 0
    elapsed_s: float = 0.0


class MergedBatchStats:
    """Cross-shard statistics with the :class:`BatchToggleMonitor` API.

    Lanes are concatenated in shard-index order, so the merged arrays
    are independent of both the order shards finished in and the order
    they were merged in (see the property tests). Accepts nets or net
    names interchangeably.
    """

    def __init__(self, shards: Sequence[ShardStats]) -> None:
        ordered = sorted(shards, key=lambda s: s.shard_index)
        indices = [s.shard_index for s in ordered]
        if len(set(indices)) != len(indices):
            raise SimulationError(f"duplicate shard indices in merge: {indices}")
        if not ordered:
            raise SimulationError("cannot merge zero shards")
        cycle_counts = {s.cycles for s in ordered}
        if len(cycle_counts) != 1:
            raise SimulationError(
                f"shards observed different cycle counts: {sorted(cycle_counts)}"
            )
        key_sets = {frozenset(s.toggle_counts) for s in ordered}
        if len(key_sets) != 1:
            raise SimulationError("shards watched different net sets")
        self.shards: Tuple[ShardStats, ...] = tuple(ordered)
        self.cycles = ordered[0].cycles
        self.probe_cycles = ordered[0].probe_cycles
        self.batch_size = sum(s.lanes for s in ordered)
        self.toggles: Dict[str, np.ndarray] = {
            name: np.concatenate([s.toggle_counts[name] for s in ordered])
            for name in ordered[0].toggle_counts
        }
        self.probe_true: Dict[str, np.ndarray] = {
            name: np.concatenate([s.probe_true[name] for s in ordered])
            for name in ordered[0].probe_true
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _name(net: Union[str, object]) -> str:
        return net if isinstance(net, str) else net.name

    def per_lane_rates(self, net: Union[str, object]) -> np.ndarray:
        """Toggle rate of every replication, all shards concatenated."""
        counts = self.toggles[self._name(net)]
        if self.cycles <= 1:
            return np.zeros(self.batch_size)
        return counts.astype(np.float64) / (self.cycles - 1)

    def toggle_rate(self, net: Union[str, object]) -> float:
        return float(self.per_lane_rates(net).mean())

    def toggle_rate_ci(
        self, net: Union[str, object], z: float = 1.96
    ) -> Tuple[float, float]:
        return cross_lane_ci(self.per_lane_rates(net), z)

    # ------------------------------------------------------------------
    def probe_per_lane(self, name: str) -> np.ndarray:
        counts = self.probe_true[name]
        if self.probe_cycles == 0:
            return np.zeros(self.batch_size)
        return counts / self.probe_cycles

    def probe_probability(self, name: str) -> float:
        return float(self.probe_per_lane(name).mean())

    def probe_probability_ci(self, name: str, z: float = 1.96) -> Tuple[float, float]:
        return cross_lane_ci(self.probe_per_lane(name), z)


def merge_shard_stats(
    *groups: Union[ShardStats, MergedBatchStats, Iterable[ShardStats]],
) -> MergedBatchStats:
    """Merge shard statistics, order-independently.

    Accepts bare :class:`ShardStats`, previously merged
    :class:`MergedBatchStats` and iterables of either, in any order and
    grouping — the operation is associative and commutative because the
    result is canonicalised by shard index (property-tested).
    """
    flat: List[ShardStats] = []
    for group in groups:
        if isinstance(group, ShardStats):
            flat.append(group)
        elif isinstance(group, MergedBatchStats):
            flat.extend(group.shards)
        else:
            for item in group:
                if isinstance(item, MergedBatchStats):
                    flat.extend(item.shards)
                else:
                    flat.append(item)
    return MergedBatchStats(flat)


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
def run_shard(
    design: Design,
    spec: ShardSpec,
    cycles: int,
    warmup: int = 0,
    engine: str = "python",
    probes: Optional[Mapping[str, object]] = None,
    stimulus_kwargs: Optional[Mapping[str, object]] = None,
    nets: Optional[Sequence[str]] = None,
    checkpoint_every: Optional[int] = None,
) -> ShardStats:
    """Execute one shard and return its raw counters.

    This is the function worker processes run; it is also directly
    usable for manual shard execution (e.g. the checkpoint/resume
    determinism tests drive single shards through it and resume them
    with :class:`~repro.sim.batch.BatchCheckpoint`).
    """
    with obs.span(
        "shard.run",
        "sim",
        design=design.name,
        shard=spec.index,
        lanes=spec.lanes,
        cycles=cycles,
    ):
        start = time.perf_counter()
        restrict = (
            [design.net(name) for name in nets] if nets is not None else None
        )
        monitor = BatchToggleMonitor(restrict)
        probe_monitors = [
            BatchProbe(name, expr) for name, expr in sorted((probes or {}).items())
        ]
        simulator = BatchSimulator(design, batch_size=spec.lanes, engine=engine)
        stimulus = BatchRandomStimulus(
            design, batch_size=spec.lanes, seed=spec.seed, **dict(stimulus_kwargs or {})
        )
        monitors = simulator.run(
            stimulus,
            cycles,
            monitors=[monitor] + probe_monitors,
            warmup=warmup,
            checkpoint_every=checkpoint_every,
        )
        return shard_stats_from_monitors(spec, monitors, time.perf_counter() - start)


def shard_stats_from_monitors(
    spec: ShardSpec, monitors: Sequence[object], elapsed_s: float = 0.0
) -> ShardStats:
    """Convert live monitors of one shard run into picklable counters."""
    toggle_counts: Dict[str, np.ndarray] = {}
    probe_true: Dict[str, np.ndarray] = {}
    cycles = 0
    probe_cycles = 0
    for monitor in monitors:
        if isinstance(monitor, BatchToggleMonitor):
            cycles = monitor.cycles
            for net, counts in monitor.toggles.items():
                toggle_counts[net.name] = counts.copy()
        elif isinstance(monitor, BatchProbe):
            probe_cycles = monitor.cycles
            probe_true[monitor.name] = monitor.true_counts.copy()
    return ShardStats(
        shard_index=spec.index,
        lanes=spec.lanes,
        cycles=cycles,
        toggle_counts=toggle_counts,
        probe_true=probe_true,
        probe_cycles=probe_cycles,
        elapsed_s=elapsed_s,
    )


def _run_shard_payload(payload: dict) -> ShardStats:
    """Module-level worker shim for :class:`~repro.parallel.pool.WorkerPool`."""
    return run_shard(
        payload["design"],
        payload["spec"],
        payload["cycles"],
        warmup=payload["warmup"],
        engine=payload["engine"],
        probes=payload["probes"],
        stimulus_kwargs=payload["stimulus_kwargs"],
        nets=payload["nets"],
        checkpoint_every=payload["checkpoint_every"],
    )


@dataclass
class ShardedRun:
    """Everything :func:`run_batch_sharded` produces."""

    stats: MergedBatchStats
    report: ParallelReport
    plan: Tuple[ShardSpec, ...]

    @property
    def shard_timings(self) -> List[Tuple[int, float]]:
        """(shard index, seconds) pairs, for the ``--json`` reports."""
        return [(s.shard_index, s.elapsed_s) for s in self.stats.shards]


def run_batch_sharded(
    design: Design,
    batch_size: int,
    cycles: int,
    warmup: int = 0,
    seed: int = 0,
    workers: int = 1,
    n_shards: Optional[int] = None,
    max_lanes_per_shard: int = DEFAULT_MAX_LANES_PER_SHARD,
    engine: str = "python",
    probes: Optional[Mapping[str, object]] = None,
    stimulus_kwargs: Optional[Mapping[str, object]] = None,
    nets: Optional[Sequence[str]] = None,
    checkpoint_every: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
) -> ShardedRun:
    """Shard a batch Monte-Carlo run over a process pool and merge it.

    The result is bit-exact across worker counts: the shard plan and
    per-shard seeds depend only on ``(seed, batch_size, n_shards)``, and
    the merge concatenates integer counters in shard-index order.
    ``pool`` lets callers reuse a :class:`WorkerPool` across runs; pool
    failures degrade to in-process execution and are recorded in the
    returned report's ``fallback_reason``.
    """
    plan = plan_shards(
        batch_size,
        seed=seed,
        n_shards=n_shards,
        max_lanes_per_shard=max_lanes_per_shard,
    )
    payloads = [
        {
            "design": design,
            "spec": spec,
            "cycles": cycles,
            "warmup": warmup,
            "engine": engine,
            "probes": dict(probes or {}),
            "stimulus_kwargs": dict(stimulus_kwargs or {}),
            "nets": list(nets) if nets is not None else None,
            "checkpoint_every": checkpoint_every,
        }
        for spec in plan
    ]
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers)
    try:
        shard_results = pool.map(_run_shard_payload, payloads)
    finally:
        if own_pool:
            pool.close()
    return ShardedRun(
        stats=merge_shard_stats(shard_results),
        report=pool.report(),
        plan=plan,
    )
