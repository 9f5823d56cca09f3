"""Shared run-control configuration for every simulation-driven entry point.

Historically each entry point grew its own run-control kwargs:
``estimate_power(design, stimulus, cycles, warmup=16)``,
``rank_candidates(..., cycles=2000)``, ``isolate_design`` via
``IsolationConfig(cycles=, warmup=)`` and ``compare_styles`` via the same
config object — with inconsistent names, positions and defaults.

:class:`RunConfig` is the one object that carries those knobs now:

* ``cycles`` / ``warmup`` — simulation length per estimation run;
* ``seed`` — stimulus seed (used by the :mod:`repro.api` facade and the
  CLI when they build the default random stimulus);
* ``engine`` — ``"python"`` (the reference interpreter), ``"compiled"``
  (the pre-bound kernel backend of :mod:`repro.sim.compile`; bit-exact,
  much faster) or ``"checked"`` (compiled and reference engines run in
  lockstep with periodic cross-comparison; see
  :mod:`repro.sim.checked`);
* ``workers`` — process-pool width for the parallel execution layer
  (:mod:`repro.parallel`): ``1`` = serial, ``0`` = one worker per CPU,
  ``n > 1`` = a pool of ``n`` processes. Defaults to the
  ``REPRO_WORKERS`` environment variable (else 1). Serial and parallel
  runs are bit-exact (see ``docs/parallelism.md``).

Every entry point accepts ``run=RunConfig(...)``; the old per-call
kwargs keep working as deprecated aliases that emit a
:class:`DeprecationWarning` (see :func:`resolve_run_config`).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Optional

from repro.errors import ReproError

#: The available simulation backends.
ENGINES = ("python", "compiled", "checked")


def _default_workers() -> int:
    # Lazy import: repro.parallel pulls in sim/core modules that would
    # cycle back here if imported at module scope.
    from repro.parallel.pool import default_workers

    return default_workers()


@dataclass(frozen=True)
class RunConfig:
    """Run-control knobs shared by all simulation-driven entry points.

    Attributes
    ----------
    cycles:
        Observed simulation cycles per estimation run.
    warmup:
        Cycles simulated before observation starts (flushes reset
        transients out of the statistics).
    seed:
        Stimulus seed, used wherever the library builds the stimulus
        itself (the :mod:`repro.api` facade, the CLI).
    engine:
        ``"python"``, ``"compiled"`` or ``"checked"`` — which simulation
        backend runs the netlist. ``"compiled"`` is bit-exact with the
        python reference and much faster; ``"checked"`` runs both in
        lockstep and raises :class:`~repro.errors.EquivalenceError` if
        they ever disagree (differential self-checking at roughly the
        combined cost of the two engines).
    workers:
        Process-pool width for candidate scoring / style comparison /
        sharded batch runs: ``1`` = serial, ``0`` = auto (one worker per
        CPU), ``n > 1`` = a pool of ``n`` workers. Results are bit-exact
        across worker counts; pool failures degrade to serial with a
        recorded ``fallback_reason``.
    trace:
        Enable the observability layer (:mod:`repro.obs`) for runs made
        through the :class:`repro.api.Session` facade: every pipeline
        stage is recorded as a span and the metrics registry fills in.
        Inspect via ``Session.trace()`` / ``Session.metrics()`` or export
        with ``Session.write_trace()``. Off by default (near-zero cost).
    """

    cycles: int = 2000
    warmup: int = 16
    seed: int = 0
    engine: str = "python"
    workers: int = field(default_factory=_default_workers)
    trace: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ReproError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )
        if self.cycles < 0:
            raise ReproError(f"cycles must be >= 0, got {self.cycles}")
        if self.warmup < 0:
            raise ReproError(f"warmup must be >= 0, got {self.warmup}")
        if self.workers < 0:
            raise ReproError(f"workers must be >= 0 (0 = auto), got {self.workers}")

    def replace(self, **overrides) -> "RunConfig":
        """A copy with the given fields changed."""
        return replace(self, **overrides)

    # -- transport / identity ------------------------------------------
    def to_dict(self) -> dict:
        """All fields as a plain JSON-serialisable dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunConfig":
        """Build a config from a (possibly partial) dict.

        Unknown keys raise :class:`~repro.errors.ReproError` instead of
        being silently dropped — a misspelled knob in a remote job
        request must not quietly run with defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(
                f"unknown RunConfig field(s) {unknown}; known: {sorted(known)}"
            )
        return cls(**dict(payload))

    def fingerprint(self) -> str:
        """Canonical digest of the fields that determine *results*.

        Covers ``cycles``, ``warmup``, ``seed`` and ``engine``.
        ``workers`` and ``trace`` are deliberately excluded: results are
        bit-exact across worker counts (``docs/parallelism.md``) and
        tracing never changes outputs, so configs differing only in
        those knobs are interchangeable for content-addressed caching
        (the key of the :mod:`repro.serve` result cache).
        """
        canonical = json.dumps(
            {
                "cycles": self.cycles,
                "warmup": self.warmup,
                "seed": self.seed,
                "engine": self.engine,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def resolve_run_config(
    run: Optional[RunConfig] = None,
    defaults: Optional[RunConfig] = None,
    stacklevel: int = 2,
    engine: Optional[str] = None,
    **legacy,
) -> RunConfig:
    """Merge ``run=RunConfig`` with deprecated per-call kwargs.

    ``legacy`` holds the old kwargs (``cycles=``, ``warmup=``,
    ``seed=``); any that are not ``None`` emit a single
    :class:`DeprecationWarning` and override the corresponding
    :class:`RunConfig` field. ``engine`` is a first-class kwarg (not
    deprecated) and likewise overrides the config when given.

    The default ``stacklevel=2`` points the warning at whoever called
    this function. Entry points that accept the legacy kwargs on the
    user's behalf (``estimate_power``, ``isolate_design``, ...) pass
    ``stacklevel=3`` so the warning names *their* caller's file, not a
    line inside ``repro``.
    """
    resolved = run if run is not None else (defaults or RunConfig())
    provided = {k: v for k, v in legacy.items() if v is not None}
    if provided:
        names = ", ".join(sorted(provided))
        hint = ", ".join(f"{k}={v!r}" for k, v in sorted(provided.items()))
        warnings.warn(
            f"passing {names} directly is deprecated; "
            f"pass run=RunConfig({hint}) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
        resolved = replace(resolved, **provided)
    if engine is not None:
        resolved = replace(resolved, engine=engine)
    return resolved
