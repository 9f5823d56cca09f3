"""The benchmark's workloads: what one job is, its warm-up and its output check.

Every workload runs with ``engine="compiled"`` and ``workers=1`` pinned
in its run config, so the ``REPRO_WORKERS`` environment variable has no
effect. Each distinct job also has a content address: the
``job_cache_key`` its one-point (or, for ``sweep-grid``, 48-point)
sweep spec expands to, which is also where the experiment store keeps
its result.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.designs
from repro import api
from repro.opt.rewriting import VERIFY_SEED
from repro.power.estimator import estimate_power
from repro.runconfig import RunConfig
from repro.sim.stimulus import random_stimulus
from repro.sweep import ExperimentStore, SweepSpec, run_sweep
from repro.sweep.engine import COMPUTED, SKIPPED
from repro.verify.equivalence import check_observable_equivalence

from stats import decision_digest
from tracing import patched

ENGINE = "compiled"
WORKERS = 1

#: Cycles of the output check's equivalence run (python engine).
EQUIVALENCE_CYCLES = 500

#: Offset of the equivalence check's stimulus seed, far from any seed
#: a workload optimizes under.
CHECK_SEED_OFFSET = 1_000_000_007

#: Stimulus seed of the set-up job. How much a job does depends on its
#: seed (how many transforms land), so set-up runs the same job for
#: every ``--seed``: ``setup_s`` then follows the program, not the seed.
SETUP_SEED = 0
#: Most cycles of the set-up job. The program cache is keyed by the
#: design's structure, so a shorter run fills it as well; the per-cycle
#: work is what ``run_s_p50`` measures.
SETUP_CYCLES = 300


@dataclass
class Batch:
    """One closed-loop step: timed wall time, per-job wall times, outputs."""

    wall_s: float
    job_s: List[float]
    #: ``(job key, OptimizeResult.to_dict()-form payload)`` per finished job.
    payloads: List[Tuple[str, dict]]
    attempted: int
    failed: int = 0


class Workload:
    """Common shape; subclasses define the jobs."""

    name = ""
    cycles = 0
    #: Jobs attempted by one :meth:`cold` step.
    batch_size = 1
    #: Cold steps per round over the distinct jobs; a run ends on a whole round.
    round_size = 1
    #: Fewest cold steps per run, so a run never rests on one sample.
    min_steps = 2

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Job key -> warm-up payload; every repetition must match its digest.
        self.reference: Dict[str, dict] = {}
        #: Output-check failures of the warm-ups, by job key.
        self.check_errors: Dict[str, str] = {}

    @property
    def stimulus_seeds(self) -> List[int]:
        return [self.seed]

    @property
    def check_seed(self) -> int:
        seed = self.seed + CHECK_SEED_OFFSET
        if seed in self.stimulus_seeds or seed == VERIFY_SEED:
            raise ValueError(f"check seed {seed} collides with an optimization seed")
        return seed

    def _run_config(self, seed: int) -> RunConfig:
        return RunConfig(cycles=self.cycles, seed=seed, engine=ENGINE, workers=WORKERS)

    def _setup_config(self) -> RunConfig:
        return RunConfig(
            cycles=min(self.cycles, SETUP_CYCLES), seed=SETUP_SEED, engine=ENGINE, workers=WORKERS
        )

    def setup(self) -> None:
        """What a one-shot user pays before the first result: the set-up job, cold."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Warm up and check every distinct job (not part of set-up time)."""
        raise NotImplementedError

    def cold(self, index: int) -> Batch:
        raise NotImplementedError

    def resume(self, index: int) -> Batch:
        raise NotImplementedError

    def check(self, session: api.Session, result) -> Optional[str]:
        """Output check of one distinct job's warm-up; a message on failure.

        It runs right after the warm-up, so the result and its designs
        need not be kept.
        """
        try:
            return self._check(session, result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            return f"check raised {type(exc).__name__}: {exc}"

    def _check(self, session: api.Session, result) -> Optional[str]:
        report = check_observable_equivalence(
            session.design,
            result.design,
            random_stimulus(session.design, seed=self.check_seed),
            cycles=min(result.config.cycles, EQUIVALENCE_CYCLES),
            engine="python",
        )
        if not report.equivalent:
            return f"returned design diverges from its input: {report.mismatches[0]}"
        config = result.config
        reference = estimate_power(
            result.design,
            session.stimulus(),
            library=session.library,
            run=RunConfig(
                cycles=config.cycles, warmup=config.warmup, engine="python", workers=1
            ),
        )
        if reference.total_power_mw != result.final.power_mw:
            return (
                f"python engine measures {reference.total_power_mw!r} mW, "
                f"job reported {result.final.power_mw!r} mW"
            )
        return None


def _payload(result) -> dict:
    payload = result.to_dict()
    payload.pop("timings", None)
    return payload


def _resume_batch(specs: List[SweepSpec], store: ExperimentStore) -> Batch:
    """Re-run specs against a filled store; every point must come from it."""
    start = time.perf_counter()
    outcomes = [o for spec in specs for o in run_sweep(spec, store=store).outcomes]
    wall = time.perf_counter() - start
    return Batch(
        wall_s=wall,
        job_s=[],
        payloads=[(o.point.key, o.payload) for o in outcomes if o.status == SKIPPED],
        attempted=len(outcomes),
        failed=sum(1 for o in outcomes if o.status != SKIPPED),
    )


class OptimizeWorkload(Workload):
    """Repeated ``Session.optimize`` jobs on one design, cycling through stimulus seeds."""

    design = ""
    passes: Tuple[str, ...] = ()
    #: Distinct stimulus seeds per run; more average out seed-dependent work.
    mix = 1

    @property
    def stimulus_seeds(self) -> List[int]:
        return [self.seed * self.mix + i for i in range(self.mix)]

    def _spec(self, seed: int) -> SweepSpec:
        return SweepSpec.from_dict(
            {
                "name": self.name,
                "designs": [self.design],
                "pass_lists": [list(self.passes)],
                "run": self._run_config(seed).to_dict(),
            }
        )

    def _session(self, run: RunConfig) -> api.Session:
        return api.Session(getattr(repro.designs, self.design)(), run=run)

    def setup(self) -> None:
        self._session(self._setup_config()).optimize(passes=self.passes)

    def prepare(self) -> None:
        self.store = ExperimentStore(os.path.join(self.workdir, "store"))
        self.specs: List[SweepSpec] = []
        self.jobs: List[Tuple[str, api.Session]] = []
        for seed in self.stimulus_seeds:
            self._warm_up(seed)
        self.round_size = len(self.jobs)

    def _warm_up(self, seed: int) -> None:
        session = self._session(self._run_config(seed))
        result = session.optimize(passes=self.passes)
        spec = self._spec(seed)
        key = spec.expand()[0].key
        payload = _payload(result)
        # The resumed pass must find this job under the key its sweep
        # spec expands to.
        self.store.put(key, payload)
        self.specs.append(spec)
        self.jobs.append((key, session))
        self.reference[key] = payload
        message = self.check(session, result)
        if message is not None:
            self.check_errors[key] = message

    def cold(self, index: int) -> Batch:
        key, session = self.jobs[index % len(self.jobs)]
        start = time.perf_counter()
        result = session.optimize(passes=self.passes)
        wall = time.perf_counter() - start
        return Batch(wall_s=wall, job_s=[wall], payloads=[(key, _payload(result))], attempted=1)

    def resume(self, index: int) -> Batch:
        return _resume_batch(self.specs, self.store)


class SocLong(OptimizeWorkload):
    name = "soc-long"
    design = "soc_datapath"
    passes = ("isolation", "clock_gating")
    cycles = 2000
    min_steps = 3


class FirRewrite(OptimizeWorkload):
    name = "fir-rewrite"
    design = "fir_datapath"
    passes = ("rewrite", "isolation")
    cycles = 300
    mix = 12
    min_steps = 24


class SweepGrid(Workload):
    """Cold sweeps of a 48-point grid into empty stores, then resumed passes."""

    name = "sweep-grid"
    cycles = 300
    min_steps = 5

    def _spec(self, run: RunConfig, stimuli=(None, "idle", "bursty", "correlated")) -> SweepSpec:
        return SweepSpec.from_dict(
            {
                "name": self.name,
                "designs": ["design1", "design2", "fir", "alu"],
                "stimuli": list(stimuli),
                "pass_lists": [
                    ["isolation"],
                    ["isolation", "clock_gating"],
                    ["rewrite", "isolation"],
                ],
                "run": run.to_dict(),
            }
        )

    def setup(self) -> None:
        # One point per design and pass list: every design compiled, every
        # pass run once. The other stimuli add per-point work, not set-up.
        spec = self._spec(self._setup_config(), stimuli=[None])
        setup = run_sweep(spec, store=os.path.join(self.workdir, "setup"))
        shutil.rmtree(setup.store_root, ignore_errors=True)

    def prepare(self) -> None:
        self.spec = self._spec(self._run_config(self.seed))
        self.batch_size = self.spec.size
        self._labels = itertools.count()
        # The warm-up pass runs every point through the same inline path
        # as the timed passes. Each point's result is checked as soon as
        # it is returned; only the verdict and the decision digest are kept.
        captured: List[Tuple[Optional[str], str]] = []

        def capture(optimize):
            def wrapper(session, *args, **kwargs):
                result = optimize(session, *args, **kwargs)
                captured.append((self.check(session, result), decision_digest(_payload(result))))
                return result

            return wrapper

        with patched(api.Session, "optimize", capture):
            warm = self._pass("warmup")
        for outcome in warm.outcomes:
            if outcome.status != COMPUTED:
                self.check_errors[outcome.point.key] = f"warm-up point failed: {outcome.error}"
        computed = [o for o in warm.outcomes if o.status == COMPUTED]
        for outcome, (message, digest) in zip(computed, captured):
            key = outcome.point.key
            self.reference[key] = outcome.payload
            if digest != decision_digest(outcome.payload):
                message = "stored payload differs from the optimize result"
            if message is not None:
                self.check_errors[key] = message
        self.store_dir = warm.store_root

    def _pass(self, label: str):
        return run_sweep(self.spec, store=os.path.join(self.workdir, label))

    def cold(self, index: int) -> Batch:
        start = time.perf_counter()
        swept = self._pass(f"cold-{next(self._labels)}")
        wall = time.perf_counter() - start
        # Only the newest store is kept: it answers the resumed passes.
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir = swept.store_root
        computed = [o for o in swept.outcomes if o.status == COMPUTED]
        # The client's request here is the whole sweep: its wall time is
        # the latency sample. Single points are a few heavy rewrite jobs
        # and many light ones, so their tail would follow whichever fir
        # point the seed makes heaviest.
        return Batch(
            wall_s=wall,
            job_s=[wall],
            payloads=[(o.point.key, o.payload) for o in computed],
            attempted=len(swept.outcomes),
            failed=len(swept.outcomes) - len(computed),
        )

    def resume(self, index: int) -> Batch:
        return _resume_batch([self.spec], ExperimentStore(self.store_dir))


WORKLOADS = {cls.name: cls for cls in (SocLong, FirRewrite, SweepGrid)}
