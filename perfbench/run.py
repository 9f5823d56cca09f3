#!/usr/bin/env python3
"""The repository benchmark: ``optimize`` latency and power quality per workload.

Run from the repository root::

    python3 perfbench/run.py --workload soc-long --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run instead and prints the per-layer metrics, writing the spans
to ``.bench_out/trace-<workload>-seed<seed>.json`` (opens in Perfetto).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the same figures for people, with the environment, the
percentile behind ``run_s_tail`` and the workload's decision digest.
The exit code is 0 only when every job's output passed its check.
See ``perfbench/README.md`` for why each workload and metric is there.
"""

import time

#: Set-up time is measured from here: interpreter start-up aside, a
#: fresh process pays everything after this line before it can time.
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

from hostspeed import SHARE, HostSpeed  # noqa: E402
from stats import accept_counts, combined_digest, decision_digest, tail_percentile  # noqa: E402
from tracing import JOB, LAYERS, LayerStats, LayerTracer, rollup  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh-process set-ups per run besides the run's own; ``setup_s`` is
#: the median of all of them.
SETUP_PROBES = 4
#: Time of the resumed passes after each cold step, as a share of the step's.
RESUME_SHARE = 0.1
PROBE_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s_p50", "s", "lower"),
    ("run_s_tail", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("resume_points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("power_after_pct", "%", "lower"),
    ("area_after_pct", "%", "lower"),
)

#: Layers that do no work on one of the workloads (the rewrite pass
#: does not run on soc-long, clock gating not on fir-rewrite). A time
#: that reads the same on every run is refused, and their self time
#: would read 0 s on every run there, so they report no ``.self_s``.
#: Their ``.calls`` and ``.share`` are a count and a percentage, not
#: times, and stay; the printed table has their seconds.
PARTIAL_LAYERS = frozenset(
    ["rewrite.replay", "verify.equivalence"]
    + [f"opt.{m}.{p}" for p in ("rewrite", "clock_gating") for m in ("enumerate", "score", "apply")]
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric the traced run reports."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer.name}.calls", "count", "lower"))
        if layer.name not in PARTIAL_LAYERS:
            metrics.append((f"{layer.name}.self_s", "s", "lower"))
        metrics.append((f"{layer.name}.share", "%", "lower"))
    return metrics + [
        ("unattributed.share", "%", "lower"),
        ("sim.runs_per_job", "runs", "lower"),
        ("sim.cycles_per_s", "1/s", "higher"),
        ("sim.compile.hit_ratio", "ratio", "higher"),
        ("opt.accept_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]


class Tally:
    """Jobs attempted and failed, plus why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.passed_by_key: Dict[str, int] = {}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


def _attempt(step: Callable, index: int, workload, tally: Tally):
    """Run one step; tally its jobs and check each output against its warm-up digest."""
    try:
        batch = step(index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.attempted += workload.batch_size
        tally.fail(workload.batch_size, f"step {index} raised")
        return None
    tally.attempted += batch.attempted
    if batch.failed:
        tally.fail(batch.failed, f"step {index}: {batch.failed} job(s) failed")
    for key, payload in batch.payloads:
        if decision_digest(payload) != decision_digest(workload.reference[key]):
            tally.fail(1, f"job {key[:12]} decided differently from its warm-up")
        else:
            tally.passed_by_key[key] = tally.passed_by_key.get(key, 0) + 1
    # Checked outputs are not kept: memory must not grow with the work done.
    batch.payloads = []
    return batch


def closed_loop(
    workload,
    tally: Tally,
    seconds: float,
    min_steps: int,
    cold: Callable,
    resume: Optional[Callable],
    host=None,
    between: Optional[Callable[[int], None]] = None,
) -> Tuple[list, list]:
    """Cold steps back to back for ``seconds``, each followed by resumed passes.

    The loop runs at least ``min_steps`` cold steps and ends on a whole
    round of the workload's distinct jobs. After each cold step,
    resumed passes take :data:`RESUME_SHARE` of that step's time, and
    the host-speed loop (``host``, a :class:`hostspeed.HostSpeed`) its
    share, so all three kinds of sample are spread over the whole run.
    ``between(step)``, if given, runs last after each cold step, untimed.
    """

    cold_batches, resume_batches = [], []
    steps = 0
    start = time.perf_counter()
    while (
        steps < min_steps
        or time.perf_counter() - start < seconds
        or steps % workload.round_size
    ):
        gc.collect()
        batch = _attempt(cold, steps, workload, tally)
        steps += 1
        if batch is None:
            continue
        cold_batches.append(batch)
        if host is not None:
            host.sample(SHARE * batch.wall_s)
        spent = 0.0
        while resume is not None and spent < RESUME_SHARE * batch.wall_s:
            resumed = _attempt(resume, len(resume_batches), workload, tally)
            if resumed is None:
                break
            resume_batches.append(resumed)
            spent += resumed.wall_s
        if between is not None:
            between(steps - 1)
    return cold_batches, resume_batches


def tally_checks(workload, tally: Tally) -> None:
    """Count every repetition of a job whose warm-up failed its output check as failed."""
    for key, message in workload.check_errors.items():
        tally.fail(max(1, tally.passed_by_key.get(key, 0)), f"job {key[:12]}: {message}")


def set_up(args, workdir: Path):
    """Imports, design construction and the set-up job; returns (workload, seconds since T0)."""
    import numpy  # noqa: F401  (part of what a fresh process imports)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    workload.setup()
    return workload, time.perf_counter() - T0


def setup_probe(args) -> float:
    """Set-up time of one fresh benchmark process."""
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args, workload) -> dict:
    import numpy

    from workloads import ENGINE, WORKERS

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "stimulus_seeds": workload.stimulus_seeds,
        "cycles": workload.cycles,
        "engine": ENGINE,
        "workers": WORKERS,
        "seconds": args.seconds,
        "unmeasured": [
            "parallel pool (workers pinned to 1)",
            "serve HTTP/queue and supervisor",
            "engine='bitslice'",
        ],
    }


def quality(workload) -> Dict[str, float]:
    """Mean power and area after/before over the workload's distinct jobs."""
    payloads = list(workload.reference.values())
    power = [p["power_mw"]["after"] / p["power_mw"]["before"] for p in payloads]
    area = [p["area_um2"]["after"] / p["area_um2"]["before"] for p in payloads]
    return {
        "power_after_pct": 100.0 * statistics.fmean(power),
        "area_after_pct": 100.0 * statistics.fmean(area),
    }


def end_to_end(args, workdir: Path, tally: Tally) -> Tuple[dict, List[str]]:
    host = HostSpeed()
    workload, own_setup = set_up(args, workdir)
    phases = [time.perf_counter()]
    workload.prepare()
    phases.append(time.perf_counter())
    setup_walls = [own_setup]
    stride = max(1, workload.min_steps // SETUP_PROBES)

    def probe(step: int) -> None:
        # Spread over the timed loop, like the host-speed samples that
        # scale them. One at a time: side by side, set-ups would share
        # the host's cores.
        if step % stride == 0 and len(setup_walls) <= SETUP_PROBES:
            setup_walls.append(setup_probe(args))

    cold, resumed = closed_loop(
        workload, tally, args.seconds, workload.min_steps, workload.cold, workload.resume, host, probe
    )
    while len(setup_walls) <= SETUP_PROBES:
        setup_walls.append(setup_probe(args))
    phases.append(time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally_checks(workload, tally)

    samples = [s for batch in cold for s in batch.job_s]
    tail, tail_pct, tail_n = tail_percentile(samples)
    wall = {
        "setup_s": statistics.median(setup_walls),
        "run_s_p50": statistics.median(samples),
        "run_s_tail": tail,
        "points_per_s": sum(b.attempted - b.failed for b in cold) / sum(b.wall_s for b in cold),
        "resume_points_per_s": statistics.median(b.attempted / b.wall_s for b in resumed),
    }
    # Times in reference-host seconds, rates per reference-host second.
    scale = {"s": host.factor, "1/s": 1.0 / host.factor}
    units = dict((name, unit) for name, unit, _ in END_TO_END)
    metrics = {name: value * scale[units[name]] for name, value in wall.items()}
    metrics.update({"peak_rss_mb": peak_rss_mb, **quality(workload)})
    power = metrics["power_after_pct"]
    area = metrics["area_after_pct"]
    digests = [decision_digest(p) for p in workload.reference.values()]
    lines = [
        f"environment: {json.dumps(environment(args, workload))}",
        f"host speed {host.factor:.4f} x reference ({host.seconds:.2f} s of calibration); "
        "the times above are in reference-host seconds. Wall-clock values: "
        + ", ".join(f"{name} {value:.6f}" for name, value in wall.items()),
        f"setup_s samples (wall): {', '.join(f'{s:.4f}' for s in setup_walls)}",
        "phases: set-up {:.1f} s, warm-ups with output checks {:.1f} s, "
        "timed loop with set-up probes {:.1f} s".format(
            own_setup, *(b - a for a, b in zip(phases, phases[1:]))
        ),
        f"run_s_tail is p{tail_pct:.1f} of n={tail_n} sample(s)"
        + ("" if tail_n > 10 else " (fewer than 11 samples: no percentile has ten beyond it; the maximum)"),
        f"power_saving_pct {100.0 - power:.6f} %   area_overhead_pct {area - 100.0:.6f} %",
        f"failed_frac {tally.failed}/{tally.attempted}",
        f"decision digest {combined_digest(digests)} over {len(digests)} distinct job(s)",
    ]
    return metrics, lines


def traced(args, workdir: Path, tally: Tally) -> Tuple[dict, List[str]]:
    from repro.sim.compile import program_cache

    from workloads import WORKLOADS

    tracer = LayerTracer()
    cache = program_cache()
    before_setup = cache.stats()
    workload = WORKLOADS[args.workload](args.seed, str(workdir))
    with tracer.installed(), tracer.job("setup"):
        workload.setup()
    after_setup = cache.stats()
    # Untraced: the output checks run here and are not the program's work.
    workload.prepare()

    # Untraced, then the same jobs traced: the difference is the overhead.
    untraced, _ = closed_loop(workload, tally, args.seconds / 2, 1, workload.cold, None)
    before_traced = cache.stats()

    def traced_step(kind: str, step: Callable) -> Callable:
        def run(index: int):
            with tracer.job(f"{kind}-{index}"):
                return step(index)

        return run

    with tracer.installed():
        traced_cold, _ = closed_loop(
            workload,
            tally,
            0.0,
            len(untraced),
            traced_step("cold", workload.cold),
            traced_step("resume", workload.resume),
        )
    after_traced = cache.stats()
    tally_checks(workload, tally)

    stats, wall_ns = rollup(tracer.spans)
    metrics: Dict[str, float] = {}
    table = []
    for layer in LAYERS:
        entry = stats.get(layer.name, LayerStats())
        calls, self_s = entry.calls, entry.self_ns / 1e9
        share = 100.0 * entry.self_ns / wall_ns
        metrics[f"{layer.name}.calls"] = calls
        if layer.name not in PARTIAL_LAYERS:
            metrics[f"{layer.name}.self_s"] = self_s
        metrics[f"{layer.name}.share"] = share
        table.append(f"  {layer.name:<22} {calls:>9} calls {self_s:>10.4f} s {share:>7.2f} %")
    hits = (after_setup["hits"] - before_setup["hits"]) + (after_traced["hits"] - before_traced["hits"])
    misses = (after_setup["misses"] - before_setup["misses"]) + (
        after_traced["misses"] - before_traced["misses"]
    )
    applied = scored = 0
    for payload in workload.reference.values():
        a, s = accept_counts(payload)
        applied += a
        scored += s
    kernel = stats["sim.kernel"]
    metrics.update(
        {
            "unattributed.share": 100.0 * stats[JOB].self_ns / wall_ns,
            "sim.runs_per_job": stats["power.estimate"].calls / stats["opt.loop"].calls,
            "sim.cycles_per_s": kernel.units / (kernel.self_ns / 1e9),
            "sim.compile.hit_ratio": hits / (hits + misses),
            "opt.accept_ratio": applied / scored,
            "trace.overhead_s": statistics.median(b.wall_s for b in traced_cold)
            - statistics.median(b.wall_s for b in untraced),
        }
    )
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(
        str(trace_path), metrics={"environment": environment(args, workload), "per_layer": metrics}
    )
    lines = [
        f"environment: {json.dumps(environment(args, workload))}",
        f"traced wall {wall_ns / 1e9:.4f} s over {stats[JOB].calls} job span(s); "
        f"trace: {trace_path.relative_to(ROOT)}",
        *table,
        f"  {'unattributed':<22} {stats[JOB].self_ns / 1e9:>26.4f} s {metrics['unattributed.share']:>7.2f} %",
        f"failed_frac {tally.failed}/{tally.attempted}",
    ]
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["soc-long", "fir-rewrite", "sweep-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_WORKERS", None)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            _, elapsed = set_up(args, workdir)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        tally = Tally()
        run = traced if args.trace else end_to_end
        metrics, lines = run(args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict((name, unit) for name, unit, _ in END_TO_END + tuple(per_layer_metrics()))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if not args.trace:
        for name, value in metrics.items():
            print(f"  {name:<22} {value:>16.6f} {units[name]}")
    for line in lines:
        print(line)
    for error in tally.errors:
        print(f"FAILED: {error}")
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
