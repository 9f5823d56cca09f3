"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from stats import decision_digest, tail_percentile  # noqa: E402
from tracing import JOB, LAYERS, LayerTracer, SpanRecord, _resolve, rollup  # noqa: E402


def _span(name, start, end, parent, leaf=None):
    span = SpanRecord(name, start, parent, "j0")
    span.end_ns = end
    for layer, (calls, ns) in (leaf or {}).items():
        span.leaf_calls[layer] = calls
        span.leaf_ns[layer] = ns
    return span


def test_rollup_subtracts_child_spans_and_leaf_time():
    spans = [
        _span(JOB, 0, 100, -1),
        _span("a", 10, 60, 0, leaf={"leaf": (2, 3)}),
        _span("b", 20, 40, 1, leaf={"leaf": (4, 5)}),
        _span("a", 70, 90, 0),
        _span(JOB, 200, 210, -1),
    ]
    stats, wall_ns = rollup(spans)
    assert wall_ns == 110
    # a: (50 - 20 child - 3 leaf) + 20
    assert (stats["a"].calls, stats["a"].self_ns) == (2, 47)
    assert (stats["b"].calls, stats["b"].self_ns) == (1, 15)
    assert (stats["leaf"].calls, stats["leaf"].self_ns) == (6, 8)
    assert (stats[JOB].calls, stats[JOB].self_ns) == (2, 40)
    assert sum(s.self_ns for s in stats.values()) == wall_ns


@pytest.mark.parametrize(
    "n, value, percentile",
    [(11, 1, 100 / 11), (20, 10, 50.0), (40, 30, 75.0), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, value, percentile):
    samples = list(range(n, 0, -1))
    assert tail_percentile(samples) == (value, pytest.approx(percentile), n)


def test_tail_percentile_needs_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


def _current_targets():
    found = {}
    for layer in LAYERS:
        for target in layer.targets:
            owner, attr = _resolve(target)
            found[target] = vars(owner)[attr]
    return found


def test_installed_wraps_every_target_and_restores_it():
    originals = _current_targets()
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            wrapped = _current_targets()
            assert all(wrapped[t] is not originals[t] for t in originals)
            raise RuntimeError("boom")
    restored = _current_targets()
    assert all(restored[t] is originals[t] for t in originals)


def test_spans_are_recorded_only_inside_a_job():
    import repro.designs

    design = repro.designs.design1()
    tracer = LayerTracer()
    with tracer.installed():
        design.copy()
        assert tracer.spans == []
        with tracer.job("j1"):
            design.copy()
    assert [(s.name, s.job, s.parent) for s in tracer.spans] == [
        (JOB, "j1", -1),
        ("netlist.copy", "j1", 0),
    ]


def test_decision_digest_covers_full_precision():
    payload = {
        "applied": [{"pass": "isolation", "target": "mul0"}],
        "power_mw": {"before": 2.0, "after": 1.5},
        "area_um2": {"before": 100.0, "after": 110.0},
        "slack_ns": {"before": 1.0, "after": 0.5},
    }
    moved = json.loads(json.dumps(payload))
    moved["power_mw"]["after"] = 1.5000000000000002
    assert decision_digest(payload) != decision_digest(moved)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.per_layer_metrics()
    )
