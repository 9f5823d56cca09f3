"""Sample statistics and decision digests used by the benchmark runner."""

from __future__ import annotations

import hashlib
import json
from typing import List, Sequence, Tuple

#: A tail percentile is only reported with at least this many samples
#: beyond it; fewer and the value would rest on a handful of outliers.
TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile with ten samples beyond it.

    With ``n`` samples sorted ascending, the value at rank ``n - 10``
    (1-based) is the highest one that still has ten samples above it;
    its percentile is ``100 * (n - 10) / n``. With ``n <= 10`` no
    percentile qualifies: the maximum is returned with percentile 100,
    so the printed percentile and ``n`` show that the rule was not met.
    """
    if not samples:
        raise ValueError("tail_percentile() needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def decision_digest(payload: dict) -> str:
    """sha256 over what one ``optimize`` job decided and measured.

    ``payload`` is the ``OptimizeResult.to_dict()`` form (sweep points
    store exactly that, minus timings). The digest covers the applied
    transforms in order, plus baseline and final power, area and slack.
    ``json.dumps`` writes floats with ``repr``, so every digit counts.
    """
    record = {
        "applied": payload["applied"],
        "power_mw": [payload["power_mw"]["before"], payload["power_mw"]["after"]],
        "area_um2": [payload["area_um2"]["before"], payload["area_um2"]["after"]],
        "slack_ns": [payload["slack_ns"]["before"], payload["slack_ns"]["after"]],
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combined_digest(digests: List[str]) -> str:
    """One digest for a workload: its distinct jobs' digests in job order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def accept_counts(payload: dict) -> Tuple[int, int]:
    """``(applied transforms, candidate scores)`` of one job payload."""
    scored = sum(
        len(scores)
        for iteration in payload["iterations"]
        for scores in iteration["scores"].values()
    )
    return len(payload["applied"]), scored
