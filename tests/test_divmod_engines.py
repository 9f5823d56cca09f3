"""Cross-engine regression lock on the divmod div-by-zero contract.

The reference cell (netlist/arith.py) defines division by zero as
all-ones quotient and dividend-passthrough remainder, both clipped to
their output widths. The compiled engine lowers that contract into
generated Python — two implementations of one convention, held together
here on directed zero-divisor vectors, ragged output widths, and
randomized streams.
"""

from __future__ import annotations

import pytest

from repro.netlist.arith import Divider
from repro.netlist.builder import DesignBuilder
from repro.netlist.design import Design
from repro.netlist.ports import PrimaryInput, PrimaryOutput
from repro.sim import SequenceStimulus, ToggleMonitor, make_simulator, random_stimulus

ENGINES = ("python", "compiled")


def divmod_design(width=8, yw=None, rw=None):
    """PIs X, D -> divider -> POs Q (width ``yw``), M (width ``rw``)."""
    yw = width if yw is None else yw
    rw = width if rw is None else rw
    d = Design(f"divzero_{width}_{yw}_{rw}")
    x = d.add_net("x", width)
    b = d.add_net("b", width)
    q = d.add_net("q", yw)
    m = d.add_net("m", rw)
    for name, net in (("X", x), ("D", b)):
        pi = d.add_cell(PrimaryInput(name))
        d.connect(pi, "Y", net)
    div = d.add_cell(Divider("div0"))
    d.connect(div, "A", x)
    d.connect(div, "B", b)
    d.connect(div, "Y", q)
    d.connect(div, "R", m)
    for name, net in (("Q", q), ("M", m)):
        po = d.add_cell(PrimaryOutput(name))
        d.connect(po, "A", net)
    return d


def expected(a, b, width, yw, rw):
    if b == 0:
        return (1 << yw) - 1, a & ((1 << rw) - 1)
    return (a // b) & ((1 << yw) - 1), (a % b) & ((1 << rw) - 1)


DIRECTED = [
    # (A, B) — every div-by-zero shape plus ordinary divisions around it
    (23, 0),
    (0, 0),
    (255, 0),
    (23, 5),
    (0, 7),
    (255, 1),
    (1, 255),
    (128, 0),
    (77, 0),
    (200, 13),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "width,yw,rw",
    [(8, 8, 8), (11, 13, 7), (4, 9, 2)],
    ids=["even", "wide_q_narrow_r", "tiny"],
)
def test_div_by_zero_contract(engine, width, yw, rw):
    """Each engine matches the documented contract cycle for cycle."""
    design = divmod_design(width, yw=yw, rw=rw)
    mask = (1 << width) - 1
    sim = make_simulator(design, engine)
    assert sim.fallback_reason is None
    q_net, m_net = design.net("q"), design.net("m")
    for a, b in DIRECTED:
        values = sim.step({"X": a & mask, "D": b & mask})
        want_q, want_m = expected(a & mask, b & mask, width, yw, rw)
        assert values[q_net] == want_q, (engine, a, b)
        assert values[m_net] == want_m, (engine, a, b)
        sim.commit()


@pytest.mark.parametrize(
    "width,yw,rw",
    [(8, 8, 8), (11, 13, 7)],
    ids=["even", "ragged"],
)
def test_div_by_zero_differential_stats(width, yw, rw):
    """Toggle/ones counts are byte-identical across both engines.

    The stimulus interleaves random vectors with forced zero divisors so
    the div-by-zero path toggles in and out — the pattern most likely to
    expose a divergence in saturation or passthrough handling.
    """
    import random

    rng = random.Random(99)
    mask = (1 << width) - 1
    vectors = []
    for i in range(80):
        b = 0 if i % 3 == 0 else rng.randrange(mask + 1)
        vectors.append({"X": rng.randrange(mask + 1), "D": b})
    design = divmod_design(width, yw=yw, rw=rw)

    def stats(engine):
        monitor = ToggleMonitor()
        sim = make_simulator(design, engine)
        assert sim.fallback_reason is None
        sim.run(SequenceStimulus(vectors), len(vectors), monitors=[monitor])
        return (
            {net.name: count for net, count in monitor.toggles.items()},
            {net.name: count for net, count in monitor.ones.items()},
        )

    assert stats("compiled") == stats("python")


def test_div_by_zero_through_registers_random():
    """Random streams with a zero-biased divisor agree across engines,
    including downstream register state."""
    b = DesignBuilder("divreg")
    x = b.input("X", 8)
    y = b.input("Y", 8)
    en = b.input("EN", 1)
    q, r = b.divmod_(x, y, name="div0")
    b.output(b.register(q, enable=en, name="r_q"), "Q")
    b.output(b.register(r, enable=en, name="r_r"), "R")
    design = b.build()

    def stats(engine):
        monitor = ToggleMonitor()
        sim = make_simulator(design, engine)
        assert sim.fallback_reason is None
        # data_toggle_density=1.0 resamples Y every cycle, hitting zero
        # roughly every 256 cycles over the long run.
        sim.run(
            random_stimulus(design, seed=5, data_toggle_density=1.0),
            400,
            monitors=[monitor],
            warmup=4,
        )
        return (
            {net.name: count for net, count in monitor.toggles.items()},
            dict(sim.state_items()),
        )

    assert stats("compiled") == stats("python")
