"""VCD import: parser unit tests and writer→reader round trips.

The contract under test is inversion: a waveform recorded by
:class:`VcdMonitor` during one run, read back with :func:`read_vcd` and
replayed through :class:`VcdStimulus`, must reproduce the original run
*bit-exactly* — every net, every cycle, on every engine. The round-trip
tests assert that by comparing the replayed run's own VCD dump against
the original text byte for byte.
"""

import pytest

from repro.designs import design1, fir_datapath, paper_example
from repro.errors import StimulusError
from repro.sim.engine import simulate
from repro.sim.stimulus import random_stimulus
from repro.sim.vcd import VcdMonitor, VcdStimulus, VcdTrace, read_vcd


def record_vcd(design, cycles=40, seed=3, engine="python"):
    monitor = VcdMonitor()
    simulate(
        design,
        random_stimulus(design, seed=seed),
        cycles,
        monitors=[monitor],
        engine=engine,
    )
    return monitor.dumps()


class TestReadVcd:
    def test_widths_and_cycles(self, tiny_design):
        trace = read_vcd(record_vcd(tiny_design, cycles=10))
        assert trace.cycles == 10
        assert trace.width("A") == 8
        # The synthesized 1-bit clk is bookkeeping, not a signal.
        assert "clk" not in trace.signals
        assert set(trace.signals) == {n.name for n in tiny_design.nets}

    def test_values_sample_and_hold(self):
        text = "\n".join(
            [
                "$timescale 1 ns $end",
                "$scope module t $end",
                "$var wire 4 ! D $end",
                "$upscope $end",
                "$enddefinitions $end",
                "$dumpvars",
                "b0 !",
                "$end",
                "#2",
                "b101 !",
                "#8",
            ]
        )
        trace = read_vcd(text)
        # No clk declared, no even spacing hint: 1 time unit per cycle.
        assert trace.cycles == 8
        assert trace.values("D") == [0, 0, 5, 5, 5, 5, 5, 5]

    def test_explicit_time_per_cycle(self):
        text = "\n".join(
            [
                "$var wire 2 ! D $end",
                "$enddefinitions $end",
                "#0",
                "b1 !",
                "#4",
                "b10 !",
                "#8",
            ]
        )
        trace = read_vcd(text, time_per_cycle=4)
        assert trace.cycles == 2
        assert trace.values("D") == [1, 2]

    def test_x_and_z_collapse_to_zero(self):
        text = "\n".join(
            [
                "$var wire 1 ! s $end",
                "$var wire 4 \" D $end",
                "$enddefinitions $end",
                "#0",
                "x!",
                'bxz10 "',
                "#1",
            ]
        )
        trace = read_vcd(text)
        assert trace.values("s") == [0]
        assert trace.values("D") == [0b0010]

    def test_scoped_names_qualified_on_collision(self):
        text = "\n".join(
            [
                "$scope module top $end",
                "$var wire 1 ! D $end",
                "$scope module sub $end",
                "$var wire 1 \" D $end",
                "$upscope $end",
                "$upscope $end",
                "$enddefinitions $end",
                "#0",
                "1!",
                "0\"",
                "#1",
            ]
        )
        trace = read_vcd(text)
        assert trace.values("D") == [1]
        assert trace.values("sub.D") == [0]

    def test_real_values_rejected(self):
        text = "\n".join(
            [
                "$var real 64 ! R $end",
                "$enddefinitions $end",
                "#0",
                "r1.25 !",
                "#1",
            ]
        )
        with pytest.raises(StimulusError):
            read_vcd(text)

    def test_unknown_id_code_rejected(self):
        text = "\n".join(
            [
                "$var wire 1 ! D $end",
                "$enddefinitions $end",
                "#0",
                "1?",
                "#1",
            ]
        )
        with pytest.raises(StimulusError):
            read_vcd(text)

    def test_empty_vcd_rejected(self):
        with pytest.raises(StimulusError):
            read_vcd("$enddefinitions $end\n")

    def test_vectors_merge_per_cycle(self, tiny_design):
        trace = read_vcd(record_vcd(tiny_design, cycles=6))
        vectors = trace.vectors(names=["A", "C"])
        assert len(vectors) == 6
        assert all(set(v) == {"A", "C"} for v in vectors)
        assert vectors[0]["A"] == trace.values("A")[0]


class TestVcdStimulus:
    def test_missing_input_named_in_error(self, tiny_design):
        trace = VcdTrace(widths={"A": 8}, changes={"A": [(0, 1)]}, cycles=2)
        with pytest.raises(StimulusError, match="C"):
            VcdStimulus(trace, tiny_design)

    def test_width_mismatch_rejected(self, tiny_design):
        widths = {"A": 4, "C": 8, "S": 1, "G": 1}
        trace = VcdTrace(
            widths=widths,
            changes={name: [(0, 0)] for name in widths},
            cycles=2,
        )
        with pytest.raises(StimulusError, match="wide"):
            VcdStimulus(trace, tiny_design)

    def test_rename_map(self, tiny_design):
        widths = {"a_in": 8, "c_in": 8, "sel": 1, "gate": 1}
        trace = VcdTrace(
            widths=widths,
            changes={name: [(0, 1)] for name in widths},
            cycles=3,
        )
        stim = VcdStimulus(
            trace,
            tiny_design,
            inputs={"A": "a_in", "C": "c_in", "S": "sel", "G": "gate"},
        )
        assert stim.values(0) == {"A": 1, "C": 1, "S": 1, "G": 1}

    def test_strict_run_past_end_raises(self, tiny_design):
        trace = read_vcd(record_vcd(tiny_design, cycles=4))
        stim = VcdStimulus(trace, tiny_design, strict=True)
        stim.values(3)
        with pytest.raises(StimulusError, match="cycle 4"):
            stim.values(4)

    def test_default_warns_and_holds_past_end(self, tiny_design):
        trace = read_vcd(record_vcd(tiny_design, cycles=4))
        stim = VcdStimulus(trace, tiny_design)
        with pytest.warns(RuntimeWarning, match="VCD trace"):
            held = stim.values(10)
        assert held == stim.values(3)

    def test_wrap_mode(self, tiny_design):
        trace = read_vcd(record_vcd(tiny_design, cycles=4))
        stim = VcdStimulus(trace, tiny_design, wrap=True)
        assert stim.values(5) == stim.values(1)


@pytest.mark.parametrize("engine", ["python", "compiled"])
@pytest.mark.parametrize(
    "maker", [paper_example, design1, fir_datapath], ids=["fig1", "design1", "fir"]
)
class TestRoundTrip:
    def test_replay_is_bit_exact(self, maker, engine):
        design = maker()
        original = record_vcd(design, cycles=32, engine=engine)
        trace = read_vcd(original)
        replay = VcdStimulus(trace, design)
        monitor = VcdMonitor()
        simulate(design, replay, trace.cycles, monitors=[monitor], engine=engine)
        assert monitor.dumps() == original

    def test_cross_engine_replay(self, maker, engine):
        # Record on the reference engine, replay on the parametrized one:
        # the trace is engine-neutral and engines are bit-exact peers.
        design = maker()
        original = record_vcd(design, cycles=24, engine="python")
        trace = read_vcd(original)
        monitor = VcdMonitor()
        simulate(
            design,
            VcdStimulus(trace, design),
            trace.cycles,
            monitors=[monitor],
            engine=engine,
        )
        assert monitor.dumps() == original
