"""Bit-exactness of the compiled engine against the reference engine.

Every benchmark generator in :mod:`repro.designs` (including
``soc_datapath`` and several ``random_datapath`` seeds) is simulated by
both engines cycle-by-cycle and compared on every net — before and
after the isolation transform — plus monitor-statistic equality, the
``simulate``/``estimate_power``/``BatchSimulator`` engine plumbing, and
hypothesis-generated random netlists in scalar and batch form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.designs as designs
from repro.core.candidates import find_candidates
from repro.core.isolate import deisolate_candidate, isolate_candidate
from repro.errors import SimulationError
from repro.power import estimate_power
from repro.runconfig import RunConfig
from repro.sim import (
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    CompiledSimulator,
    ProbeSet,
    Simulator,
    ToggleMonitor,
    make_simulator,
    random_stimulus,
    simulate,
)

GENERATORS = [
    "paper_example",
    "design1",
    "design2",
    "fir_datapath",
    "alu_control_dominated",
    "shared_bus_datapath",
    "lookahead_pipeline",
    "correlated_chain",
    "cordic_pipeline",
    "soc_datapath",
]

RANDOM_SEEDS = [0, 1, 5, 11]


def assert_equivalent(reference_design, compiled_design, cycles=120, seed=7):
    """Step both engines in lockstep and compare every net every cycle."""
    ref_stim = random_stimulus(reference_design, seed=seed)
    comp_stim = random_stimulus(compiled_design, seed=seed)
    reference = Simulator(reference_design)
    compiled = CompiledSimulator(compiled_design)
    for cycle in range(cycles):
        ref_values = reference.step(ref_stim.values(reference.cycle))
        comp_values = compiled.step(comp_stim.values(compiled.cycle))
        by_name_ref = {net.name: value for net, value in ref_values.items()}
        by_name_comp = {
            net.name: comp_values[net] for net in compiled_design.nets
        }
        assert by_name_ref == by_name_comp, (
            f"cycle {cycle}: "
            + str({
                name: (by_name_ref[name], by_name_comp.get(name))
                for name in by_name_ref
                if by_name_ref[name] != by_name_comp.get(name)
            })
        )
        reference.commit()
        compiled.commit()


class TestBitExactness:
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_every_generator(self, generator):
        maker = getattr(designs, generator)
        assert_equivalent(maker(), maker())

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_datapath_seeds(self, seed):
        assert_equivalent(
            designs.random_datapath(seed=seed), designs.random_datapath(seed=seed)
        )

    @pytest.mark.parametrize("style", ["and", "or", "latch"])
    def test_after_isolation(self, style):
        ref = designs.design1()
        comp = designs.design1()
        for design in (ref, comp):
            candidate = find_candidates(design)[0]
            isolate_candidate(design, candidate.cell, candidate.activation, style)
        assert_equivalent(ref, comp)

    def test_after_deisolation(self):
        ref = designs.design1()
        comp = designs.design1()
        candidate = find_candidates(comp)[0]
        instance = isolate_candidate(
            comp, candidate.cell, candidate.activation, "and"
        )
        deisolate_candidate(comp, instance)
        assert_equivalent(ref, comp)


class TestMonitorEquivalence:
    @pytest.mark.parametrize("cycles,warmup", [(1, 0), (300, 16), (257, 0)])
    def test_toggle_monitor_statistics(self, cycles, warmup):
        d_ref, d_comp = designs.design1(), designs.design1()
        mon_ref, mon_comp = ToggleMonitor(), ToggleMonitor()
        Simulator(d_ref).run(
            random_stimulus(d_ref, seed=5), cycles, [mon_ref], warmup=warmup
        )
        CompiledSimulator(d_comp).run(
            random_stimulus(d_comp, seed=5), cycles, [mon_comp], warmup=warmup
        )
        assert mon_ref.cycles == mon_comp.cycles
        for net_ref in d_ref.nets:
            net_comp = d_comp.net(net_ref.name)
            assert mon_ref.toggles[net_ref] == mon_comp.toggles[net_comp]
            assert mon_ref.ones[net_ref] == mon_comp.ones[net_comp]
            assert mon_ref.toggle_rate(net_ref) == mon_comp.toggle_rate(net_comp)
            assert mon_ref.one_probability(net_ref) == mon_comp.one_probability(
                net_comp
            )

    def test_probe_set_statistics(self):
        d_ref, d_comp = designs.paper_example(), designs.paper_example()
        from repro.boolean import var

        probes_ref = ProbeSet({"g0": var("G0")})
        probes_comp = ProbeSet({"g0": var("G0")})
        Simulator(d_ref).run(random_stimulus(d_ref, seed=3), 200, [probes_ref])
        CompiledSimulator(d_comp).run(
            random_stimulus(d_comp, seed=3), 200, [probes_comp]
        )
        assert probes_ref.probability("g0") == probes_comp.probability("g0")


class TestEnginePlumbing:
    def test_simulate_engine_kwarg(self, d1):
        result = simulate(d1, random_stimulus(d1, seed=2), 50, engine="compiled")
        assert result.cycles == 50

    def test_make_simulator(self, d1):
        assert isinstance(make_simulator(d1, "python"), Simulator)
        assert isinstance(make_simulator(d1, "compiled"), CompiledSimulator)
        with pytest.raises(SimulationError):
            make_simulator(d1, "verilator")

    def test_estimate_power_engines_agree(self, d1):
        run = RunConfig(cycles=400)
        py = estimate_power(d1, random_stimulus(d1, seed=4), run=run)
        comp = estimate_power(
            d1, random_stimulus(d1, seed=4), run=run, engine="compiled"
        )
        assert py.total_power_mw == pytest.approx(comp.total_power_mw, abs=1e-12)

    def test_stimulus_missing_input_message(self, d1):
        compiled = CompiledSimulator(d1)
        with pytest.raises(SimulationError, match="provides no value"):
            compiled.step({})

    def test_reset_restores_power_on_state(self, d1):
        compiled = CompiledSimulator(d1)
        stim = random_stimulus(d1, seed=1)
        initial = {net.name: compiled.values[net] for net in d1.nets}
        for _ in range(20):
            compiled.step(stim.values(compiled.cycle))
            compiled.commit()
        compiled.reset()
        assert compiled.cycle == 0
        assert {net.name: compiled.values[net] for net in d1.nets} == initial


class TestBatchCompiledEngine:
    @pytest.mark.parametrize("generator", ["design1", "soc_datapath"])
    def test_batch_engines_agree(self, generator):
        maker = getattr(designs, generator)
        d_ref, d_comp = maker(), maker()
        stim_ref = BatchRandomStimulus(d_ref, batch_size=8, seed=4)
        stim_comp = BatchRandomStimulus(d_comp, batch_size=8, seed=4)
        ref = BatchSimulator(d_ref, batch_size=8)
        comp = BatchSimulator(d_comp, batch_size=8, engine="compiled")
        for _ in range(80):
            ref_values = ref.step(stim_ref.values(ref.cycle))
            comp_values = comp.step(stim_comp.values(comp.cycle))
            for net_ref in d_ref.nets:
                assert np.array_equal(
                    ref_values[net_ref], comp_values[d_comp.net(net_ref.name)]
                ), net_ref.name
            ref.commit()
            comp.commit()

    def test_batch_rejects_unknown_engine(self, d1):
        with pytest.raises(SimulationError):
            BatchSimulator(d1, engine="verilator")


# ----------------------------------------------------------------------
# Hypothesis: random netlists (random_datapath's generator space) and
# random stimulus seeds, scalar and batch
# ----------------------------------------------------------------------
def _scalar_stats(design, engine, seed, cycles=60, warmup=6):
    monitor = ToggleMonitor()
    sim = make_simulator(design, engine)
    assert sim.fallback_reason is None
    sim.run(random_stimulus(design, seed=seed), cycles, monitors=[monitor],
            warmup=warmup)
    return (
        {net.name: count for net, count in monitor.toggles.items()},
        {net.name: count for net, count in monitor.ones.items()},
        dict(sim.state_items()),
    )


@settings(max_examples=12, deadline=None)
@given(
    design_seed=st.integers(min_value=0, max_value=2**16),
    stim_seed=st.integers(min_value=0, max_value=2**16),
    layers=st.integers(min_value=1, max_value=3),
    width=st.integers(min_value=2, max_value=12),
    registered=st.booleans(),
)
def test_random_netlists_scalar_equivalence(
    design_seed, stim_seed, layers, width, registered
):
    design = designs.random_datapath(
        seed=design_seed,
        layers=layers,
        modules_per_layer=2,
        width=width,
        registered_controls=registered,
    )
    assert _scalar_stats(design, "compiled", stim_seed) == _scalar_stats(
        design, "python", stim_seed
    )


@settings(max_examples=6, deadline=None)
@given(
    design_seed=st.integers(min_value=0, max_value=2**16),
    stim_seed=st.integers(min_value=0, max_value=2**16),
    batch=st.integers(min_value=1, max_value=30),
)
def test_random_netlists_batch_equivalence(design_seed, stim_seed, batch):
    design = designs.random_datapath(seed=design_seed, layers=2, modules_per_layer=2)
    monitors = {}
    for engine in ("python", "compiled"):
        monitors[engine] = BatchToggleMonitor()
        BatchSimulator(design, batch_size=batch, engine=engine).run(
            BatchRandomStimulus(design, batch, seed=stim_seed), 30,
            monitors=[monitors[engine]], warmup=3,
        )
    for net in monitors["python"].toggles:
        np.testing.assert_array_equal(
            monitors["python"].toggles[net],
            monitors["compiled"].toggles[net],
            err_msg=net.name,
        )
