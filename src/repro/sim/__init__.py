"""Cycle-based RTL simulation with switching-activity measurement.

The simulator evaluates a design one clock cycle at a time: primary
inputs are driven from a stimulus, combinational cells settle in
topological order, monitors observe the settled net values, and
registers/latches commit their next state. Monitors accumulate exactly
the statistics the paper's models consume:

* per-net toggle counts and rates (:class:`~repro.sim.monitor.ToggleMonitor`),
* signal/joint probabilities of Boolean expressions over control nets
  (:class:`~repro.sim.probes.ExpressionProbe`),
* toggle counts conditioned on an expression
  (:class:`~repro.sim.monitor.ConditionalToggleMonitor`).
"""

from repro.sim.engine import SimulationResult, Simulator, make_simulator, simulate
from repro.sim.checked import CheckedSimulator, EngineDivergence
from repro.sim.compile import (
    CompiledProgram,
    CompiledSimulator,
    ProgramCache,
    compile_design,
    design_structure_hash,
    program_cache,
)
from repro.sim.stimulus import (
    BurstyDataStream,
    CompositeStimulus,
    ControlStream,
    CorrelatedDataStream,
    DataStream,
    STIMULUS_PROFILES,
    SequenceStimulus,
    Stimulus,
    make_profile,
    normalize_stimulus_spec,
    profile_names,
    random_stimulus,
    register_profile,
    resolve_stimulus_spec,
    stimulus_fingerprint,
)
from repro.sim.vcd import VcdMonitor, VcdStimulus, VcdTrace, load_vcd, read_vcd
from repro.sim.monitor import ConditionalToggleMonitor, Monitor, ToggleMonitor
from repro.sim.probes import ExpressionProbe, ProbeSet
from repro.sim.trace import NetTrace
from repro.sim.batch import (
    BatchCheckpoint,
    BatchControlStream,
    BatchDataStream,
    BatchProbe,
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    BroadcastStimulus,
)

__all__ = [
    "Simulator",
    "SimulationResult",
    "simulate",
    "make_simulator",
    "CheckedSimulator",
    "EngineDivergence",
    "CompiledSimulator",
    "CompiledProgram",
    "ProgramCache",
    "compile_design",
    "design_structure_hash",
    "program_cache",
    "Stimulus",
    "ControlStream",
    "DataStream",
    "BurstyDataStream",
    "CorrelatedDataStream",
    "SequenceStimulus",
    "CompositeStimulus",
    "random_stimulus",
    "STIMULUS_PROFILES",
    "register_profile",
    "profile_names",
    "make_profile",
    "normalize_stimulus_spec",
    "resolve_stimulus_spec",
    "stimulus_fingerprint",
    "VcdMonitor",
    "VcdTrace",
    "VcdStimulus",
    "read_vcd",
    "load_vcd",
    "Monitor",
    "ToggleMonitor",
    "ConditionalToggleMonitor",
    "ExpressionProbe",
    "ProbeSet",
    "NetTrace",
    "BatchSimulator",
    "BatchCheckpoint",
    "BatchToggleMonitor",
    "BatchProbe",
    "BatchRandomStimulus",
    "BatchControlStream",
    "BatchDataStream",
    "BroadcastStimulus",
]
