"""Fault-injection campaign: every fault is caught or provably benign."""

import os

import pytest

from repro.designs import design1, design2, fir_datapath, paper_example
from repro.diagnostics import Diagnostic
from repro.errors import EquivalenceError, FaultInjectionError, IsolationError, ReproError
from repro.netlist.validate import validate_design, validation_problems
from repro.verify import faults as faults_mod
from repro.verify.faults import (
    DETECTORS,
    FAULT_KINDS,
    CampaignReport,
    FaultOutcome,
    FaultSpec,
    campaign_diagnostics,
    enumerate_faults,
    evaluate_fault,
    inject_fault,
    run_campaign,
)


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def test_enumeration_is_deterministic():
    a = enumerate_faults(design1())
    b = enumerate_faults(design1())
    assert a == b
    assert a, "expected at least one enumerated fault"


def test_enumeration_covers_all_kinds_on_design1():
    kinds = {spec.kind for spec in enumerate_faults(design1())}
    assert kinds == set(FAULT_KINDS)


def test_enumeration_respects_per_kind():
    specs = enumerate_faults(design1(), per_kind=1)
    per_kind = {}
    for spec in specs:
        per_kind[spec.kind] = per_kind.get(spec.kind, 0) + 1
    assert all(count == 1 for count in per_kind.values())


# ----------------------------------------------------------------------
# Injection
# ----------------------------------------------------------------------
def test_injection_never_touches_the_original():
    design = design1()
    before = design.stats()
    for spec in enumerate_faults(design):
        inject_fault(design, spec)
    assert design.stats() == before
    validate_design(design)  # still pristine


def test_unknown_kind_is_injector_misuse():
    with pytest.raises(FaultInjectionError):
        inject_fault(design1(), FaultSpec("teleport-net"))


def test_disconnect_pin_caught_by_validation():
    design = design1()
    spec = next(
        s for s in enumerate_faults(design) if s.kind == "disconnect-pin"
    )
    outcome = evaluate_fault(design, spec, cycles=50)
    assert outcome.detected_by == "validation"
    assert "unconnected" in outcome.detail or "no driver" in outcome.detail


def test_corrupt_width_caught_by_validation():
    design = design1()
    spec = next(s for s in enumerate_faults(design) if s.kind == "corrupt-width")
    faulted = inject_fault(design, spec)
    codes = {p.code for p in validation_problems(faulted, allow_dangling=True)}
    assert "width-mismatch" in codes


def test_comb_loop_caught_by_validation():
    design = design1()
    spec = next(s for s in enumerate_faults(design) if s.kind == "comb-loop")
    faulted = inject_fault(design, spec)
    codes = {p.code for p in validation_problems(faulted, allow_dangling=True)}
    assert "comb-loop" in codes


def test_stuck_at_caught_by_equivalence():
    design = design1()
    specs = [s for s in enumerate_faults(design) if s.kind.startswith("stuck-at")]
    assert specs
    outcomes = [evaluate_fault(design, s, cycles=200) for s in specs]
    assert all(not o.silent for o in outcomes)
    assert any(o.detected_by == "equivalence" for o in outcomes)


def test_activation_flip_is_never_silent():
    design = design2()
    specs = [s for s in enumerate_faults(design) if s.kind == "activation-flip"]
    assert specs
    for spec in specs:
        outcome = evaluate_fault(design, spec, cycles=200)
        assert not outcome.silent, str(outcome)


def test_constant_true_activation_rejected_typed():
    # Flipping can drive an activation to constant TRUE; the isolation
    # transform must reject that with a typed IsolationError.
    from repro.boolean.expr import TRUE
    from repro.core.isolate import isolate_candidate

    design = design1()
    module = design.datapath_modules[0]
    with pytest.raises(IsolationError):
        isolate_candidate(design, module, TRUE)


# ----------------------------------------------------------------------
# Outcome taxonomy
# ----------------------------------------------------------------------
def test_untyped_exception_is_classified_silent(monkeypatch):
    design = paper_example()

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic untyped crash")

    monkeypatch.setattr(faults_mod, "check_observable_equivalence", explode)
    spec = next(
        s for s in enumerate_faults(design) if s.kind.startswith("stuck-at")
    )
    outcome = evaluate_fault(design, spec, cycles=20)
    assert outcome.silent
    assert "untyped RuntimeError" in outcome.detail
    assert "SILENT" in str(outcome)


def test_typed_error_during_cosim_is_detected(monkeypatch):
    design = paper_example()

    def typed(*args, **kwargs):
        raise EquivalenceError("synthetic typed failure")

    monkeypatch.setattr(faults_mod, "check_observable_equivalence", typed)
    spec = next(
        s for s in enumerate_faults(design) if s.kind.startswith("stuck-at")
    )
    outcome = evaluate_fault(design, spec, cycles=20)
    assert outcome.detected_by == "typed-error"


def test_outcome_properties():
    spec = FaultSpec("stuck-at-1", net="EN", value=1)
    assert "stuck-at-1" in spec.describe() and "EN" in spec.describe()
    detected = FaultOutcome(spec, detected_by="equivalence", detail="x")
    masked = FaultOutcome(spec, masked=True)
    silent = FaultOutcome(spec)
    assert not detected.silent and not masked.silent and silent.silent
    report = CampaignReport("d", [detected, masked, silent])
    assert report.detected == [detected]
    assert report.masked == [masked]
    assert report.silent == [silent]
    assert report.detection_rate == 0.5  # 1 detected of 2 non-masked
    assert "SILENT" in report.summary()


def test_campaign_diagnostics_render_silent_faults():
    spec = FaultSpec("stuck-at-0", net="EN", value=0)
    report = CampaignReport("d", [FaultOutcome(spec)])
    diags = campaign_diagnostics(report)
    assert len(diags) == 1
    assert isinstance(diags[0], Diagnostic)
    assert diags[0].code == "silent-fault"
    assert diags[0].severity == "error"
    clean = CampaignReport("d", [FaultOutcome(spec, detected_by="validation")])
    assert campaign_diagnostics(clean) == []


# ----------------------------------------------------------------------
# The acceptance bar: zero silent faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("maker", [paper_example, design1, fir_datapath])
def test_campaign_zero_silent_fast(maker):
    report = run_campaign(maker(), per_kind=1, cycles=150)
    assert report.outcomes, "campaign must exercise at least one fault"
    assert report.silent == [], report.summary()
    assert report.detection_rate == 1.0


@pytest.mark.parametrize("maker", [paper_example, design1, fir_datapath])
def test_campaign_zero_silent_compiled(maker):
    """The generated engine qualifies under the same taxonomy."""
    report = run_campaign(maker(), per_kind=1, cycles=80, engine="compiled")
    assert report.outcomes, "campaign must exercise at least one fault"
    assert report.silent == [], report.summary()


@pytest.mark.campaign
@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_CAMPAIGN"),
    reason="full campaign is CI-only (set REPRO_FULL_CAMPAIGN=1)",
)
def test_campaign_zero_silent_all_designs():
    import repro.designs as designs

    makers = [
        designs.paper_example,
        designs.design1,
        designs.design2,
        designs.fir_datapath,
        designs.alu_control_dominated,
        designs.shared_bus_datapath,
        designs.lookahead_pipeline,
        designs.correlated_chain,
        designs.cordic_pipeline,
        designs.soc_datapath,
    ]
    for maker in makers:
        report = run_campaign(maker(), per_kind=2, cycles=300)
        assert report.outcomes, maker.__name__
        assert report.silent == [], report.summary()
        assert report.detection_rate == 1.0, report.summary()
