"""The differential oracle: identity sanity, envelopes, leg separation.

The central property (hypothesis-checked): with **no fault injected**
the oracle must report exactly zero deviation for any valid pipeline
programming and any probe seed — the three legs are then the same
computation, so this pins the oracle's plumbing itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pcam_cell import PCAMParams
from repro.core.pcam_pipeline import BATCH_COMPOSITIONS, PCAMPipeline
from repro.robustness.injector import FaultInjector
from repro.robustness.models import StuckAtFault, TransientReadNoise
from repro.robustness.oracle import (
    DegradationEnvelope,
    DeviationReport,
    DifferentialOracle,
    EnvelopeViolation,
)


@st.composite
def canonical_params(draw):
    m1 = draw(st.floats(-5.0, 5.0, allow_nan=False))
    gaps = [draw(st.floats(0.01, 3.0)) for _ in range(3)]
    return PCAMParams.canonical(m1, m1 + gaps[0], m1 + gaps[0] + gaps[1],
                                m1 + sum(gaps))


def make_pipeline(composition="product"):
    return PCAMPipeline.from_params(
        {"a": PCAMParams.canonical(0.0, 1.0, 2.0, 3.0),
         "b": PCAMParams.canonical(-1.0, 0.0, 1.0, 2.0)},
        composition=composition)


# ----------------------------------------------------------------------
# Identity sanity (hypothesis): fault-free => exactly zero deviation
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       composition=st.sampled_from(sorted(BATCH_COMPOSITIONS)))
def test_fault_free_pipeline_reports_zero_deviation(data, seed,
                                                    composition):
    params = {name: data.draw(canonical_params()) for name in ("a", "b")}
    pipeline = PCAMPipeline.from_params(params, composition=composition)
    oracle = DifferentialOracle.from_intended(pipeline)
    probes = oracle.probe_grid(32, np.random.default_rng(seed))
    report = oracle.compare(pipeline, probes)
    assert report.n_probes == 32
    assert report.mean_abs_error == 0.0
    assert report.bias == 0.0
    assert report.max_abs_error == 0.0
    assert report.rmse == 0.0
    assert report.scalar_batch_max_diff <= 1e-9
    assert report.within(DegradationEnvelope())
    assert report.violations(DegradationEnvelope()) == []


# ----------------------------------------------------------------------
# Envelope mechanics
# ----------------------------------------------------------------------
def test_stuck_fault_breaks_envelope_and_check_raises():
    pipeline = make_pipeline()
    oracle = DifferentialOracle.from_intended(
        pipeline, DegradationEnvelope(max_mean_abs_error=0.01,
                                      max_abs_bias=0.01))
    probes = oracle.probe_grid(64, np.random.default_rng(0))
    FaultInjector(StuckAtFault(state="lrs"),
                  rng=np.random.default_rng(1)).inject_pipeline(pipeline)
    report = oracle.compare(pipeline, probes)
    assert report.mean_abs_error > 0.01
    assert not report.within(oracle.envelope)
    with pytest.raises(EnvelopeViolation) as excinfo:
        oracle.check(pipeline, probes)
    assert excinfo.value.report == report
    assert excinfo.value.violations
    assert "mean abs error" in str(excinfo.value)


def test_violation_is_an_assertion_error():
    # So plain pytest machinery treats envelope breaks as failures.
    assert issubclass(EnvelopeViolation, AssertionError)


def test_envelope_bounds_validated():
    with pytest.raises(ValueError):
        DegradationEnvelope(max_abs_bias=-0.1)


def test_report_violation_strings_name_each_bound():
    report = DeviationReport(n_probes=4, mean_abs_error=0.5, bias=-0.4,
                             max_abs_error=0.9, rmse=0.6,
                             scalar_batch_max_diff=0.0)
    envelope = DegradationEnvelope(max_mean_abs_error=0.1,
                                   max_abs_bias=0.1, max_abs_error=0.5)
    violations = report.violations(envelope)
    assert len(violations) == 3


# ----------------------------------------------------------------------
# Reference construction and probe grids
# ----------------------------------------------------------------------
def test_from_intended_ignores_injected_faults():
    pipeline = make_pipeline()
    clean = DifferentialOracle.from_intended(pipeline)
    FaultInjector(StuckAtFault(state="lrs"),
                  rng=np.random.default_rng(2)).inject_pipeline(pipeline)
    after = DifferentialOracle.from_intended(pipeline)
    probes = clean.probe_grid(32, np.random.default_rng(3))
    np.testing.assert_array_equal(
        clean.reference.evaluate_batch(probes),
        after.reference.evaluate_batch(probes))


def test_probe_grid_is_seeded_and_covers_active_region():
    oracle = DifferentialOracle.from_intended(make_pipeline())
    a = oracle.probe_grid(128, np.random.default_rng(5))
    b = oracle.probe_grid(128, np.random.default_rng(5))
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    # margin=0.25 around [m1, m4] = [0, 3] for stage "a"
    assert a["a"].min() >= 0.0 - 0.25 * 3.0
    assert a["a"].max() <= 3.0 + 0.25 * 3.0
    with pytest.raises(ValueError):
        oracle.probe_grid(0, np.random.default_rng(0))


def test_noise_deviation_reported_but_legs_stay_separated():
    """Read noise shows up as degradation, never as a batch-scalar
    disagreement — the oracle keeps the two failure classes apart."""
    pipeline = make_pipeline()
    oracle = DifferentialOracle.from_intended(pipeline)
    probes = oracle.probe_grid(64, np.random.default_rng(6))
    FaultInjector(TransientReadNoise(sigma=0.05),
                  rng=np.random.default_rng(7)).inject_pipeline(pipeline)
    report = oracle.compare(pipeline, probes)
    assert report.mean_abs_error > 0.0
    assert report.scalar_batch_max_diff <= 1e-9
