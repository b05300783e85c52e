"""Numeric checks of the closed-form identities: two-form equality,
necessity of equal momentum parameters, mollifier and trust-region geometry."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adamlab.identities import (
    CompletionReport,
    ResidualReport,
    check_prop1,
    mollified_direction,
    prop2_condition,
    scalar_adam_trace,
    square_completion_margin,
    steepest_descent_minimizer,
    trust_radius,
)

BETA_GRID_ROWS = (0.8, 0.9, 0.95, 0.975, 0.9875)
BETA_GRID_COLS = (0.6, 0.8, 0.9, 0.95, 0.975, 0.9875, 0.99375, 0.996875)


def reference_trace(signal, beta: float) -> dict[str, np.ndarray]:
    """The 1-D scalar loop the column trace replaced, verbatim but for its first-sample branch."""
    signal = np.asarray(signal, dtype=float).ravel()
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal contains non-finite entries")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")

    n = signal.size
    m_arr = np.empty(n)
    v_arr = np.empty(n)
    delta_arr = np.empty(n)
    d_std = np.empty(n)
    d_var = np.empty(n)

    m = v = delta = 0.0
    for k, g in enumerate(signal):
        g = float(g)
        diff = m - g
        delta = beta * delta + beta * (1.0 - beta) * diff * diff
        m = beta * m + (1.0 - beta) * g
        v = beta * v + (1.0 - beta) * g * g
        m_arr[k] = m
        v_arr[k] = v
        delta_arr[k] = delta
        d_std[k] = m / math.sqrt(v) if v > 0 else 0.0
        inner = m * m + delta
        d_var[k] = m / math.sqrt(inner) if inner > 0 else 0.0
    return {"m": m_arr, "v": v_arr, "delta": delta_arr, "d_standard": d_std, "d_variance": d_var}


#: signals with exact zeros (the 0/0 -> 0 convention) and magnitudes over six decades
TRACE_SIGNALS = arrays(
    float,
    st.tuples(st.integers(1, 48), st.integers(1, 5)),
    elements=st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
)
TRACE_BETAS = st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.999]) | st.floats(0.0, 0.999)


class TestProp1:
    def test_standard_normal_signal(self):
        rng = np.random.default_rng(21)
        report = check_prop1(rng.standard_normal(1000), 0.95)
        assert report.direction.max_abs_residual <= 1e-9
        assert report.variance.max_abs_residual <= 1e-10
        assert report.passed

    def test_hand_recursion_two_steps(self):
        trace = scalar_adam_trace([1.0, -1.0], 0.5)
        assert trace["m"][1] == pytest.approx(-0.25)
        assert trace["v"][1] == pytest.approx(0.75)
        assert trace["delta"][1] == pytest.approx(0.6875)
        assert trace["v"][1] - trace["m"][1] ** 2 == pytest.approx(0.6875)

    def test_all_zero_prefix_uses_zero_convention(self):
        trace = scalar_adam_trace([0.0, 0.0, 1.0], 0.9)
        assert trace["d_standard"][0] == 0.0 and trace["d_variance"][0] == 0.0
        assert trace["d_standard"][2] != 0.0

    def test_report_invariant(self):
        report = ResidualReport.from_residuals("x", [1e-3, 5e-3], tolerance=1e-4)
        assert report.max_abs_residual == 5e-3
        assert report.passed == (report.max_abs_residual <= report.tolerance)

    def test_nan_residual_fails(self):
        # negative control: the maximum is NaN, so the report cannot pass
        report = ResidualReport.from_residuals("x", [1e-12, math.nan, 0.0], tolerance=1e-4)
        assert math.isnan(report.max_abs_residual)
        assert not report.passed

    def test_overflowing_signal_fails_variance_forms(self):
        # negative control: g*g overflows, so v - m**2 is inf - inf = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_prop1([1e200, -1e200, 3.0], 0.9)
        assert math.isnan(report.variance.max_abs_residual)
        assert not report.variance.passed and not report.passed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_prop1([1.0, np.inf], 0.9)
        with pytest.raises(ValueError):
            check_prop1([1.0], 1.0)
        with pytest.raises(ValueError, match="per-column beta"):
            check_prop1(np.zeros((4, 3)), [0.9, 0.9])
        with pytest.raises(ValueError, match="2-D"):
            check_prop1(np.zeros((4, 3, 1)), 0.9)


class TestColumnTrace:
    """``scalar_adam_trace`` on ``(T, C)`` is the old scalar loop run on each column."""

    @given(signal=TRACE_SIGNALS, data=st.data())
    def test_columns_match_scalar_loop_bitwise(self, signal, data):
        betas = data.draw(st.lists(TRACE_BETAS, min_size=signal.shape[1], max_size=signal.shape[1]))
        trace = scalar_adam_trace(signal, np.array(betas))
        for c, beta in enumerate(betas):
            expected = reference_trace(signal[:, c], beta)
            alone = scalar_adam_trace(signal[:, c], beta)
            for key, column in expected.items():
                assert trace[key].shape == signal.shape
                assert np.array_equal(trace[key][:, c], column), key
                assert np.array_equal(alone[key], column), key

    @given(signal=TRACE_SIGNALS, beta=TRACE_BETAS)
    def test_float_beta_is_shared_by_every_column(self, signal, beta):
        shared = scalar_adam_trace(signal, beta)
        per_column = scalar_adam_trace(signal, np.full(signal.shape[1], beta))
        for key in shared:
            assert np.array_equal(shared[key], per_column[key])

    def test_column_reports_match_one_column_reports(self):
        # each column's variance residual is scaled by that column's own maxima
        rng = np.random.default_rng(23)
        signal = rng.standard_normal((300, 4)) * np.array([1e-6, 1.0, 1e3, 0.0])
        betas = np.array([0.8, 0.9, 0.95, 0.99])
        report = check_prop1(signal, betas)
        assert report.direction.max_abs_residual.shape == (4,)
        for c, beta in enumerate(betas):
            alone = check_prop1(signal[:, c], beta)
            for batched, single in ((report.direction, alone.direction), (report.variance, alone.variance)):
                assert batched.max_abs_residual[c] == single.max_abs_residual
                assert batched.passed[c] == single.passed
        assert report.passed

    def test_one_failing_column_fails_the_report(self):
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_prop1(np.array([[1e200, 1.0], [-1e200, -1.0], [3.0, 2.0]]), 0.9)
        assert math.isnan(report.variance.max_abs_residual[0])
        assert report.variance.passed.tolist() == [False, True]
        assert not report.passed


class TestEqualBetaNecessity:
    def test_condition_examples(self):
        assert prop2_condition(0.95, 0.95) == 0.0
        assert prop2_condition(0.9, 0.95) == pytest.approx(0.0025, rel=1e-10)
        assert prop2_condition(0.9, 0.999) == pytest.approx(0.009801, rel=1e-10)

    def test_condition_zero_only_on_diagonal(self):
        for b1 in BETA_GRID_ROWS:
            for b2 in BETA_GRID_COLS:
                value = prop2_condition(b1, b2)
                if b1 == b2:
                    assert value == 0.0
                else:
                    assert value > 0.0

    def test_domain_is_open_interval(self):
        with pytest.raises(ValueError):
            prop2_condition(0.0, 0.5)
        with pytest.raises(ValueError):
            prop2_condition(0.5, 1.0)

    def test_completion_margin_vanishes_for_equal_betas(self):
        for beta in BETA_GRID_COLS:
            report = square_completion_margin(beta, beta)
            assert report.sqrt_defined
            assert report.margin <= 1e-12

    def test_completion_margin_example_pair(self):
        report = square_completion_margin(0.9, 0.95)
        # leftover = 0.81 * 0.05 / (0.05 - 0.01) = 1.0125
        assert report.leftover_coefficient == pytest.approx(1.0125, rel=1e-12)
        assert report.margin == pytest.approx(0.0625, rel=1e-10)

    def test_undefined_root_still_witnesses_mismatch(self):
        report = square_completion_margin(0.9, 0.999)
        assert not report.sqrt_defined
        assert report.leftover_coefficient == pytest.approx(-0.09, rel=1e-10)
        assert report.margin > 0.1

    def test_grid_margins_nonzero_off_diagonal(self):
        for b1 in BETA_GRID_ROWS:
            for b2 in BETA_GRID_COLS:
                if b1 == b2:
                    continue
                report = square_completion_margin(b1, b2)
                assert report.margin > 1e-6, (b1, b2)


class TestMollifierGeometry:
    def test_noiseless_limit_is_sign(self):
        assert mollified_direction(1.0, 0.0) == 1.0
        assert mollified_direction(-2.0, 0.0) == -1.0

    def test_half_at_three_to_one_noise(self):
        assert mollified_direction(1.0, 3.0) == pytest.approx(0.5)

    def test_zero_momentum_gives_zero(self):
        assert mollified_direction(0.0, 5.0) == 0.0
        assert trust_radius(0.0, 5.0) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            mollified_direction(1.0, -1e-9)
        with pytest.raises(ValueError):
            trust_radius(1.0, -1e-9)

    def test_trust_radius_examples(self):
        assert trust_radius(1.0, 0.0) == 1.0
        assert trust_radius(1.0, 3.0) == pytest.approx(0.5)
        assert trust_radius(0.1, 0.99) == pytest.approx(0.1)

    def test_magnitude_below_one_with_equality_iff_noiseless(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = float(rng.normal(scale=2.0))
            var = float(rng.exponential(scale=1.0))
            value = mollified_direction(m, var)
            assert abs(value) <= 1.0
            if m != 0 and var > 0:
                assert abs(value) < 1.0
        assert abs(mollified_direction(3.0, 0.0)) == 1.0

    def test_huge_momentum_stays_stable(self):
        assert mollified_direction(1e300, 1.0) == pytest.approx(1.0)

    def test_constrained_minimizer_is_mollified_direction(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = float(rng.normal(scale=3.0))
            var = float(rng.exponential(scale=2.0))
            radius = trust_radius(m, var)
            argmin = steepest_descent_minimizer(m, radius)
            assert argmin == pytest.approx(mollified_direction(m, var), abs=1e-12)

    def test_unit_trust_region_recovers_sign(self):
        # zero variance: the region is |theta| <= 1 and the minimizer is sign(m)
        assert steepest_descent_minimizer(2.5, trust_radius(2.5, 0.0)) == 1.0
        assert steepest_descent_minimizer(-2.5, trust_radius(-2.5, 0.0)) == -1.0
